//! # mig-gpu — a reconfigurable (MIG) GPU model
//!
//! The hardware substrate of the PARIS+ELSA reproduction: an A100-class GPU
//! that can be partitioned into multiple smaller GPUs, exactly as NVIDIA's
//! Multi-Instance GPU feature allows (paper §II-C).
//!
//! Four pieces:
//!
//! * [`DeviceSpec`] — published A100 constants plus calibration knobs,
//! * geometry — [`ProfileSize`] (the 1g/2g/3g/4g/7g instance profiles),
//!   [`GpuLayout`] placement with the real A100 slice/alignment rules, and
//!   [`valid_gpu_configurations`] enumeration,
//! * [`PerfModel`] — an analytical latency/utilization model standing in
//!   for profiling on real hardware (see the README's paragraph on the
//!   analytical A100 model),
//! * [`ResliceCostModel`] — the driver-side downtime of re-partitioning a
//!   running server (what the online re-planning loop charges).
//!
//! ```
//! use dnn_zoo::ModelKind;
//! use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
//!
//! let perf = PerfModel::new(DeviceSpec::a100());
//! let bert = ModelKind::BertBase.build();
//! let est = perf.inference(&bert, 8, ProfileSize::G3);
//! assert!(est.latency_s > 0.0 && est.utilization <= 1.0);
//! ```

mod device;
mod geometry;
mod partition;
mod perf;
mod profile_size;
mod reconfig;

pub use device::DeviceSpec;
pub use geometry::{
    valid_gpu_configurations, GpuLayout, PlaceProfilesError, COMPUTE_SLICES, MEM_SLICES,
};
pub use partition::PartitionResources;
pub use perf::{Bound, InferenceEstimate, LayerTiming, PerfModel};
pub use profile_size::{ParseProfileSizeError, ProfileSize};
pub use reconfig::ResliceCostModel;
