//! # inference-workload — query generators for ML inference servers
//!
//! Models the paper's workload assumptions (§II-A, §V): query arrivals
//! follow a **Poisson** process (MLPerf's recommendation) and query sizes
//! (input batch sizes) follow a **log-normal** distribution, batches 1–32
//! by default.
//!
//! * [`BatchDistribution`] — discretized log-normal (or custom) batch PMF,
//!   the `Dist[]` input of PARIS,
//! * [`PoissonProcess`] — exponential inter-arrival sampling,
//! * [`TraceGenerator`] — seeded, reproducible query traces (with
//!   O(1)-memory streaming variants),
//! * [`MultiTraceGenerator`] / [`PhaseSpec`] — multi-model traces with
//!   piecewise-constant traffic drift ([`TaggedQuerySpec`] arrivals),
//! * [`EmpiricalBatchPmf`] — the online histogram a production server would
//!   collect to feed PARIS,
//! * [`DriftDetector`] — the windowed rate/batch-mix estimator that
//!   triggers online re-planning.
//!
//! ```
//! use inference_workload::{BatchDistribution, TraceGenerator};
//!
//! let gen = TraceGenerator::new(100.0, BatchDistribution::paper_default(), 7);
//! let trace = gen.generate_for(1.0);
//! assert!(trace.iter().all(|q| q.batch >= 1 && q.batch <= 32));
//! ```

mod arrivals;
mod dist;
mod drift;
mod empirical;
mod multi;
mod trace;

pub use arrivals::PoissonProcess;
pub use dist::{BatchDistribution, BuildDistributionError};
pub use drift::{DriftDetector, DriftDetectorConfig, DriftReport};
pub use empirical::EmpiricalBatchPmf;
pub use multi::{MultiTraceGenerator, MultiTraceStream, PhaseSpec, TaggedQuerySpec};
pub use trace::{QuerySpec, TraceGenerator, TraceStream};
