//! The analytical GPU performance model.
//!
//! This replaces the paper's one-time profiling on real A100 hardware (see
//! the README's paragraph on the analytical A100 model). For every
//! `(layer, batch, partition)` it estimates execution time and SM
//! occupancy from first principles:
//!
//! 1. **Parallelism** — the layer's [`WorkShape`] is tiled into thread
//!    blocks; occupancy is the fraction of the partition's concurrent
//!    block slots those tiles fill (`min(1, tiles/slots)` in the smooth,
//!    load-balanced approximation; whole-wave quantization is available as
//!    an ablation switch).
//! 2. **Roofline** — compute time is `FLOPs / (peak·efficiency·occupancy)`
//!    on the layer's pipe (tensor vs CUDA cores); memory time is
//!    DRAM-visible bytes over the partition's bandwidth share; the layer
//!    takes the max of the two, plus a kernel-launch overhead.
//! 3. **Batch amortization** — parameter traffic is paid once per kernel
//!    regardless of batch, so arithmetic intensity and occupancy both rise
//!    with batch size. This is what produces the `MaxBatch_knee` behaviour
//!    of Figures 3 and 4 that PARIS builds on.
//!
//! Every eager-mode kernel additionally has a minimum wall-clock execution
//! floor independent of partition size (tiny kernels cannot go faster on a
//! bigger GPU), which is what makes lightweight models nearly
//! partition-size-insensitive (Fig. 3's MobileNet behaviour). The reported
//! *utilization* is SM occupancy weighted by each kernel's roofline-limited
//! (useful-work) time over total kernel-active time — floor-bound time is
//! idle silicon — and *latency* additionally includes per-kernel launch
//! gaps and per-inference framework overhead (eager-mode PyTorch, per the
//! paper's software stack).

use dnn_zoo::{ComputeClass, Layer, ModelGraph};

use crate::device::DeviceSpec;
use crate::partition::PartitionResources;
use crate::profile_size::ProfileSize;

/// Which roofline term bounded a layer's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Limited by the compute pipe.
    Compute,
    /// Limited by DRAM bandwidth.
    Memory,
    /// Limited by the fixed kernel-launch overhead.
    Overhead,
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Compute => f.write_str("compute"),
            Bound::Memory => f.write_str("memory"),
            Bound::Overhead => f.write_str("overhead"),
        }
    }
}

/// Timing estimate for one layer at one batch size on one partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTiming {
    /// Kernel execution time excluding launch overhead, seconds.
    pub exec_s: f64,
    /// Time the kernel spends limited by compute or memory (the "real
    /// work" part of `exec_s`; the remainder is small-kernel floor).
    pub roofline_s: f64,
    /// SM occupancy (0, 1] while the kernel runs.
    pub occupancy: f64,
    /// Which resource bounded the kernel.
    pub bound: Bound,
}

/// End-to-end estimate for one inference on one partition.
///
/// Produced by [`PerfModel::inference`]; this is the raw material of the
/// paper's Figures 3 and 4 and of the PARIS profiling tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceEstimate {
    /// End-to-end latency, seconds (kernels + launch gaps + framework).
    pub latency_s: f64,
    /// Time-weighted SM occupancy over kernel-active time, in [0, 1].
    pub utilization: f64,
    /// Achieved FLOP/s divided by the partition's tensor peak, in [0, 1].
    pub flop_efficiency: f64,
}

impl InferenceEstimate {
    /// Requests per second a partition sustains running this batch size
    /// back-to-back: `1 / latency`.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        1.0 / self.latency_s
    }
}

/// The analytical performance model for one device specification.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
///
/// let model = ModelKind::ResNet50.build();
/// let perf = PerfModel::new(DeviceSpec::a100());
/// let small = perf.inference(&model, 8, ProfileSize::G1);
/// let large = perf.inference(&model, 8, ProfileSize::G7);
/// // Small partitions are slower but better utilized (paper Fig. 3).
/// assert!(small.latency_s > large.latency_s);
/// assert!(small.utilization > large.utilization);
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel {
    spec: DeviceSpec,
}

impl PerfModel {
    /// Creates a model for the given device.
    #[must_use]
    pub fn new(spec: DeviceSpec) -> Self {
        PerfModel { spec }
    }

    /// The device specification this model evaluates against.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Estimates one layer at batch `b` on a `size` partition.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[must_use]
    pub fn layer(&self, layer: &Layer, b: usize, size: ProfileSize) -> LayerTiming {
        assert!(b > 0, "batch size must be at least 1");
        let res = PartitionResources::new(&self.spec, size);
        let work = layer.work();

        // --- Parallelism: tiles vs concurrent block slots. ---
        let (tile_rows, tile_cols, ctas_per_sm, peak, eff) = match layer.class() {
            ComputeClass::TensorCore => (
                self.spec.tensor_tile_rows,
                self.spec.tensor_tile_cols,
                self.spec.tensor_ctas_per_sm,
                res.tensor_peak_flops(),
                self.spec.tensor_efficiency,
            ),
            ComputeClass::CudaCore => (
                self.spec.cuda_tile_elems,
                f64::INFINITY, // elementwise tiles span the full "column"
                self.spec.cuda_ctas_per_sm,
                res.cuda_peak_flops(),
                self.spec.cuda_efficiency,
            ),
        };
        // Tiles are counted continuously (no per-dimension ceiling): this
        // keeps latency exactly monotone in batch size and, for layers that
        // underfill the machine, makes compute time equal the duration of
        // one tile's work on one block slot — the right limit for a kernel
        // whose parallelism cannot cover the partition.
        let rows = work.rows_per_sample * b as f64;
        let row_tiles = rows / tile_rows;
        let col_tiles = if tile_cols.is_finite() {
            (work.cols / tile_cols).max(1.0)
        } else {
            1.0
        };
        let tiles = row_tiles * col_tiles * work.groups.max(1.0);
        let slots = res.sms() as f64 * ctas_per_sm;
        let occupancy = if self.spec.wave_quantization {
            let waves = (tiles / slots).ceil().max(1.0);
            tiles / (waves * slots)
        } else {
            (tiles / slots).min(1.0)
        };

        // --- Roofline. ---
        let flops = layer.flops_for_batch(b);
        let compute_s = if flops > 0.0 {
            flops / (peak * eff * occupancy)
        } else {
            0.0
        };
        let dram_bytes = layer.weight_bytes()
            + layer.io_bytes_per_sample() * b as f64 * (1.0 - self.spec.l2_hit_fraction);
        let memory_s = dram_bytes / res.mem_bandwidth();
        // Every eager-mode kernel has a minimum wall-clock cost regardless
        // of how small its work is or how big the partition — this floor is
        // what makes lightweight models nearly insensitive to partition
        // size (Fig. 3's MobileNet behaviour).
        let roofline_s = compute_s.max(memory_s);
        let exec_s = roofline_s.max(self.spec.kernel_floor_s);
        let bound = if compute_s >= memory_s && compute_s >= self.spec.kernel_floor_s {
            Bound::Compute
        } else if memory_s > compute_s && memory_s >= self.spec.kernel_floor_s {
            Bound::Memory
        } else {
            Bound::Overhead
        };

        LayerTiming {
            exec_s,
            roofline_s,
            occupancy,
            bound,
        }
    }

    /// Estimates a full inference of `model` at batch `b` on `size`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[must_use]
    pub fn inference(&self, model: &ModelGraph, b: usize, size: ProfileSize) -> InferenceEstimate {
        let res = PartitionResources::new(&self.spec, size);
        let mut kernel_active = 0.0;
        let mut busy_weighted = 0.0;
        for layer in model.layers() {
            let t = self.layer(layer, b, size);
            kernel_active += t.exec_s;
            // SMs only do useful work during the roofline-limited part of
            // a kernel; floor-bound time is dead time on the partition.
            busy_weighted += t.roofline_s * t.occupancy;
        }
        let overheads = self.spec.kernel_overhead_s * model.layer_count() as f64
            + self.spec.framework_overhead_s;
        let latency_s = kernel_active + overheads;
        let utilization = if kernel_active > 0.0 {
            busy_weighted / kernel_active
        } else {
            0.0
        };
        let flop_efficiency =
            (model.flops_for_batch(b) / latency_s / res.tensor_peak_flops()).min(1.0);
        InferenceEstimate {
            latency_s,
            utilization,
            flop_efficiency,
        }
    }
}

impl Default for PerfModel {
    fn default() -> Self {
        Self::new(DeviceSpec::a100())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;

    fn perf() -> PerfModel {
        PerfModel::default()
    }

    #[test]
    fn latency_monotone_in_batch() {
        let perf = perf();
        for kind in ModelKind::ALL {
            let model = kind.build();
            for size in ProfileSize::ALL {
                let mut prev = 0.0;
                for b in [1usize, 2, 4, 8, 16, 32, 64] {
                    let est = perf.inference(&model, b, size);
                    assert!(
                        est.latency_s >= prev,
                        "{kind} on {size}: latency not monotone at b={b}"
                    );
                    prev = est.latency_s;
                }
            }
        }
    }

    #[test]
    fn utilization_monotone_in_batch_and_bounded() {
        let perf = perf();
        for kind in ModelKind::ALL {
            let model = kind.build();
            for size in ProfileSize::ALL {
                let mut prev = 0.0;
                for b in [1usize, 2, 4, 8, 16, 32, 64] {
                    let u = perf.inference(&model, b, size).utilization;
                    assert!((0.0..=1.0).contains(&u), "{kind} {size} b={b}: util {u}");
                    assert!(
                        u + 1e-9 >= prev,
                        "{kind} on {size}: utilization not monotone at b={b}"
                    );
                    prev = u;
                }
            }
        }
    }

    #[test]
    fn small_partitions_slower_but_better_utilized() {
        // The core Figure 3 observation, for every model at batch 8. A
        // floor-bound lightweight model (ShuffleNet) may tie on latency —
        // partition size cannot make it *faster*.
        let perf = perf();
        for kind in ModelKind::ALL {
            let model = kind.build();
            let small = perf.inference(&model, 8, ProfileSize::G1);
            let large = perf.inference(&model, 8, ProfileSize::G7);
            assert!(
                small.latency_s >= large.latency_s,
                "{kind}: small must not be faster"
            );
            assert!(
                small.utilization > large.utilization,
                "{kind}: small must be better utilized"
            );
        }
        // And the compute-hungry models must be strictly slower on GPU(1).
        for kind in [ModelKind::ResNet50, ModelKind::BertBase] {
            let model = kind.build();
            let small = perf.inference(&model, 8, ProfileSize::G1);
            let large = perf.inference(&model, 8, ProfileSize::G7);
            assert!(
                small.latency_s > 1.5 * large.latency_s,
                "{kind}: GPU(1) must be much slower"
            );
        }
    }

    #[test]
    fn compute_hungry_models_penalized_most_on_small_partitions() {
        // Figure 3: latency blow-up GPU(1)/GPU(7) ordering
        // MobileNet < ResNet < BERT.
        let perf = perf();
        let ratio = |kind: ModelKind| {
            let m = kind.build();
            perf.inference(&m, 8, ProfileSize::G1).latency_s
                / perf.inference(&m, 8, ProfileSize::G7).latency_s
        };
        let mobilenet = ratio(ModelKind::MobileNet);
        let resnet = ratio(ModelKind::ResNet50);
        let bert = ratio(ModelKind::BertBase);
        assert!(
            mobilenet < resnet && resnet < bert,
            "latency blow-up ordering violated: mobilenet {mobilenet:.2}, resnet {resnet:.2}, bert {bert:.2}"
        );
    }

    #[test]
    fn bert_utilizes_small_partitions_far_better_than_light_models() {
        // §III-B: "large models like BERT achieve high GPU utilization
        // under small GPU partitions even when the batch size is small" —
        // relative to the lightweight models, which stay overhead-bound.
        let perf = perf();
        let util_at_b1 = |kind: ModelKind| {
            perf.inference(&kind.build(), 1, ProfileSize::G1)
                .utilization
        };
        let bert = util_at_b1(ModelKind::BertBase);
        let mobilenet = util_at_b1(ModelKind::MobileNet);
        let shufflenet = util_at_b1(ModelKind::ShuffleNet);
        assert!(
            bert > 3.0 * mobilenet,
            "BERT {bert:.2} vs MobileNet {mobilenet:.2}"
        );
        assert!(
            bert > 5.0 * shufflenet,
            "BERT {bert:.2} vs ShuffleNet {shufflenet:.2}"
        );
    }

    #[test]
    fn throughput_is_reciprocal_latency() {
        let perf = perf();
        let m = ModelKind::ResNet50.build();
        let est = perf.inference(&m, 4, ProfileSize::G2);
        assert!((est.throughput_qps() * est.latency_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_flop_layers_cost_memory_time_only() {
        let perf = perf();
        let shuffle = dnn_zoo::Layer::channel_shuffle("s", 20_000_000);
        let t = perf.layer(&shuffle, 4, ProfileSize::G1);
        assert!(t.exec_s > 0.0);
        assert_eq!(t.bound, Bound::Memory);
    }

    #[test]
    fn wave_quantization_never_beats_smooth_occupancy() {
        let mut spec = DeviceSpec::a100();
        spec.wave_quantization = true;
        let quant = PerfModel::new(spec);
        let smooth = perf();
        let m = ModelKind::ResNet50.build();
        for b in [1usize, 3, 7, 13] {
            let q = quant.inference(&m, b, ProfileSize::G2);
            let s = smooth.inference(&m, b, ProfileSize::G2);
            assert!(q.latency_s >= s.latency_s - 1e-12);
        }
    }

    #[test]
    fn flop_efficiency_bounded() {
        let perf = perf();
        for kind in ModelKind::ALL {
            let m = kind.build();
            let e = perf.inference(&m, 32, ProfileSize::G7).flop_efficiency;
            assert!((0.0..=1.0).contains(&e));
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_panics() {
        let perf = perf();
        let m = ModelKind::MobileNet.build();
        let _ = perf.inference(&m, 0, ProfileSize::G1);
    }
}
