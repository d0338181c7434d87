//! The one-time profiling tables PARIS and ELSA both consume.
//!
//! §IV-C: "we conduct an exhaustive, one-time profiling of a target DNN
//! model's execution time over a target GPU partition size and all possible
//! batch sizes … stored as a two-dimensional lookup table that is indexed
//! using (GPU partition size, batch size)".
//!
//! On the paper's testbed this table is measured on real A100 partitions;
//! here it is filled by the analytical [`PerfModel`] (see the README's
//! paragraph on the analytical A100 model). The algorithms never look past
//! this table, so swapping in NVML-measured numbers would not change a line
//! of PARIS or ELSA.

use std::fmt;

use dnn_zoo::ModelGraph;
use inference_workload::BatchDistribution;
use mig_gpu::{PerfModel, ProfileSize};

/// The `(partition size, batch size) → {latency, utilization}` lookup table.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
/// use paris_core::ProfileTable;
///
/// let model = ModelKind::MobileNet.build();
/// let perf = PerfModel::new(DeviceSpec::a100());
/// let table = ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32);
///
/// // Larger partitions are faster at a given batch size…
/// assert!(table.latency_ns(ProfileSize::G7, 8) < table.latency_ns(ProfileSize::G1, 8));
/// // …but less utilized.
/// assert!(table.utilization(ProfileSize::G7, 8) < table.utilization(ProfileSize::G1, 8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTable {
    model_name: String,
    sizes: Vec<ProfileSize>,
    max_batch: usize,
    /// Dense `ProfileSize → row` map: `row_of[size as usize]` is the row
    /// index of that size, or [`UNPROFILED`] if the size was not profiled.
    /// Keeps every latency lookup a couple of array indexings instead of a
    /// linear scan over `sizes` — this sits on the per-query dispatch path.
    row_of: [u32; ProfileSize::ALL.len()],
    /// Row-major `latency_ns[row * max_batch + (batch - 1)]`.
    latency_ns: Vec<u64>,
    /// Row-major `utilization[row * max_batch + (batch - 1)]`.
    utilization: Vec<f64>,
}

/// Sentinel in [`ProfileTable::row_of`] for sizes absent from the table.
const UNPROFILED: u32 = u32::MAX;

impl ProfileTable {
    /// Profiles `model` over every `(size, batch)` pair up to `max_batch`.
    ///
    /// This is the reproduction's stand-in for the paper's ~5-minute
    /// hardware profiling pass; with the analytical model it takes
    /// milliseconds but produces the same *kind* of table.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or `max_batch` is 0.
    #[must_use]
    pub fn profile(
        model: &ModelGraph,
        perf: &PerfModel,
        sizes: &[ProfileSize],
        max_batch: usize,
    ) -> Self {
        assert!(!sizes.is_empty(), "at least one partition size required");
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let mut sizes = sizes.to_vec();
        sizes.sort();
        sizes.dedup();
        let mut row_of = [UNPROFILED; ProfileSize::ALL.len()];
        let mut latency_ns = Vec::with_capacity(sizes.len() * max_batch);
        let mut utilization = Vec::with_capacity(sizes.len() * max_batch);
        for (row, &size) in sizes.iter().enumerate() {
            row_of[size as usize] = row as u32;
            for b in 1..=max_batch {
                let est = perf.inference(model, b, size);
                latency_ns.push((est.latency_s * 1e9).round() as u64);
                utilization.push(est.utilization);
            }
        }
        ProfileTable {
            model_name: model.name().to_owned(),
            sizes,
            max_batch,
            row_of,
            latency_ns,
            utilization,
        }
    }

    /// The profiled model's name.
    #[must_use]
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// The profiled partition sizes, ascending.
    #[must_use]
    pub fn sizes(&self) -> &[ProfileSize] {
        &self.sizes
    }

    /// Largest profiled batch size.
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The largest profiled partition size.
    ///
    /// # Panics
    ///
    /// Never panics: the table always holds at least one size.
    #[must_use]
    pub fn largest_size(&self) -> ProfileSize {
        *self.sizes.last().expect("table is never empty")
    }

    #[inline]
    fn size_idx(&self, size: ProfileSize) -> usize {
        let row = self.row_of[size as usize];
        if row == UNPROFILED {
            panic!("partition size {size} was not profiled");
        }
        row as usize
    }

    /// The full per-batch latency row for `size`, in nanoseconds:
    /// `row[b - 1]` is the profiled latency at batch `b`. Borrowing the row
    /// once lets per-query hot paths resolve latencies by direct slice
    /// indexing with no per-lookup size resolution at all.
    ///
    /// # Panics
    ///
    /// Panics if `size` was not profiled.
    #[must_use]
    #[inline]
    pub fn latency_row(&self, size: ProfileSize) -> &[u64] {
        let row = self.size_idx(size);
        &self.latency_ns[row * self.max_batch..(row + 1) * self.max_batch]
    }

    /// Profiled latency (`T_estimated`) in nanoseconds.
    ///
    /// Batch sizes above [`max_batch`](Self::max_batch) clamp to the largest
    /// profiled entry; batch 0 clamps to 1.
    ///
    /// # Panics
    ///
    /// Panics if `size` was not profiled.
    #[must_use]
    #[inline]
    pub fn latency_ns(&self, size: ProfileSize, batch: usize) -> u64 {
        let row = self.size_idx(size);
        self.latency_ns[row * self.max_batch + batch.clamp(1, self.max_batch) - 1]
    }

    /// Profiled latency in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `size` was not profiled.
    #[must_use]
    pub fn latency_s(&self, size: ProfileSize, batch: usize) -> f64 {
        self.latency_ns(size, batch) as f64 / 1e9
    }

    /// Effective inference throughput `Throughput_{k,b}` in queries/second
    /// (Algorithm 1, line 5): the rate at which one partition of `size`
    /// retires back-to-back queries of this batch size.
    ///
    /// # Panics
    ///
    /// Panics if `size` was not profiled.
    #[must_use]
    pub fn throughput_qps(&self, size: ProfileSize, batch: usize) -> f64 {
        1e9 / self.latency_ns(size, batch) as f64
    }

    /// Profiled GPU utilization (`Util_k[b]`, Algorithm 1 line 4) in [0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `size` was not profiled.
    #[must_use]
    #[inline]
    pub fn utilization(&self, size: ProfileSize, batch: usize) -> f64 {
        let row = self.size_idx(size);
        self.utilization[row * self.max_batch + batch.clamp(1, self.max_batch) - 1]
    }

    /// Back-of-envelope serving capacity of a set of instances of this
    /// model: the summed reciprocal profiled latency at `dist`'s rounded
    /// mean batch, queries/second.
    ///
    /// This is the shared estimate behind throughput-search seeds
    /// (`capacity_hint_qps`), cluster router weights and the loan
    /// controller's demand normalization — one formula, so the sites can
    /// never silently diverge.
    ///
    /// # Panics
    ///
    /// Panics if any size in `sizes` was not profiled.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnn_zoo::ModelKind;
    /// use inference_workload::BatchDistribution;
    /// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
    /// use paris_core::ProfileTable;
    ///
    /// let perf = PerfModel::new(DeviceSpec::a100());
    /// let table = ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
    /// let dist = BatchDistribution::paper_default();
    /// let one = table.capacity_qps(&[ProfileSize::G2], &dist);
    /// let two = table.capacity_qps(&[ProfileSize::G2, ProfileSize::G2], &dist);
    /// assert!((two / one - 2.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn capacity_qps(&self, sizes: &[ProfileSize], dist: &BatchDistribution) -> f64 {
        let mean_batch = dist.mean().round().max(1.0) as usize;
        sizes
            .iter()
            .map(|&size| 1.0 / self.latency_s(size, mean_batch))
            .sum()
    }

    /// The paper's SLA target construction (§V): `n_times` × the latency of
    /// the distribution's max batch on the largest profiled partition.
    ///
    /// # Panics
    ///
    /// Panics if `n_times` is not positive and finite.
    #[must_use]
    pub fn sla_target_ns(&self, n_times: f64) -> u64 {
        assert!(
            n_times.is_finite() && n_times > 0.0,
            "SLA multiplier must be positive and finite"
        );
        let base = self.latency_ns(self.largest_size(), self.max_batch);
        (base as f64 * n_times).round() as u64
    }
}

impl fmt::Display for ProfileTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile table for {} ({} sizes × {} batches)",
            self.model_name,
            self.sizes.len(),
            self.max_batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;
    use mig_gpu::DeviceSpec;

    fn table(kind: ModelKind) -> ProfileTable {
        let model = kind.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    #[test]
    fn latency_monotone_in_batch_for_every_size() {
        let t = table(ModelKind::ResNet50);
        for &size in t.sizes() {
            for b in 2..=32 {
                assert!(t.latency_ns(size, b) >= t.latency_ns(size, b - 1));
            }
        }
    }

    #[test]
    fn larger_partitions_are_never_slower() {
        let t = table(ModelKind::BertBase);
        for b in [1usize, 4, 16, 32] {
            for pair in t.sizes().windows(2) {
                assert!(
                    t.latency_ns(pair[1], b) <= t.latency_ns(pair[0], b),
                    "{} slower than {} at b={b}",
                    pair[1],
                    pair[0]
                );
            }
        }
    }

    #[test]
    fn batch_clamps_at_table_edges() {
        let t = table(ModelKind::MobileNet);
        assert_eq!(
            t.latency_ns(ProfileSize::G1, 0),
            t.latency_ns(ProfileSize::G1, 1)
        );
        assert_eq!(
            t.latency_ns(ProfileSize::G1, 1000),
            t.latency_ns(ProfileSize::G1, 32)
        );
    }

    #[test]
    fn throughput_is_reciprocal_latency() {
        let t = table(ModelKind::ShuffleNet);
        let qps = t.throughput_qps(ProfileSize::G2, 4);
        let lat_s = t.latency_s(ProfileSize::G2, 4);
        assert!((qps * lat_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sla_target_scales_with_multiplier() {
        let t = table(ModelKind::ResNet50);
        let base = t.sla_target_ns(1.0);
        assert_eq!(t.sla_target_ns(2.0), base * 2);
        assert_eq!(base, t.latency_ns(ProfileSize::G7, 32));
    }

    #[test]
    fn sizes_are_sorted_and_deduped() {
        let model = ModelKind::MobileNet.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        let t = ProfileTable::profile(
            &model,
            &perf,
            &[ProfileSize::G7, ProfileSize::G1, ProfileSize::G7],
            4,
        );
        assert_eq!(t.sizes(), &[ProfileSize::G1, ProfileSize::G7]);
        assert_eq!(t.largest_size(), ProfileSize::G7);
    }

    #[test]
    fn latency_row_matches_pointwise_lookups() {
        let t = table(ModelKind::BertBase);
        for &size in t.sizes() {
            let row = t.latency_row(size);
            assert_eq!(row.len(), t.max_batch());
            for b in 1..=t.max_batch() {
                assert_eq!(row[b - 1], t.latency_ns(size, b));
            }
        }
    }

    #[test]
    fn partial_tables_index_correctly() {
        let model = ModelKind::MobileNet.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        let t = ProfileTable::profile(&model, &perf, &[ProfileSize::G2, ProfileSize::G7], 8);
        assert_eq!(t.latency_row(ProfileSize::G2).len(), 8);
        assert!(t.latency_ns(ProfileSize::G7, 4) <= t.latency_ns(ProfileSize::G2, 4));
    }

    #[test]
    #[should_panic(expected = "was not profiled")]
    fn unprofiled_latency_row_panics() {
        let model = ModelKind::MobileNet.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        let t = ProfileTable::profile(&model, &perf, &[ProfileSize::G1], 4);
        let _ = t.latency_row(ProfileSize::G3);
    }

    #[test]
    #[should_panic(expected = "was not profiled")]
    fn unprofiled_size_panics() {
        let model = ModelKind::MobileNet.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        let t = ProfileTable::profile(&model, &perf, &[ProfileSize::G1], 4);
        let _ = t.latency_ns(ProfileSize::G7, 1);
    }
}
