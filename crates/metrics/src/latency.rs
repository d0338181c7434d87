//! End-to-end latency recording with percentile queries.

use std::fmt;

/// Collects per-query latencies (in nanoseconds) and answers the statistics
/// the evaluation plots: p95 tail latency, means, maxima and SLA-violation
/// rates.
///
/// # Examples
///
/// ```
/// use server_metrics::LatencyRecorder;
///
/// let mut rec = LatencyRecorder::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     rec.record(ms * 1_000_000);
/// }
/// assert_eq!(rec.count(), 5);
/// assert!(rec.percentile_ms(0.95) >= 4.0);
/// assert_eq!(rec.violations(10 * 1_000_000), 1); // only the 100 ms query
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyRecorder {
    samples_ns: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        LatencyRecorder {
            samples_ns: Vec::new(),
        }
    }

    /// Records one latency sample in nanoseconds.
    pub fn record(&mut self, latency_ns: u64) {
        self.samples_ns.push(latency_ns);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// The raw samples, in arrival order (nanoseconds).
    #[must_use]
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    /// Mean latency in milliseconds (0 if empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let total: u128 = self.samples_ns.iter().map(|&n| n as u128).sum();
        total as f64 / self.samples_ns.len() as f64 / 1e6
    }

    /// Maximum latency in milliseconds (0 if empty).
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.samples_ns
            .iter()
            .max()
            .map_or(0.0, |&n| n as f64 / 1e6)
    }

    /// The `p`-quantile latency in nanoseconds using the nearest-rank
    /// method (0 if empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile_ns(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be within [0, 1]");
        if self.samples_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The `p`-quantile latency in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e6
    }

    /// The paper's headline metric: 95th-percentile tail latency, ms.
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        self.percentile_ms(0.95)
    }

    /// Number of samples exceeding `sla_ns`.
    #[must_use]
    pub fn violations(&self, sla_ns: u64) -> usize {
        self.samples_ns.iter().filter(|&&s| s > sla_ns).count()
    }

    /// Fraction of samples exceeding `sla_ns` (0 if empty).
    #[must_use]
    pub fn violation_rate(&self, sla_ns: u64) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.violations(sla_ns) as f64 / self.samples_ns.len() as f64
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }
}

impl fmt::Display for LatencyRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, mean {:.3} ms, p95 {:.3} ms",
            self.count(),
            self.mean_ms(),
            self.p95_ms()
        )
    }
}

impl Extend<u64> for LatencyRecorder {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        self.samples_ns.extend(iter);
    }
}

impl FromIterator<u64> for LatencyRecorder {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        LatencyRecorder {
            samples_ns: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_reports_zeros() {
        let rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.mean_ms(), 0.0);
        assert_eq!(rec.max_ms(), 0.0);
        assert_eq!(rec.percentile_ns(0.95), 0);
        assert_eq!(rec.violation_rate(1), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let rec: LatencyRecorder = (1..=100u64).collect();
        assert_eq!(rec.percentile_ns(0.95), 95);
        assert_eq!(rec.percentile_ns(0.50), 50);
        assert_eq!(rec.percentile_ns(1.0), 100);
        assert_eq!(rec.percentile_ns(0.0), 1);
    }

    #[test]
    fn percentile_order_insensitive() {
        let mut rec = LatencyRecorder::new();
        for v in [50u64, 10, 90, 30, 70] {
            rec.record(v);
        }
        assert_eq!(rec.percentile_ns(0.5), 50);
    }

    #[test]
    fn mean_and_max() {
        let rec: LatencyRecorder = [1_000_000u64, 3_000_000].into_iter().collect();
        assert!((rec.mean_ms() - 2.0).abs() < 1e-9);
        assert!((rec.max_ms() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn violations_count_strictly_above_sla() {
        let rec: LatencyRecorder = [5u64, 10, 15].into_iter().collect();
        assert_eq!(rec.violations(10), 1);
        assert!((rec.violation_rate(10) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a: LatencyRecorder = [1u64, 2].into_iter().collect();
        let b: LatencyRecorder = [3u64].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "quantile must be within")]
    fn out_of_range_quantile_panics() {
        let rec = LatencyRecorder::new();
        let _ = rec.percentile_ns(1.5);
    }

    #[test]
    fn mean_does_not_overflow_on_large_samples() {
        let rec: LatencyRecorder = std::iter::repeat_n(u64::MAX / 2, 8).collect();
        assert!(rec.mean_ms() > 0.0);
    }

    #[test]
    fn display_is_informative() {
        let rec: LatencyRecorder = [2_000_000u64].into_iter().collect();
        let s = rec.to_string();
        assert!(s.contains("1 samples"));
    }
}
