//! Throughput and latency-bounded-throughput accounting.

use std::fmt;

/// Summary of one measured run at a fixed offered load: the coordinates of
/// one point on the paper's Figure 11 curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Offered arrival rate, queries/second.
    pub offered_qps: f64,
    /// Completed queries per second over the measurement window.
    pub achieved_qps: f64,
    /// 95th-percentile end-to-end latency, milliseconds.
    pub p95_ms: f64,
    /// Fraction of queries violating the SLA target.
    pub sla_violation_rate: f64,
    /// Mean GPU-partition utilization over the window.
    pub mean_utilization: f64,
}

impl ThroughputPoint {
    /// Whether this operating point meets a tail-latency target (ms).
    #[must_use]
    pub fn meets_target(&self, target_ms: f64) -> bool {
        self.p95_ms <= target_ms
    }
}

impl fmt::Display for ThroughputPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered {:.0} qps → achieved {:.0} qps, p95 {:.2} ms, {:.1}% SLA violations, util {:.0}%",
            self.offered_qps,
            self.achieved_qps,
            self.p95_ms,
            self.sla_violation_rate * 100.0,
            self.mean_utilization * 100.0
        )
    }
}

/// Finds the latency-bounded throughput from a rate sweep: the highest
/// achieved QPS among operating points whose p95 stays within `target_ms`
/// (paper §VI-B). Returns 0 if no point qualifies.
///
/// # Examples
///
/// ```
/// use server_metrics::{latency_bounded_throughput, ThroughputPoint};
///
/// let sweep = vec![
///     ThroughputPoint { offered_qps: 100.0, achieved_qps: 100.0, p95_ms: 5.0,
///                       sla_violation_rate: 0.0, mean_utilization: 0.2 },
///     ThroughputPoint { offered_qps: 200.0, achieved_qps: 199.0, p95_ms: 9.0,
///                       sla_violation_rate: 0.01, mean_utilization: 0.4 },
///     ThroughputPoint { offered_qps: 400.0, achieved_qps: 310.0, p95_ms: 80.0,
///                       sla_violation_rate: 0.4, mean_utilization: 0.9 },
/// ];
/// assert_eq!(latency_bounded_throughput(&sweep, 10.0), 199.0);
/// ```
#[must_use]
pub fn latency_bounded_throughput(sweep: &[ThroughputPoint], target_ms: f64) -> f64 {
    sweep
        .iter()
        .filter(|p| p.meets_target(target_ms))
        .map(|p| p.achieved_qps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(qps: f64, p95: f64) -> ThroughputPoint {
        ThroughputPoint {
            offered_qps: qps,
            achieved_qps: qps,
            p95_ms: p95,
            sla_violation_rate: 0.0,
            mean_utilization: 0.5,
        }
    }

    #[test]
    fn picks_highest_qualifying_rate() {
        let sweep = vec![point(10.0, 1.0), point(20.0, 2.0), point(30.0, 50.0)];
        assert_eq!(latency_bounded_throughput(&sweep, 5.0), 20.0);
    }

    #[test]
    fn returns_zero_when_nothing_qualifies() {
        let sweep = vec![point(10.0, 100.0)];
        assert_eq!(latency_bounded_throughput(&sweep, 5.0), 0.0);
    }

    #[test]
    fn empty_sweep_is_zero() {
        assert_eq!(latency_bounded_throughput(&[], 5.0), 0.0);
    }

    #[test]
    fn meets_target_is_inclusive() {
        assert!(point(1.0, 5.0).meets_target(5.0));
        assert!(!point(1.0, 5.1).meets_target(5.0));
    }

    #[test]
    fn display_has_all_fields() {
        let s = point(100.0, 3.0).to_string();
        assert!(s.contains("qps") && s.contains("p95") && s.contains("util"));
    }
}
