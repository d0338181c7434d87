//! Time-weighted busy/idle accounting for partitions and servers.

use std::fmt;

/// Accumulates busy time for one resource (a GPU partition, the frontend…)
/// and reports utilization over an observation window.
///
/// # Examples
///
/// ```
/// use server_metrics::BusyTracker;
///
/// let mut t = BusyTracker::new();
/// t.add_busy_ns(250);
/// t.add_busy_ns(250);
/// assert!((t.utilization(1_000) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyTracker {
    busy_ns: u64,
    intervals: u64,
}

impl BusyTracker {
    /// Creates a tracker with no accumulated busy time.
    #[must_use]
    pub fn new() -> Self {
        BusyTracker {
            busy_ns: 0,
            intervals: 0,
        }
    }

    /// Adds one busy interval of the given length.
    pub fn add_busy_ns(&mut self, ns: u64) {
        self.busy_ns = self.busy_ns.saturating_add(ns);
        self.intervals += 1;
    }

    /// Returns `ns` of previously added busy time (saturating at zero,
    /// leaving the interval count untouched). Callers that charge an
    /// execution up front use this when the execution is cut short — a
    /// fault killing a partition mid-query refunds the unserved remainder.
    pub fn remove_busy_ns(&mut self, ns: u64) {
        self.busy_ns = self.busy_ns.saturating_sub(ns);
    }

    /// Total busy nanoseconds accumulated.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Number of busy intervals recorded.
    #[must_use]
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Busy fraction over a window of `window_ns` (clamped to [0, 1];
    /// 0 for an empty window).
    #[must_use]
    pub fn utilization(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        (self.busy_ns as f64 / window_ns as f64).min(1.0)
    }

    /// Resets accumulated state.
    pub fn reset(&mut self) {
        *self = BusyTracker::new();
    }
}

impl fmt::Display for BusyTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ms busy over {} intervals",
            self.busy_ns as f64 / 1e6,
            self.intervals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_busy_time() {
        let mut t = BusyTracker::new();
        t.add_busy_ns(100);
        t.add_busy_ns(300);
        assert_eq!(t.busy_ns(), 400);
        assert_eq!(t.intervals(), 2);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut t = BusyTracker::new();
        t.add_busy_ns(2_000);
        assert_eq!(t.utilization(1_000), 1.0);
    }

    #[test]
    fn zero_window_is_zero_not_nan() {
        let t = BusyTracker::new();
        assert_eq!(t.utilization(0), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = BusyTracker::new();
        t.add_busy_ns(5);
        t.reset();
        assert_eq!(t.busy_ns(), 0);
        assert_eq!(t.intervals(), 0);
    }

    #[test]
    fn remove_refunds_busy_time_saturating() {
        let mut t = BusyTracker::new();
        t.add_busy_ns(1_000);
        t.remove_busy_ns(400);
        assert_eq!(t.busy_ns(), 600);
        assert_eq!(t.intervals(), 1, "refunds keep the interval count");
        t.remove_busy_ns(10_000);
        assert_eq!(t.busy_ns(), 0, "refund saturates at zero");
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut t = BusyTracker::new();
        t.add_busy_ns(u64::MAX);
        t.add_busy_ns(10);
        assert_eq!(t.busy_ns(), u64::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        let t = BusyTracker::new();
        assert!(t.to_string().contains("intervals"));
    }
}
