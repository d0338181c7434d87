//! Worst-window tail latency: the size of a transient latency spike.
//!
//! A whole-run percentile hides a short outage — a mid-run MIG reslice
//! that stalls queries for half a second barely moves a ten-second run's
//! p99. Slicing the run into fixed tumbling windows and taking the **worst
//! window's** percentile exposes exactly that spike, which is the metric a
//! rolling reconfiguration is designed to shrink (the `reconfig_dip` field
//! of the trajectory benches).

use crate::LatencyHistogram;

/// Tumbling-window tail-latency tracker: latencies are bucketed by their
/// *completion* timestamp into fixed windows, each window holding a
/// [`LatencyHistogram`] over the octaves its samples span (an empty window
/// holds no counts), and the worst window's percentile is the spike
/// statistic. Memory is O(run length / window), independent of the query
/// count.
///
/// # Examples
///
/// ```
/// use server_metrics::WindowedTail;
///
/// let mut tail = WindowedTail::new(1_000_000_000); // 1 s windows
/// tail.record(100, 5_000_000);                     // calm window: 5 ms
/// tail.record(1_500_000_000, 80_000_000);          // spike window: 80 ms
/// assert!(tail.worst_percentile_ms(0.99, 1) > 79.0);
/// assert_eq!(tail.windows(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedTail {
    window_ns: u64,
    histograms: Vec<LatencyHistogram>,
}

impl WindowedTail {
    /// Creates a tracker with the given tumbling-window width.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    #[must_use]
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window must be positive");
        WindowedTail {
            window_ns,
            histograms: Vec::new(),
        }
    }

    /// The configured window width, nanoseconds.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Records one completion: `completed_ns` picks the window,
    /// `latency_ns` is the sample.
    pub fn record(&mut self, completed_ns: u64, latency_ns: u64) {
        let idx = (completed_ns / self.window_ns) as usize;
        if idx >= self.histograms.len() {
            self.histograms.resize_with(idx + 1, LatencyHistogram::new);
        }
        self.histograms[idx].record(latency_ns);
    }

    /// Number of **non-empty** windows so far — windows that received at
    /// least one sample. Interior windows a sparse run skipped over cost
    /// an empty histogram each but are not counted.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.histograms.iter().filter(|h| !h.is_empty()).count()
    }

    /// The worst window's `p`-percentile latency in milliseconds, over
    /// windows holding at least `min_count` samples (0 when nothing
    /// qualifies). Bucket-accurate, like every histogram percentile.
    #[must_use]
    pub fn worst_percentile_ms(&self, p: f64, min_count: u64) -> f64 {
        self.histograms
            .iter()
            .filter(|h| h.count() >= min_count.max(1))
            .map(|h| h.percentile_ms(p))
            .fold(0.0, f64::max)
    }

    /// The worst window's p99 in milliseconds — the headline spike
    /// statistic of the trajectory benches' `reconfig_dip`.
    #[must_use]
    pub fn worst_p99_ms(&self) -> f64 {
        self.worst_percentile_ms(0.99, 1)
    }

    /// Whether window `idx` overlaps any of the (inclusive, nanosecond)
    /// `[start, end]` intervals.
    fn overlaps(&self, idx: usize, intervals: &[(u64, u64)]) -> bool {
        let win_start = idx as u64 * self.window_ns;
        let win_end = win_start + self.window_ns;
        intervals
            .iter()
            .any(|&(start, end)| win_start <= end && start < win_end)
    }

    /// The worst `p`-percentile (milliseconds) over the **degraded**
    /// windows — those overlapping any of the given `[start_ns, end_ns]`
    /// intervals (an outage, a recovery transition) — holding at least
    /// `min_count` samples. 0 when nothing qualifies.
    ///
    /// This is the fault benches' recovery-dip statistic: the spike a
    /// failure causes lives in the windows around its outage, and the
    /// whole-run worst window would conflate it with unrelated load spikes.
    #[must_use]
    pub fn worst_percentile_ms_within(
        &self,
        p: f64,
        min_count: u64,
        intervals: &[(u64, u64)],
    ) -> f64 {
        self.worst_percentile_ms_split(p, min_count, intervals, true)
    }

    /// The complement of [`worst_percentile_ms_within`]: the worst
    /// `p`-percentile over the **healthy** windows, i.e. those overlapping
    /// none of the intervals. The degraded/healthy pair quantifies how much
    /// of a run's tail a fault is responsible for.
    ///
    /// [`worst_percentile_ms_within`]: Self::worst_percentile_ms_within
    #[must_use]
    pub fn worst_percentile_ms_outside(
        &self,
        p: f64,
        min_count: u64,
        intervals: &[(u64, u64)],
    ) -> f64 {
        self.worst_percentile_ms_split(p, min_count, intervals, false)
    }

    /// The shared body of the degraded/healthy pair: worst window
    /// percentile over the windows whose interval-overlap equals
    /// `overlapping`.
    fn worst_percentile_ms_split(
        &self,
        p: f64,
        min_count: u64,
        intervals: &[(u64, u64)],
        overlapping: bool,
    ) -> f64 {
        self.histograms
            .iter()
            .enumerate()
            .filter(|&(idx, h)| {
                h.count() >= min_count.max(1) && self.overlaps(idx, intervals) == overlapping
            })
            .map(|(_, h)| h.percentile_ms(p))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_dominates_the_worst_window() {
        let mut t = WindowedTail::new(1_000);
        for i in 0..100 {
            t.record(i * 10, 50); // first window: all 50 ns
        }
        for i in 0..10 {
            t.record(5_000 + i, 9_000); // later window: 9 µs spike
        }
        let worst = t.worst_percentile_ms(0.99, 1);
        assert!(worst > 0.0089 && worst < 0.0095, "{worst}");
        assert_eq!(t.windows(), 2);
    }

    #[test]
    fn min_count_filters_thin_windows() {
        let mut t = WindowedTail::new(1_000);
        for i in 0..100 {
            t.record(i, 100);
        }
        t.record(9_500, 1_000_000); // a single-sample outlier window
        assert!(t.worst_percentile_ms(0.99, 1) > 0.9);
        assert!(t.worst_percentile_ms(0.99, 2) < 0.001);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = WindowedTail::new(1_000_000);
        assert_eq!(t.worst_p99_ms(), 0.0);
        assert_eq!(t.windows(), 0);
    }

    #[test]
    fn interior_gaps_cost_only_empty_histograms() {
        let mut t = WindowedTail::new(1_000);
        t.record(500, 10);
        t.record(1_000_500, 20); // 1000 windows later
        assert_eq!(t.windows(), 2, "empty interior windows don't count");
        assert!(t.worst_p99_ms() > 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = WindowedTail::new(0);
    }

    #[test]
    fn degraded_windows_split_from_healthy_ones() {
        let mut t = WindowedTail::new(1_000);
        for i in 0..50 {
            t.record(i * 10, 100); // window 0: healthy, 100 ns
        }
        for i in 0..50 {
            t.record(2_000 + i * 10, 50_000); // window 2: outage spike, 50 µs
        }
        for i in 0..50 {
            t.record(5_000 + i * 10, 200); // window 5: healthy again
        }
        let outage = [(2_100u64, 2_900u64)];
        let degraded = t.worst_percentile_ms_within(0.99, 1, &outage);
        let healthy = t.worst_percentile_ms_outside(0.99, 1, &outage);
        assert!(degraded > 0.04, "{degraded}");
        assert!(healthy < 0.001, "{healthy}");
        // An interval touching no populated window yields zero.
        assert_eq!(
            t.worst_percentile_ms_within(0.99, 1, &[(10_000, 11_000)]),
            0.0
        );
        // No interval at all: everything is healthy.
        assert_eq!(t.worst_percentile_ms_within(0.99, 1, &[]), 0.0);
        assert_eq!(
            t.worst_percentile_ms_outside(0.99, 1, &[]),
            t.worst_p99_ms()
        );
    }
}
