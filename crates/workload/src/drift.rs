//! Windowed drift detection over a multi-model arrival stream.
//!
//! The online re-planning loop needs a *trigger*: a cheap, streaming
//! estimator that notices when the traffic a plan was built for no longer
//! matches the traffic being served. [`DriftDetector`] tumbles fixed
//! simulated-time windows over the arrivals; at every window close it
//! compares each model's arrival rate and mean batch size against the
//! baseline captured at the last (re)plan, and reports drift when either
//! moves by more than ±50 %. The closed window's batch histogram
//! ([`EmpiricalBatchPmf`] per model) is retained so the re-planner can
//! feed PARIS the *observed* distribution, exactly as §IV-B suggests a
//! production server would.
//!
//! Updates are amortized O(1): the per-arrival path is counter bumps, and
//! the O(models) estimate vectors are built (allocating) only when a
//! window closes — once per window, not per query.

use crate::dist::BatchDistribution;
use crate::empirical::EmpiricalBatchPmf;

/// Relative change in per-model arrival rate or mean batch that counts as
/// drift: ±50 %.
const REL_THRESHOLD: f64 = 0.5;

/// Tuning of the [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDetectorConfig {
    /// Width of the tumbling observation window, nanoseconds.
    pub window_ns: u64,
    /// Minimum arrivals in a window (across all models) before its
    /// estimates are trusted; sparser windows never trigger. A model's
    /// *mean-batch* comparison additionally requires the model itself to
    /// have this many arrivals in the window (small samples make the mean
    /// estimate far too noisy to act on).
    pub min_observations: u64,
}

impl DriftDetectorConfig {
    /// A detector with the given window in seconds, a ±50 % threshold and
    /// a 50-arrival trust floor.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not positive and finite.
    #[must_use]
    pub fn new(window_s: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "window must be positive"
        );
        DriftDetectorConfig {
            window_ns: (window_s * 1e9).round() as u64,
            min_observations: 50,
        }
    }

    /// Overrides the minimum-arrivals trust floor.
    #[must_use]
    pub fn with_min_observations(mut self, n: u64) -> Self {
        self.min_observations = n;
        self
    }
}

/// What a closed window looked like when drift was flagged.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Simulated instant of the window close that triggered.
    pub at_ns: u64,
    /// Per-model arrival rate over the window, queries/second.
    pub rates_qps: Vec<f64>,
    /// Per-model mean batch size over the window (0 for silent models).
    pub mean_batch: Vec<f64>,
}

/// Streaming per-model rate/batch-mix estimator with baseline comparison —
/// the trigger of the online re-planning loop.
///
/// # Examples
///
/// ```
/// use inference_workload::{DriftDetector, DriftDetectorConfig};
///
/// let cfg = DriftDetectorConfig::new(0.1).with_min_observations(10);
/// let mut det = DriftDetector::new(1, 32, cfg);
/// // Steady 1000 q/s of batch-4 for two windows: baseline forms, no drift.
/// for i in 0..200u64 {
///     assert!(det.observe(0, i * 1_000_000, 4).is_none());
/// }
/// // Traffic collapses to 100 q/s of batch-16: flagged within a window.
/// let mut drift = None;
/// for i in 0..40u64 {
///     if let Some(d) = det.observe(0, 200_000_000 + i * 10_000_000, 16) {
///         drift = Some(d);
///         break;
///     }
/// }
/// let drift = drift.expect("rate and mix both moved far past 50 %");
/// assert!(drift.rates_qps[0] < 500.0);
/// ```
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftDetectorConfig,
    window_end_ns: u64,
    counts: Vec<u64>,
    batch_sums: Vec<u64>,
    pmfs: Vec<EmpiricalBatchPmf>,
    /// Last *closed* trusted window, for the re-planner.
    last_rates: Vec<f64>,
    last_counts: Vec<u64>,
    last_batch_sums: Vec<u64>,
    last_pmfs: Vec<EmpiricalBatchPmf>,
    /// The baseline *epoch*: every trusted, non-drifted window since the
    /// last (re)plan folds into these running totals, so the baseline
    /// estimate sharpens over time instead of freezing one window's
    /// sampling noise.
    epoch_windows: u64,
    epoch_counts: Vec<u64>,
    epoch_batch_sums: Vec<u64>,
}

impl DriftDetector {
    /// Creates a detector for `models` models with batch support
    /// `1..=max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `models` or `max_batch` is zero.
    #[must_use]
    pub fn new(models: usize, max_batch: usize, cfg: DriftDetectorConfig) -> Self {
        assert!(models >= 1, "need at least one model");
        DriftDetector {
            cfg,
            window_end_ns: cfg.window_ns,
            counts: vec![0; models],
            batch_sums: vec![0; models],
            pmfs: (0..models)
                .map(|_| EmpiricalBatchPmf::new(max_batch))
                .collect(),
            last_rates: vec![0.0; models],
            last_counts: vec![0; models],
            last_batch_sums: vec![0; models],
            last_pmfs: (0..models)
                .map(|_| EmpiricalBatchPmf::new(max_batch))
                .collect(),
            epoch_windows: 0,
            epoch_counts: vec![0; models],
            epoch_batch_sums: vec![0; models],
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DriftDetectorConfig {
        &self.cfg
    }

    /// Records one arrival. Returns a [`DriftReport`] when this arrival
    /// closed a window whose estimates drifted past the threshold.
    ///
    /// Arrival times must be non-decreasing (they come off the simulation
    /// clock).
    pub fn observe(&mut self, model: usize, arrival_ns: u64, batch: usize) -> Option<DriftReport> {
        let mut report = None;
        while arrival_ns >= self.window_end_ns {
            if let Some(r) = self.close_window() {
                report = Some(r);
            }
        }
        self.counts[model] += 1;
        self.batch_sums[model] += batch as u64;
        self.pmfs[model].observe(batch);
        report
    }

    /// Closes the current window: promotes its estimates to "last window",
    /// compares against the baseline (or installs one), and opens the next
    /// window. Returns a report if drift was detected.
    fn close_window(&mut self) -> Option<DriftReport> {
        let at_ns = self.window_end_ns;
        let window_s = self.cfg.window_ns as f64 / 1e9;
        let total: u64 = self.counts.iter().sum();
        let rates: Vec<f64> = self.counts.iter().map(|&c| c as f64 / window_s).collect();
        let means: Vec<f64> = self
            .counts
            .iter()
            .zip(&self.batch_sums)
            .map(|(&c, &s)| if c == 0 { 0.0 } else { s as f64 / c as f64 })
            .collect();

        let mut drifted = false;
        if total >= self.cfg.min_observations {
            if self.epoch_windows > 0 {
                let t = REL_THRESHOLD;
                let epoch_s = self.epoch_windows as f64 * window_s;
                // Rate drift must clear the relative threshold AND be
                // statistically significant: a window expecting n Poisson
                // arrivals fluctuates by √n, so a 4σ guard keeps low-rate
                // models from thrashing the re-planner on sampling noise.
                let rate_drift =
                    self.epoch_counts
                        .iter()
                        .zip(&self.counts)
                        .any(|(&epoch_c, &c)| {
                            let base = epoch_c as f64 / epoch_s;
                            let expected = base * window_s;
                            (c as f64 / window_s - base).abs() > t * base.max(1.0)
                                && (c as f64 - expected).abs() > 4.0 * expected.max(1.0).sqrt()
                        });
                // Mean-batch drift only counts for models with enough
                // samples in the window to estimate a mean at all.
                let mix_drift = self
                    .epoch_counts
                    .iter()
                    .zip(&self.epoch_batch_sums)
                    .zip(self.counts.iter().zip(&means))
                    .any(|((&ec, &es), (&c, &m))| {
                        let base = if ec == 0 { 0.0 } else { es as f64 / ec as f64 };
                        c >= self.cfg.min_observations && (m - base).abs() > t * base.max(1.0)
                    });
                drifted = rate_drift || mix_drift;
            }
            self.last_rates = rates.clone();
            self.last_counts.copy_from_slice(&self.counts);
            self.last_batch_sums.copy_from_slice(&self.batch_sums);
            for (last, cur) in self.last_pmfs.iter_mut().zip(&mut self.pmfs) {
                std::mem::swap(last, cur);
            }
            if !drifted {
                // Fold the window into the baseline epoch: the estimate of
                // "normal" sharpens with every quiet window. Drifted
                // windows are kept out — they describe the new regime.
                self.epoch_windows += 1;
                for (e, &c) in self.epoch_counts.iter_mut().zip(&self.counts) {
                    *e += c;
                }
                for (e, &s) in self.epoch_batch_sums.iter_mut().zip(&self.batch_sums) {
                    *e += s;
                }
            }
        }

        // Open the next window.
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.batch_sums.iter_mut().for_each(|s| *s = 0);
        self.pmfs.iter_mut().for_each(EmpiricalBatchPmf::reset);
        self.window_end_ns += self.cfg.window_ns;

        drifted.then(|| DriftReport {
            at_ns,
            rates_qps: self.last_rates.clone(),
            mean_batch: means,
        })
    }

    /// Per-model arrival rates of the last trusted window, queries/second.
    #[must_use]
    pub fn observed_rates_qps(&self) -> &[f64] {
        &self.last_rates
    }

    /// The batch distribution model `m` served in the last trusted window,
    /// if it received any queries.
    #[must_use]
    pub fn observed_distribution(&self, model: usize) -> Option<BatchDistribution> {
        self.last_pmfs[model].to_distribution().ok()
    }

    /// Accepts the current traffic as the new normal: the baseline epoch
    /// restarts from the last trusted window. Call after acting on a
    /// [`DriftReport`] (re-planning), otherwise every subsequent window
    /// re-triggers against the stale baseline.
    pub fn rebaseline(&mut self) {
        self.epoch_windows = 1;
        self.epoch_counts.copy_from_slice(&self.last_counts);
        self.epoch_batch_sums.copy_from_slice(&self.last_batch_sums);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(window_s: f64) -> DriftDetector {
        DriftDetector::new(
            2,
            32,
            DriftDetectorConfig::new(window_s).with_min_observations(10),
        )
    }

    /// Feeds `per_window` evenly spaced arrivals per window for `windows`
    /// windows, returning the first drift report.
    fn feed(
        d: &mut DriftDetector,
        start_ns: u64,
        windows: u64,
        per_window: u64,
        model: usize,
        batch: usize,
    ) -> Option<DriftReport> {
        let window_ns = d.config().window_ns;
        let mut report = None;
        for w in 0..windows {
            for i in 0..per_window {
                let t = start_ns + w * window_ns + i * (window_ns / per_window);
                if let Some(r) = d.observe(model, t, batch) {
                    report.get_or_insert(r);
                }
            }
        }
        report
    }

    #[test]
    fn steady_traffic_never_triggers() {
        let mut d = det(0.1);
        assert!(feed(&mut d, 0, 20, 100, 0, 4).is_none());
    }

    #[test]
    fn rate_collapse_triggers() {
        let mut d = det(0.1);
        let w = d.config().window_ns;
        assert!(feed(&mut d, 0, 5, 100, 0, 4).is_none());
        let r = feed(&mut d, 5 * w, 3, 20, 0, 4);
        let r = r.expect("5x rate drop crosses the 50% threshold");
        assert!(r.rates_qps[0] < 500.0, "observed {:?}", r.rates_qps);
    }

    #[test]
    fn batch_mix_shift_triggers_at_constant_rate() {
        let mut d = det(0.1);
        let w = d.config().window_ns;
        assert!(feed(&mut d, 0, 5, 100, 0, 2).is_none());
        let r = feed(&mut d, 5 * w, 3, 100, 0, 16);
        assert!(r.is_some(), "2 -> 16 mean batch is drift");
    }

    #[test]
    fn rebaseline_accepts_the_new_traffic() {
        let mut d = det(0.1);
        let w = d.config().window_ns;
        feed(&mut d, 0, 5, 100, 0, 2);
        let r = feed(&mut d, 5 * w, 3, 100, 0, 16);
        assert!(r.is_some());
        d.rebaseline();
        // Same new traffic again: no further drift.
        assert!(feed(&mut d, 8 * w, 5, 100, 0, 16).is_none());
    }

    #[test]
    fn sparse_windows_are_not_trusted() {
        let mut d = det(0.1);
        let w = d.config().window_ns;
        assert!(feed(&mut d, 0, 5, 100, 0, 4).is_none());
        // 5 arrivals/window is under the 10-arrival floor: ignored even
        // though the rate collapsed 20x.
        assert!(feed(&mut d, 5 * w, 5, 5, 0, 4).is_none());
    }

    #[test]
    fn observed_distribution_reflects_last_window() {
        let mut d = det(0.1);
        feed(&mut d, 0, 2, 50, 1, 8);
        let dist = d.observed_distribution(1).expect("model 1 was observed");
        assert!(dist.pmf(8) > 0.99);
        assert!(d.observed_distribution(0).is_none(), "model 0 silent");
        assert!(d.observed_rates_qps()[1] > 0.0);
    }
}
