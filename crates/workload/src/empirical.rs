//! Online estimation of the batch-size PMF from served queries.
//!
//! §IV-B: the batch-size distribution "can readily be generated in the
//! inference server by collecting the number of input batch sizes serviced
//! within a given period of time, which PARIS can utilize as a proxy for the
//! batch size distribution PDF". This type is that collector — it also
//! powers the online-repartitioning example.

use std::fmt;

use crate::dist::{BatchDistribution, BuildDistributionError};

/// A histogram of observed batch sizes that can be snapshotted into a
/// [`BatchDistribution`] for (re)running PARIS.
///
/// # Examples
///
/// ```
/// use inference_workload::EmpiricalBatchPmf;
///
/// let mut hist = EmpiricalBatchPmf::new(32);
/// for b in [1, 2, 2, 4, 4, 4, 8] {
///     hist.observe(b);
/// }
/// assert_eq!(hist.observations(), 7);
/// let dist = hist.to_distribution()?;
/// assert!(dist.pmf(4) > dist.pmf(1));
/// # Ok::<(), inference_workload::BuildDistributionError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmpiricalBatchPmf {
    counts: Vec<u64>,
    observations: u64,
    clamped: u64,
}

impl EmpiricalBatchPmf {
    /// Creates a collector for batch sizes `1..=max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0.
    #[must_use]
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        EmpiricalBatchPmf {
            counts: vec![0; max_batch],
            observations: 0,
            clamped: 0,
        }
    }

    /// Records one served query of the given batch size. Sizes above the
    /// collector's range are clamped into the top bucket (and counted, see
    /// [`clamped`](Self::clamped)); zero-sized batches are ignored.
    pub fn observe(&mut self, batch: usize) {
        if batch == 0 {
            return;
        }
        let idx = if batch > self.counts.len() {
            self.clamped += 1;
            self.counts.len() - 1
        } else {
            batch - 1
        };
        self.counts[idx] += 1;
        self.observations += 1;
    }

    /// Total queries observed.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The largest batch size the collector tracks.
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.counts.len()
    }

    /// Queries whose batch exceeded the collector's range.
    #[must_use]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Raw count for one batch size.
    #[must_use]
    pub fn count(&self, batch: usize) -> u64 {
        if batch == 0 {
            return 0;
        }
        self.counts.get(batch - 1).copied().unwrap_or(0)
    }

    /// Resets all counts (e.g. at the start of a new observation window).
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.observations = 0;
        self.clamped = 0;
    }

    /// Snapshots the histogram into a normalized [`BatchDistribution`].
    ///
    /// # Errors
    ///
    /// Returns an error if nothing has been observed yet.
    pub fn to_distribution(&self) -> Result<BatchDistribution, BuildDistributionError> {
        BatchDistribution::from_pmf(self.counts.iter().map(|&c| c as f64).collect())
    }
}

impl fmt::Display for EmpiricalBatchPmf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "empirical batch pmf ({} observations over 1..={})",
            self.observations,
            self.counts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::BatchDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_the_generating_distribution() {
        let truth = BatchDistribution::paper_default();
        let mut hist = EmpiricalBatchPmf::new(32);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..100_000 {
            hist.observe(truth.sample(&mut rng));
        }
        let est = hist.to_distribution().unwrap();
        for b in 1..=32 {
            assert!(
                (est.pmf(b) - truth.pmf(b)).abs() < 0.01,
                "batch {b}: est {:.4} vs truth {:.4}",
                est.pmf(b),
                truth.pmf(b)
            );
        }
    }

    #[test]
    fn clamps_out_of_range_batches() {
        let mut hist = EmpiricalBatchPmf::new(4);
        hist.observe(100);
        assert_eq!(hist.count(4), 1);
        assert_eq!(hist.clamped(), 1);
        assert_eq!(hist.observations(), 1);
    }

    #[test]
    fn ignores_zero_batches() {
        let mut hist = EmpiricalBatchPmf::new(4);
        hist.observe(0);
        assert_eq!(hist.observations(), 0);
    }

    #[test]
    fn empty_histogram_cannot_become_distribution() {
        let hist = EmpiricalBatchPmf::new(8);
        assert!(hist.to_distribution().is_err());
    }

    #[test]
    fn reset_clears_counts() {
        let mut hist = EmpiricalBatchPmf::new(8);
        hist.observe(3);
        hist.reset();
        assert_eq!(hist.observations(), 0);
        assert_eq!(hist.count(3), 0);
    }

    #[test]
    fn display_reports_observation_count() {
        let mut hist = EmpiricalBatchPmf::new(8);
        hist.observe(2);
        assert!(hist.to_string().contains("1 observations"));
    }
}
