//! Discretized batch-size distributions.
//!
//! Prior work (and §II-A/§V of the paper) observes that inference query
//! sizes follow a **log-normal** distribution; the evaluation uses batch
//! sizes 1–32 with a default variance and sweeps σ ∈ {0.3, 0.9, 1.8} and
//! the max batch ∈ {16, 32, 64} in the sensitivity study.

use std::fmt;

use rand::Rng;

/// Error returned when constructing a [`BatchDistribution`] from invalid
/// probability masses.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildDistributionError {
    reason: String,
}

impl fmt::Display for BuildDistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid batch distribution: {}", self.reason)
    }
}

impl std::error::Error for BuildDistributionError {}

/// A probability mass function over batch sizes `1..=max_batch`.
///
/// This is the `Dist[]` input of PARIS (Algorithm 1, line 3): the likelihood
/// that an arriving query carries each batch size.
///
/// # Examples
///
/// ```
/// use inference_workload::BatchDistribution;
///
/// let dist = BatchDistribution::log_normal(32, 0.9);
/// let total: f64 = (1..=32).map(|b| dist.pmf(b)).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// // Log-normal mass is concentrated at small-to-medium batches.
/// assert!(dist.pmf(4) > dist.pmf(32));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDistribution {
    /// `pmf[i]` is the probability of batch size `i + 1`.
    pmf: Vec<f64>,
    /// Cumulative distribution for inverse-transform sampling.
    cdf: Vec<f64>,
}

impl BatchDistribution {
    /// The paper's default log-normal σ.
    pub const DEFAULT_SIGMA: f64 = 0.9;
    /// The paper's default maximum batch size.
    pub const DEFAULT_MAX_BATCH: usize = 32;

    /// The evaluation's default distribution: log-normal over 1..=32 with
    /// σ = 0.9.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::log_normal(Self::DEFAULT_MAX_BATCH, Self::DEFAULT_SIGMA)
    }

    /// A log-normal distribution over `1..=max_batch` with the given shape
    /// parameter σ and the location μ chosen so the median batch is 4
    /// (matching at-scale web-service observations).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0 or σ is not positive and finite.
    #[must_use]
    pub fn log_normal(max_batch: usize, sigma: f64) -> Self {
        Self::log_normal_with_median(max_batch, sigma, 4.0)
    }

    /// A log-normal distribution with an explicit median batch size.
    ///
    /// The continuous log-normal is discretized by integrating each unit
    /// bin (with the first and last bins absorbing the tails), then
    /// renormalizing.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0, σ is not positive and finite, or the
    /// median is not positive.
    #[must_use]
    pub fn log_normal_with_median(max_batch: usize, sigma: f64, median: f64) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive and finite"
        );
        assert!(median > 0.0, "median must be positive");
        let mu = median.ln();
        let cdf_at = |x: f64| normal_cdf((x.ln() - mu) / sigma);
        let mut pmf = Vec::with_capacity(max_batch);
        for b in 1..=max_batch {
            let lo = if b == 1 { 0.0 } else { cdf_at(b as f64 - 0.5) };
            let hi = if b == max_batch {
                1.0
            } else {
                cdf_at(b as f64 + 0.5)
            };
            pmf.push((hi - lo).max(0.0));
        }
        Self::from_pmf(pmf).expect("log-normal discretization is always valid")
    }

    /// Builds a distribution from raw (not necessarily normalized) masses
    /// for batch sizes `1..=masses.len()`.
    ///
    /// # Errors
    ///
    /// Returns an error if `masses` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn from_pmf(masses: Vec<f64>) -> Result<Self, BuildDistributionError> {
        if masses.is_empty() {
            return Err(BuildDistributionError {
                reason: "no batch sizes given".to_owned(),
            });
        }
        if masses.iter().any(|&m| !m.is_finite() || m < 0.0) {
            return Err(BuildDistributionError {
                reason: "masses must be finite and non-negative".to_owned(),
            });
        }
        let total: f64 = masses.iter().sum();
        if total <= 0.0 {
            return Err(BuildDistributionError {
                reason: "masses sum to zero".to_owned(),
            });
        }
        let pmf: Vec<f64> = masses.iter().map(|m| m / total).collect();
        let mut cdf = Vec::with_capacity(pmf.len());
        let mut acc = 0.0;
        for &p in &pmf {
            acc += p;
            cdf.push(acc);
        }
        // Guard the tail against floating-point shortfall.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(BatchDistribution { pmf, cdf })
    }

    /// A uniform distribution over `1..=max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0.
    #[must_use]
    pub fn uniform(max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        Self::from_pmf(vec![1.0; max_batch]).expect("uniform masses are valid")
    }

    /// A distribution that always produces `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is 0.
    #[must_use]
    pub fn constant(batch: usize) -> Self {
        assert!(batch >= 1, "batch must be at least 1");
        let mut masses = vec![0.0; batch];
        masses[batch - 1] = 1.0;
        Self::from_pmf(masses).expect("constant mass is valid")
    }

    /// Probability of batch size `b` (zero outside `1..=max_batch`).
    #[must_use]
    pub fn pmf(&self, b: usize) -> f64 {
        if b == 0 {
            return 0.0;
        }
        self.pmf.get(b - 1).copied().unwrap_or(0.0)
    }

    /// The largest batch size with non-zero support range.
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.pmf.len()
    }

    /// Expected batch size.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, &p)| (i + 1) as f64 * p)
            .sum()
    }

    /// Draws one batch size by inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => (i + 1).min(self.pmf.len()),
        }
    }
}

impl fmt::Display for BatchDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch pmf over 1..={} (mean {:.2})",
            self.max_batch(),
            self.mean()
        )
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (formula 7.1.26, |error| < 1.5e-7 — ample for workload shaping).
fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn log_normal_sums_to_one() {
        for (max, sigma) in [(16, 0.3), (32, 0.9), (64, 1.8)] {
            let d = BatchDistribution::log_normal(max, sigma);
            let total: f64 = (1..=max).map(|b| d.pmf(b)).sum();
            assert!((total - 1.0).abs() < 1e-9, "σ={sigma}: total {total}");
        }
    }

    #[test]
    fn larger_sigma_means_heavier_tail() {
        let narrow = BatchDistribution::log_normal(32, 0.3);
        let wide = BatchDistribution::log_normal(32, 1.8);
        let tail = |d: &BatchDistribution| (17..=32).map(|b| d.pmf(b)).sum::<f64>();
        assert!(tail(&wide) > 4.0 * tail(&narrow));
    }

    #[test]
    fn median_lands_near_four() {
        let d = BatchDistribution::paper_default();
        let below: f64 = (1..=4).map(|b| d.pmf(b)).sum();
        assert!((0.35..0.75).contains(&below), "P(b≤4) = {below}");
    }

    #[test]
    fn sampling_matches_pmf() {
        let d = BatchDistribution::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut counts = vec![0usize; d.max_batch()];
        for _ in 0..n {
            counts[d.sample(&mut rng) - 1] += 1;
        }
        for b in 1..=d.max_batch() {
            let expected = d.pmf(b);
            let got = counts[b - 1] as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "batch {b}: sampled {got:.4} vs pmf {expected:.4}"
            );
        }
    }

    #[test]
    fn sample_always_in_support() {
        let d = BatchDistribution::log_normal(8, 1.8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let b = d.sample(&mut rng);
            assert!((1..=8).contains(&b));
        }
    }

    #[test]
    fn constant_distribution() {
        let d = BatchDistribution::constant(5);
        assert_eq!(d.pmf(5), 1.0);
        assert_eq!(d.pmf(4), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 5);
        assert_eq!(d.mean(), 5.0);
    }

    #[test]
    fn uniform_distribution() {
        let d = BatchDistribution::uniform(4);
        for b in 1..=4 {
            assert!((d.pmf(b) - 0.25).abs() < 1e-12);
        }
        assert!((d.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn from_pmf_normalizes() {
        let d = BatchDistribution::from_pmf(vec![2.0, 2.0]).unwrap();
        assert!((d.pmf(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_pmf_rejects_garbage() {
        assert!(BatchDistribution::from_pmf(vec![]).is_err());
        assert!(BatchDistribution::from_pmf(vec![-1.0, 2.0]).is_err());
        assert!(BatchDistribution::from_pmf(vec![f64::NAN]).is_err());
        assert!(BatchDistribution::from_pmf(vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn pmf_outside_support_is_zero() {
        let d = BatchDistribution::uniform(4);
        assert_eq!(d.pmf(0), 0.0);
        assert_eq!(d.pmf(5), 0.0);
    }

    #[test]
    fn erf_reference_values() {
        // erf(0)=0, erf(1)≈0.8427, erf(-1)≈-0.8427, erf(2)≈0.9953.
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-5);
    }
}
