//! Poisson query-arrival process (MLPerf's recommended arrival model,
//! paper §V).

use rand::Rng;

/// A homogeneous Poisson arrival process with exponential inter-arrival
/// times.
///
/// # Examples
///
/// ```
/// use inference_workload::PoissonProcess;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let process = PoissonProcess::new(100.0); // 100 queries/sec
/// let mut rng = StdRng::seed_from_u64(1);
/// let gap = process.sample_interarrival_s(&mut rng);
/// assert!(gap > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonProcess {
    rate_qps: f64,
}

impl PoissonProcess {
    /// Creates a process with the given mean arrival rate in queries per
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_qps` is not positive and finite.
    #[must_use]
    pub fn new(rate_qps: f64) -> Self {
        assert!(
            rate_qps.is_finite() && rate_qps > 0.0,
            "arrival rate must be positive and finite"
        );
        PoissonProcess { rate_qps }
    }

    /// Mean arrival rate, queries per second.
    #[must_use]
    pub fn rate_qps(&self) -> f64 {
        self.rate_qps
    }

    /// Draws one exponential inter-arrival gap, in seconds.
    pub fn sample_interarrival_s<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-transform: -ln(1-U)/λ with U ∈ [0,1). 1-U ∈ (0,1] avoids
        // ln(0).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.rate_qps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_interarrival_is_reciprocal_rate() {
        let p = PoissonProcess::new(250.0);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.sample_interarrival_s(&mut rng)).sum();
        let mean = total / n as f64;
        assert!(
            (mean - 1.0 / 250.0).abs() / (1.0 / 250.0) < 0.02,
            "mean gap {mean:.6}"
        );
    }

    #[test]
    fn gaps_are_positive_and_finite() {
        let p = PoissonProcess::new(10.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let g = p.sample_interarrival_s(&mut rng);
            assert!(g.is_finite() && g >= 0.0);
        }
    }

    #[test]
    fn exponential_memoryless_cv_close_to_one() {
        // Coefficient of variation of an exponential is 1.
        let p = PoissonProcess::new(50.0);
        let mut rng = StdRng::seed_from_u64(17);
        let n = 100_000;
        let gaps: Vec<f64> = (0..n).map(|_| p.sample_interarrival_s(&mut rng)).collect();
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.03, "cv {cv}");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_rate_panics() {
        let _ = PoissonProcess::new(0.0);
    }
}
