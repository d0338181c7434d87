//! Deterministic query traces: the frontend input of the inference server.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrivals::PoissonProcess;
use crate::dist::BatchDistribution;

/// One inference request as it arrives at the server frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    /// Arrival time in nanoseconds since trace start.
    pub arrival_ns: u64,
    /// Input batch size carried by the query.
    pub batch: usize,
}

/// Generates reproducible query traces from a Poisson arrival process and a
/// batch-size distribution.
///
/// # Examples
///
/// ```
/// use inference_workload::{BatchDistribution, TraceGenerator};
///
/// let gen = TraceGenerator::new(
///     200.0,                                // queries/sec
///     BatchDistribution::paper_default(),   // log-normal batches 1..=32
///     42,                                   // seed
/// );
/// let trace = gen.generate_for(2.0); // two simulated seconds
/// assert!(!trace.is_empty());
/// assert!(trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    arrivals: PoissonProcess,
    batches: BatchDistribution,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator with the given arrival rate, batch distribution
    /// and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate_qps` is not positive and finite.
    #[must_use]
    pub fn new(rate_qps: f64, batches: BatchDistribution, seed: u64) -> Self {
        TraceGenerator {
            arrivals: PoissonProcess::new(rate_qps),
            batches,
            seed,
        }
    }

    /// The mean arrival rate, queries/second.
    #[must_use]
    pub fn rate_qps(&self) -> f64 {
        self.arrivals.rate_qps()
    }

    /// Generates all queries arriving within `duration_s` simulated seconds.
    ///
    /// The same generator always produces the same trace (the RNG is
    /// re-seeded per call).
    #[must_use]
    pub fn generate_for(&self, duration_s: f64) -> Vec<QuerySpec> {
        self.stream_for(duration_s).collect()
    }

    /// Generates exactly `count` queries.
    #[must_use]
    pub fn generate_count(&self, count: usize) -> Vec<QuerySpec> {
        self.stream_count(count).collect()
    }

    /// Streams the queries of [`generate_for`](Self::generate_for) one at a
    /// time without materializing the trace — O(1) memory however long the
    /// window. The stream yields exactly the same sequence as
    /// `generate_for(duration_s)` (the RNG is re-seeded per call).
    ///
    /// # Examples
    ///
    /// ```
    /// use inference_workload::{BatchDistribution, TraceGenerator};
    ///
    /// let gen = TraceGenerator::new(400.0, BatchDistribution::paper_default(), 7);
    /// // An hour of simulated arrivals, never materialized: the stream is
    /// // what `InferenceServer::run_stream_sla` consumes for O(1)-memory sweeps.
    /// let mut count = 0usize;
    /// for q in gen.stream_for(3600.0) {
    ///     count += 1;
    ///     if q.arrival_ns > 1_000_000_000 {
    ///         break; // stop after the first simulated second
    ///     }
    /// }
    /// assert!(count > 100);
    /// // The stream replays the materialized trace exactly.
    /// let head: Vec<_> = gen.stream_for(0.1).collect();
    /// assert_eq!(head, gen.generate_for(0.1));
    /// ```
    #[must_use]
    pub fn stream_for(&self, duration_s: f64) -> TraceStream {
        TraceStream {
            arrivals: self.arrivals,
            batches: self.batches.clone(),
            rng: StdRng::seed_from_u64(self.seed),
            t: 0.0,
            horizon_s: duration_s,
            remaining: usize::MAX,
        }
    }

    /// Streams exactly `count` queries, mirroring
    /// [`generate_count`](Self::generate_count) without materializing the
    /// trace.
    #[must_use]
    pub fn stream_count(&self, count: usize) -> TraceStream {
        TraceStream {
            arrivals: self.arrivals,
            batches: self.batches.clone(),
            rng: StdRng::seed_from_u64(self.seed),
            t: 0.0,
            horizon_s: f64::INFINITY,
            remaining: count,
        }
    }
}

/// A lazy query stream — see [`TraceGenerator::stream_for`].
///
/// # Examples
///
/// ```
/// use inference_workload::{BatchDistribution, TraceGenerator};
///
/// let gen = TraceGenerator::new(500.0, BatchDistribution::paper_default(), 3);
/// let streamed: Vec<_> = gen.stream_for(1.0).collect();
/// assert_eq!(streamed, gen.generate_for(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct TraceStream {
    arrivals: PoissonProcess,
    batches: BatchDistribution,
    rng: StdRng,
    t: f64,
    horizon_s: f64,
    remaining: usize,
}

impl Iterator for TraceStream {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        if self.remaining == 0 {
            return None;
        }
        self.t += self.arrivals.sample_interarrival_s(&mut self.rng);
        if self.t >= self.horizon_s {
            self.remaining = 0;
            return None;
        }
        self.remaining -= 1;
        Some(QuerySpec {
            arrival_ns: (self.t * 1e9).round() as u64,
            batch: self.batches.sample(&mut self.rng),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64) -> TraceGenerator {
        TraceGenerator::new(500.0, BatchDistribution::paper_default(), seed)
    }

    #[test]
    fn traces_are_reproducible() {
        let a = generator(9).generate_for(1.0);
        let b = generator(9).generate_for(1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generator(1).generate_for(1.0);
        let b = generator(2).generate_for(1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_sorted_and_within_duration() {
        let trace = generator(3).generate_for(2.0);
        assert!(trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(trace.iter().all(|q| q.arrival_ns < 2_000_000_000));
    }

    #[test]
    fn query_count_tracks_rate() {
        let trace = generator(5).generate_for(10.0);
        let expected = 500.0 * 10.0;
        let got = trace.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.1,
            "got {got} queries, expected ≈{expected}"
        );
    }

    #[test]
    fn batches_within_support() {
        let trace = generator(7).generate_for(1.0);
        assert!(trace.iter().all(|q| (1..=32).contains(&q.batch)));
    }

    #[test]
    fn generate_count_produces_exact_count() {
        let trace = generator(11).generate_count(1234);
        assert_eq!(trace.len(), 1234);
    }

    #[test]
    fn stream_for_replays_generate_for() {
        let gen = generator(13);
        let streamed: Vec<QuerySpec> = gen.stream_for(1.5).collect();
        assert_eq!(streamed, gen.generate_for(1.5));
    }

    #[test]
    fn stream_count_replays_generate_count() {
        let gen = generator(17);
        let streamed: Vec<QuerySpec> = gen.stream_count(500).collect();
        assert_eq!(streamed, gen.generate_count(500));
        assert_eq!(streamed.len(), 500);
    }
}
