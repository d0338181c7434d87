//! Multi-model query traces with piecewise-constant traffic drift.
//!
//! A production reconfigurable server hosts several models at once, and
//! each model's traffic — arrival rate *and* batch mix — shifts over the
//! day. [`MultiTraceGenerator`] models that as a sequence of
//! [`PhaseSpec`]s: within one phase every model is a homogeneous Poisson
//! process with a fixed batch distribution; at a phase boundary rates and
//! mixes switch. Because exponential inter-arrivals are memoryless,
//! re-sampling the pending gap at each boundary with the new rate yields an
//! exact piecewise-constant-rate Poisson process.
//!
//! Per-model streams are seeded independently (`seed + model`), so adding
//! or re-rating one model never perturbs another model's arrivals.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrivals::PoissonProcess;
use crate::dist::BatchDistribution;
use crate::trace::QuerySpec;

/// A [`QuerySpec`] tagged with the model it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaggedQuerySpec {
    /// Index of the model this query requests (into the server's model
    /// list).
    pub model: usize,
    /// The arrival time and batch size.
    pub spec: QuerySpec,
}

/// One traffic phase: for `duration_s` simulated seconds, model `m`
/// arrives at `models[m].0` queries/second with batch mix `models[m].1`.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Length of the phase in simulated seconds.
    pub duration_s: f64,
    /// Per-model `(rate_qps, batch distribution)` during the phase. A rate
    /// of zero silences the model for the phase.
    pub models: Vec<(f64, BatchDistribution)>,
}

impl PhaseSpec {
    /// Creates a phase.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive and finite, `models` is
    /// empty, or any rate is negative or not finite.
    #[must_use]
    pub fn new(duration_s: f64, models: Vec<(f64, BatchDistribution)>) -> Self {
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "phase duration must be positive"
        );
        assert!(!models.is_empty(), "phase needs at least one model");
        for (rate, _) in &models {
            assert!(rate.is_finite() && *rate >= 0.0, "rates must be >= 0");
        }
        PhaseSpec { duration_s, models }
    }
}

/// Generates reproducible multi-model traces across drifting phases — the
/// input of `MultiModelServer` runs.
///
/// # Examples
///
/// ```
/// use inference_workload::{BatchDistribution, MultiTraceGenerator, PhaseSpec};
///
/// let small = BatchDistribution::log_normal_with_median(32, 0.9, 2.0);
/// let large = BatchDistribution::log_normal_with_median(32, 0.9, 10.0);
/// // Model 0 dominates the first second, model 1 the next — and model 1's
/// // batch mix grows heavier as it takes over.
/// let gen = MultiTraceGenerator::new(
///     vec![
///         PhaseSpec::new(1.0, vec![(300.0, small.clone()), (50.0, small.clone())]),
///         PhaseSpec::new(1.0, vec![(50.0, small), (300.0, large)]),
///     ],
///     7,
/// );
/// let trace = gen.generate();
/// assert!(trace.windows(2).all(|w| w[0].spec.arrival_ns <= w[1].spec.arrival_ns));
/// assert!(trace.iter().any(|q| q.model == 0) && trace.iter().any(|q| q.model == 1));
/// ```
#[derive(Debug, Clone)]
pub struct MultiTraceGenerator {
    phases: Vec<PhaseSpec>,
    seed: u64,
}

impl MultiTraceGenerator {
    /// Creates a generator from a non-empty phase schedule. All phases
    /// must describe the same number of models.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or the phases disagree on model count.
    #[must_use]
    pub fn new(phases: Vec<PhaseSpec>, seed: u64) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        let models = phases[0].models.len();
        assert!(
            phases.iter().all(|p| p.models.len() == models),
            "every phase must cover the same models"
        );
        MultiTraceGenerator { phases, seed }
    }

    /// Number of models the schedule covers.
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.phases[0].models.len()
    }

    /// Total simulated duration across all phases, seconds.
    #[must_use]
    pub fn total_duration_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }

    /// The phase schedule.
    #[must_use]
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// The same drifting schedule with every model's rate in every phase
    /// multiplied by `scale` — the knob a latency-bounded *scale* search
    /// turns: the shape of the drift is preserved while the offered load
    /// sweeps. Batch mixes, phase lengths and the seed are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use inference_workload::{BatchDistribution, MultiTraceGenerator, PhaseSpec};
    ///
    /// let d = BatchDistribution::paper_default();
    /// let gen = MultiTraceGenerator::new(vec![PhaseSpec::new(1.0, vec![(100.0, d)])], 3);
    /// let heavy = gen.with_rate_scale(4.0);
    /// assert!(heavy.generate().len() > 2 * gen.generate().len());
    /// ```
    #[must_use]
    pub fn with_rate_scale(&self, scale: f64) -> MultiTraceGenerator {
        assert!(
            scale.is_finite() && scale > 0.0,
            "rate scale must be positive"
        );
        MultiTraceGenerator {
            phases: self
                .phases
                .iter()
                .map(|p| PhaseSpec {
                    duration_s: p.duration_s,
                    models: p
                        .models
                        .iter()
                        .map(|(rate, dist)| (rate * scale, dist.clone()))
                        .collect(),
                })
                .collect(),
            seed: self.seed,
        }
    }

    /// Streams the merged arrival sequence (ascending `arrival_ns`,
    /// ties broken by model index) without materializing it.
    #[must_use]
    pub fn stream(&self) -> MultiTraceStream {
        let models = self.model_count();
        let mut lanes: Vec<ModelLane> = (0..models)
            .map(|m| ModelLane {
                rng: StdRng::seed_from_u64(self.seed.wrapping_add(m as u64)),
                t_s: 0.0,
                phase: 0,
                next: None,
            })
            .collect();
        // Phase boundaries as prefix sums.
        let mut ends = Vec::with_capacity(self.phases.len());
        let mut acc = 0.0;
        for p in &self.phases {
            acc += p.duration_s;
            ends.push(acc);
        }
        for (m, lane) in lanes.iter_mut().enumerate() {
            lane.advance(m, &self.phases, &ends);
        }
        MultiTraceStream {
            phases: self.phases.clone(),
            phase_ends: ends,
            lanes,
        }
    }

    /// Materializes the whole merged trace.
    #[must_use]
    pub fn generate(&self) -> Vec<TaggedQuerySpec> {
        self.stream().collect()
    }
}

/// One model's in-progress Poisson stream.
#[derive(Debug)]
struct ModelLane {
    rng: StdRng,
    t_s: f64,
    phase: usize,
    next: Option<TaggedQuerySpec>,
}

impl ModelLane {
    /// Samples this lane's next arrival, crossing phase boundaries by
    /// memoryless re-sampling, and parks it in `next` (`None` at end of
    /// schedule).
    fn advance(&mut self, model: usize, phases: &[PhaseSpec], ends: &[f64]) {
        self.next = None;
        while self.phase < phases.len() {
            let (rate, dist) = &phases[self.phase].models[model];
            if *rate <= 0.0 {
                // Silent phase: jump to its end.
                self.t_s = ends[self.phase];
                self.phase += 1;
                continue;
            }
            let gap = PoissonProcess::new(*rate).sample_interarrival_s(&mut self.rng);
            let t = self.t_s + gap;
            if t >= ends[self.phase] {
                // The gap crosses the boundary: restart at the boundary
                // with the next phase's rate (exact for exponentials).
                self.t_s = ends[self.phase];
                self.phase += 1;
                continue;
            }
            self.t_s = t;
            self.next = Some(TaggedQuerySpec {
                model,
                spec: QuerySpec {
                    arrival_ns: (t * 1e9).round() as u64,
                    batch: dist.sample(&mut self.rng),
                },
            });
            return;
        }
    }
}

/// The lazy merged multi-model stream — see [`MultiTraceGenerator::stream`].
#[derive(Debug)]
pub struct MultiTraceStream {
    phases: Vec<PhaseSpec>,
    phase_ends: Vec<f64>,
    lanes: Vec<ModelLane>,
}

impl Iterator for MultiTraceStream {
    type Item = TaggedQuerySpec;

    fn next(&mut self) -> Option<TaggedQuerySpec> {
        // Model counts are small (a handful); a linear min scan beats a
        // heap and keeps ties deterministic by model index.
        let winner = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(m, lane)| lane.next.map(|q| (q.spec.arrival_ns, m)))
            .min()?
            .1;
        let out = self.lanes[winner].next;
        self.lanes[winner].advance(winner, &self.phases, &self.phase_ends);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceGenerator;

    fn two_phase() -> MultiTraceGenerator {
        let d = BatchDistribution::paper_default();
        MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(1.0, vec![(400.0, d.clone()), (100.0, d.clone())]),
                PhaseSpec::new(1.0, vec![(100.0, d.clone()), (400.0, d)]),
            ],
            3,
        )
    }

    #[test]
    fn merged_stream_is_sorted_and_reproducible() {
        let gen = two_phase();
        let a = gen.generate();
        let b = gen.generate();
        assert_eq!(a, b);
        assert!(a
            .windows(2)
            .all(|w| w[0].spec.arrival_ns <= w[1].spec.arrival_ns));
        let horizon = (gen.total_duration_s() * 1e9) as u64;
        assert!(a.iter().all(|q| q.spec.arrival_ns < horizon));
    }

    #[test]
    fn phase_rates_shape_per_model_counts() {
        let trace = two_phase().generate();
        let in_phase = |q: &TaggedQuerySpec, lo: f64, hi: f64| {
            (q.spec.arrival_ns as f64 / 1e9) >= lo && (q.spec.arrival_ns as f64 / 1e9) < hi
        };
        let count = |model: usize, lo: f64, hi: f64| {
            trace
                .iter()
                .filter(|q| q.model == model && in_phase(q, lo, hi))
                .count() as f64
        };
        // 4:1 configured ratios should be visible (within Poisson noise).
        assert!(count(0, 0.0, 1.0) > 2.0 * count(1, 0.0, 1.0));
        assert!(count(1, 1.0, 2.0) > 2.0 * count(0, 1.0, 2.0));
    }

    #[test]
    fn single_model_single_phase_matches_trace_generator() {
        // Degeneration: one model, one phase is exactly a TraceGenerator
        // trace (same seed, same sampling order).
        let d = BatchDistribution::paper_default();
        let multi =
            MultiTraceGenerator::new(vec![PhaseSpec::new(1.5, vec![(250.0, d.clone())])], 11)
                .generate();
        let single = TraceGenerator::new(250.0, d, 11).generate_for(1.5);
        let specs: Vec<QuerySpec> = multi.iter().map(|q| q.spec).collect();
        assert_eq!(specs, single);
        assert!(multi.iter().all(|q| q.model == 0));
    }

    #[test]
    fn rate_scale_preserves_shape_and_scales_counts() {
        let gen = two_phase();
        let base = gen.generate().len() as f64;
        let scaled = gen.with_rate_scale(3.0);
        assert_eq!(scaled.total_duration_s(), gen.total_duration_s());
        assert_eq!(scaled.model_count(), gen.model_count());
        let n = scaled.generate().len() as f64;
        assert!(
            (n / base - 3.0).abs() < 0.3,
            "3x rates should triple arrivals (got {n} vs {base})"
        );
    }

    #[test]
    fn zero_rate_silences_a_model() {
        let d = BatchDistribution::paper_default();
        let gen = MultiTraceGenerator::new(
            vec![PhaseSpec::new(1.0, vec![(200.0, d.clone()), (0.0, d)])],
            5,
        );
        let trace = gen.generate();
        assert!(!trace.is_empty());
        assert!(trace.iter().all(|q| q.model == 0));
    }

    #[test]
    #[should_panic(expected = "same models")]
    fn mismatched_phase_model_counts_panic() {
        let d = BatchDistribution::paper_default();
        let _ = MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(1.0, vec![(100.0, d.clone())]),
                PhaseSpec::new(1.0, vec![(100.0, d.clone()), (100.0, d)]),
            ],
            1,
        );
    }
}
