//! Multi-model serving over a shared partition pool, with online PARIS
//! re-planning under traffic drift.
//!
//! A production reconfigurable server rarely hosts one model: ParvaGPU-style
//! deployments co-locate many inference services on spatially shared GPUs,
//! and Aryl-style cluster schedulers re-plan capacity as load shifts. This
//! module brings both to the simulator:
//!
//! * [`MultiModelServer`] hosts one [`ModelSpec`] per model — its own
//!   [`ProfileTable`], batch distribution, scheduling policy and SLA — over
//!   a shared GPC budget. The budget is split across models
//!   ([`split_budget`]) and PARIS plans each model's partition group
//!   independently; queries ([`TaggedQuerySpec`]) route to their model's
//!   group through **per-model scheduler state** (an `ElsaState` or FIFS
//!   idle set per group), preserving the allocation-free O(log P) dispatch
//!   of the single-model fast path.
//! * With a [`ReplanPolicy`], a windowed [`DriftDetector`] watches the
//!   arrival stream; when a model's rate or batch mix drifts, PARIS
//!   re-plans from the **observed** distributions and the server
//!   reconfigures mid-run: unchanged instances keep serving untouched,
//!   removed instances are *quiesced* (they finish their current query and
//!   local queue, accepting nothing new), and once the last one drains the
//!   DES charges the MIG reslice downtime ([`ResliceCostModel`]) before the
//!   new instances come online.
//!
//! # Degeneration contract
//!
//! [`InferenceServer`](crate::InferenceServer) *is* a single-model
//! `MultiModelServer` with no replan policy: its runs translate the
//! server configuration into one [`ModelSpec`] and the report back into a
//! [`RunReport`](crate::RunReport), so both layers share one event loop
//! ([`MultiModelServer::run_stream`]). `tests/properties.rs` checks that
//! translation, and the single-model reference oracle pins the shared
//! loop.
//!
//! # Conservation contract
//!
//! A mid-run re-plan never drops or double-serves a query: quiesced
//! partitions drain their in-flight work, queries that arrive for a group
//! with no active instances wait in a stash until the reconfiguration
//! completes, and every accepted query completes exactly once. Unit tests
//! below and the property suite enforce this.

use des_engine::{SimDuration, SimTime, Simulation};
use inference_workload::{BatchDistribution, DriftDetector, DriftDetectorConfig, TaggedQuerySpec};
use mig_gpu::{ProfileSize, ResliceCostModel};
use paris_core::{
    plan_diff, GpcBudget, Paris, PlanDiff, PlanError, ProfileTable, ReconfigMode, ReconfigSchedule,
};
use server_metrics::{LatencyHistogram, LatencyRecorder};

use crate::dispatch::{CoreConfig, DispatchCore, GroupSpec, ShardEvent};
use crate::query::QueryRecord;
use crate::server::{ReportDetail, SchedulerKind};

/// Everything the server needs to host one model.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Human-readable name, used in reports and benchmark output.
    pub name: String,
    /// The model's profiled latency table (must cover every size PARIS may
    /// pick, i.e. be profiled over [`ProfileSize::ALL`]).
    pub table: ProfileTable,
    /// The batch distribution used for *initial* planning (re-plans use
    /// observed distributions).
    pub dist: BatchDistribution,
    /// The scheduling policy for this model's partition group.
    pub scheduler: SchedulerKind,
    /// SLA target for exact per-model violation counting, if any.
    pub sla_ns: Option<u64>,
}

impl ModelSpec {
    /// A model served by ELSA at the paper-default SLA (1.5× the max-batch
    /// latency on the largest partition).
    #[must_use]
    pub fn new(name: impl Into<String>, table: ProfileTable, dist: BatchDistribution) -> Self {
        let sla = table.sla_target_ns(1.5);
        ModelSpec {
            name: name.into(),
            table,
            dist,
            scheduler: SchedulerKind::Elsa(paris_core::ElsaConfig::new(sla)),
            sla_ns: Some(sla),
        }
    }

    /// Overrides the scheduling policy.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides the SLA target used for exact violation counting.
    #[must_use]
    pub fn with_sla_ns(mut self, sla_ns: u64) -> Self {
        self.sla_ns = Some(sla_ns);
        self
    }

    /// The budget-share weight this model's observed traffic demands:
    /// `rate ×` its mean profiled latency on the largest partition under
    /// `dist` (≈ full-GPU-seconds per second), floored at a tiny positive
    /// value so a silent model still gets a sliver of budget.
    ///
    /// One formula shared, through [`observed_shares`], by the drift
    /// re-planner, cluster loan transfers and fault recoveries, so their
    /// budget splits can never silently diverge.
    #[must_use]
    pub fn demand_weight(&self, dist: &BatchDistribution, rate_qps: f64) -> f64 {
        let big = self.table.largest_size();
        let mean_latency_s: f64 = (1..=self.table.max_batch())
            .map(|b| dist.pmf(b) * self.table.latency_s(big, b))
            .sum();
        (rate_qps * mean_latency_s).max(1e-9)
    }
}

/// The budget-share weights and planning distributions of a re-plan of
/// `models`, read from `detector` lanes `first_lane..first_lane +
/// models.len()` (one lane per model, in order): each model plans with
/// its observed batch distribution, else its declared one, and weighs in
/// with [`ModelSpec::demand_weight`] at its observed rate, else 0.
#[must_use]
pub fn observed_shares(
    models: &[ModelSpec],
    detector: &DriftDetector,
    first_lane: usize,
) -> (Vec<f64>, Vec<BatchDistribution>) {
    models
        .iter()
        .enumerate()
        .map(|(m, spec)| {
            let lane = first_lane + m;
            let dist = detector
                .observed_distribution(lane)
                .unwrap_or_else(|| spec.dist.clone());
            let rate = detector
                .observed_rates_qps()
                .get(lane)
                .copied()
                .unwrap_or(0.0);
            (spec.demand_weight(&dist, rate), dist)
        })
        .unzip()
}

/// When and how the server re-plans mid-run.
#[derive(Debug, Clone)]
pub struct ReplanPolicy {
    /// The drift trigger, fixed by [`new`](Self::new)'s window.
    detector: DriftDetectorConfig,
    /// How a re-plan's edits are staged: one GPU at a time
    /// ([`ReconfigMode::Rolling`], the default — bounding the capacity dip)
    /// or one combined outage ([`ReconfigMode::AllAtOnce`], kept for
    /// ablations).
    pub mode: ReconfigMode,
}

impl ReplanPolicy {
    /// A policy whose drift detector
    /// ([`DriftDetectorConfig::new`]) closes a window every `window_s`
    /// seconds, flags ±50 % drift and trusts windows of 50 or more
    /// arrivals, with rolling staging (the workspace default —
    /// `BENCH_multimodel.json`'s `reconfig_dip` data shows the bounded dip
    /// is worth the extra total downtime).
    ///
    /// Every re-plan is priced by the one A100 reslice model
    /// ([`ResliceCostModel::a100_default`]).
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not positive and finite.
    #[must_use]
    pub fn new(window_s: f64) -> Self {
        ReplanPolicy {
            detector: DriftDetectorConfig::new(window_s),
            mode: ReconfigMode::Rolling,
        }
    }

    /// Overrides the reconfiguration staging mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ReconfigMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Server-level configuration for multi-model runs (the multi-model twin
/// of `ServerConfig`, minus the per-model scheduler, plus the replan
/// policy).
#[derive(Debug, Clone)]
pub struct MultiModelConfig {
    /// How much per-query material runs keep.
    pub detail: ReportDetail,
    /// Online re-planning policy; `None` freezes the initial plan.
    pub replan: Option<ReplanPolicy>,
    /// Whether schedulers see slow-GPU degrade factors (`true`, the
    /// default) or plan with clean profiles while execution runs slow
    /// (`false` — the degradation-blind ablation;
    /// [`with_degrade_blind`](Self::with_degrade_blind)).
    pub degrade_visible: bool,
}

impl MultiModelConfig {
    /// A configuration with a 20 µs frontend, profiled (deterministic)
    /// service times, full detail and no re-planning.
    #[must_use]
    pub fn new() -> Self {
        MultiModelConfig {
            detail: ReportDetail::Full,
            replan: None,
            degrade_visible: true,
        }
    }

    /// Makes schedulers plan with clean profiles even on degraded
    /// hardware — the ablation a resilience bench runs to show what
    /// degradation-aware placement buys.
    #[must_use]
    pub fn with_degrade_blind(mut self) -> Self {
        self.degrade_visible = false;
        self
    }

    /// Sets how much per-query material runs keep.
    #[must_use]
    pub fn with_detail(mut self, detail: ReportDetail) -> Self {
        self.detail = detail;
        self
    }

    /// Enables online re-planning.
    #[must_use]
    pub fn with_replan(mut self, replan: ReplanPolicy) -> Self {
        self.replan = Some(replan);
        self
    }
}

impl Default for MultiModelConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits a shared [`GpcBudget`] across models proportionally to
/// `weights`, guaranteeing every model at least one GPU and one GPC.
/// Models do not share physical GPUs (a deliberate isolation choice: MIG
/// gives spatial isolation *within* a GPU, but keeping model groups on
/// disjoint GPUs makes reslicing one model's group independent of the
/// others).
///
/// # Panics
///
/// Panics if `weights` is empty, longer than the GPU count, or contains a
/// non-positive or non-finite weight.
///
/// # Examples
///
/// ```
/// use paris_core::GpcBudget;
/// use inference_server::split_budget;
///
/// let shares = split_budget(GpcBudget::new(48, 8), &[3.0, 1.0]);
/// assert_eq!(shares.len(), 2);
/// assert_eq!(shares.iter().map(|b| b.total_gpcs).sum::<usize>(), 48);
/// assert_eq!(shares.iter().map(|b| b.num_gpus).sum::<usize>(), 8);
/// assert!(shares[0].total_gpcs > shares[1].total_gpcs);
/// ```
#[must_use]
pub fn split_budget(budget: GpcBudget, weights: &[f64]) -> Vec<GpcBudget> {
    let k = weights.len();
    assert!(k >= 1, "need at least one model");
    assert!(
        k <= budget.num_gpus,
        "{k} models need {k} GPUs, budget has {}",
        budget.num_gpus
    );
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "weights must be positive"
    );
    assert!(
        budget.total_gpcs >= k,
        "budget must afford one GPC per model"
    );

    let gpus = bounded_split(
        budget.num_gpus,
        weights,
        &vec![1; k],
        &vec![budget.num_gpus; k],
    );
    let maxs: Vec<usize> = gpus.iter().map(|&g| g * mig_gpu::COMPUTE_SLICES).collect();
    let gpcs = bounded_split(budget.total_gpcs, weights, &vec![1; k], &maxs);
    gpus.iter()
        .zip(&gpcs)
        .map(|(&g, &c)| GpcBudget::new(c, g))
        .collect()
}

/// Largest-remainder apportionment of `total` units across `weights`,
/// bounded below by `mins` and above by `maxs`. Deterministic: ties go to
/// the lowest index.
fn bounded_split(total: usize, weights: &[f64], mins: &[usize], maxs: &[usize]) -> Vec<usize> {
    let wsum: f64 = weights.iter().sum();
    let mut out = mins.to_vec();
    let assigned: usize = out.iter().sum();
    debug_assert!(assigned <= total, "mins exceed the total");
    let target: Vec<f64> = weights.iter().map(|w| w / wsum * total as f64).collect();
    for _ in 0..total.saturating_sub(assigned) {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..out.len() {
            if out[i] >= maxs[i] {
                continue;
            }
            let deficit = target[i] - out[i] as f64;
            if best.is_none_or(|(d, _)| deficit > d) {
                best = Some((deficit, i));
            }
        }
        match best {
            Some((_, i)) => out[i] += 1,
            None => break,
        }
    }
    out
}

/// One completed mid-run reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigEvent {
    /// When drift triggered the re-plan (quiescing began).
    pub triggered_at: SimTime,
    /// When the new instances came online (drain + reslice done).
    pub completed_at: SimTime,
    /// Instances quiesced and destroyed.
    pub destroyed: usize,
    /// Instances created.
    pub created: usize,
    /// The charged driver-side reslice downtime, summed over every step
    /// (excludes drain, which plays out in simulated time).
    pub reslice_delay: SimDuration,
    /// Sequential steps the transition executed: 1 for an all-at-once
    /// reconfiguration, one per affected GPU for a rolling one.
    pub steps: usize,
    /// Whether the transition was aborted mid-schedule (a fault landed on
    /// hardware it was rearranging): `completed_at` is then the abort
    /// instant, and `destroyed`/`created` count only what its completed
    /// steps actually did.
    pub aborted: bool,
}

/// Per-model results of a multi-model run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The model's name.
    pub name: String,
    /// Queries completed for this model.
    pub completed: u64,
    /// Latency histogram of this model's queries.
    pub histogram: LatencyHistogram,
    /// The SLA target exact violations were counted against, if any.
    pub sla_ns: Option<u64>,
    /// Exact violation count against [`sla_ns`](Self::sla_ns).
    pub sla_violations: u64,
}

impl ModelReport {
    /// p95 tail latency of this model's queries, milliseconds
    /// (bucket-accurate).
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        self.histogram.p95_ms()
    }

    /// Exact fraction of this model's queries that violated its SLA (0
    /// when no SLA is configured or nothing completed).
    #[must_use]
    pub fn sla_violation_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.sla_violations as f64 / self.completed as f64
        }
    }
}

/// Everything measured during one multi-model run.
#[derive(Debug, Clone)]
pub struct MultiRunReport {
    /// Detail level the run was recorded at.
    pub detail: ReportDetail,
    /// Per-query lifecycle records, completion order (empty under
    /// [`ReportDetail::Summary`]). `partition` indexes
    /// [`partition_sizes`](Self::partition_sizes).
    pub records: Vec<QueryRecord>,
    /// The model of each record, parallel to [`records`](Self::records).
    pub record_models: Vec<usize>,
    /// Exact combined latency samples (empty under summary detail).
    pub latency: LatencyRecorder,
    /// Combined latency histogram: the merge of the per-model ones, over
    /// the octaves their samples span.
    pub histogram: LatencyHistogram,
    /// Queue-wait (`started − dispatched`) histogram across all models,
    /// filled at every detail level — the O(1)-memory source of
    /// [`breakdown`](Self::breakdown), tracing on or off.
    pub queue_hist: LatencyHistogram,
    /// Service-time (`completed − started`) histogram across all models,
    /// filled at every detail level.
    pub service_hist: LatencyHistogram,
    /// Per-model breakdown.
    pub per_model: Vec<ModelReport>,
    /// Time from first arrival to last completion.
    pub makespan: SimDuration,
    /// Completed queries divided by the makespan.
    pub achieved_qps: f64,
    /// Busy fraction over the makespan of every partition that ever
    /// existed (including ones destroyed by reconfigurations).
    pub partition_utilization: Vec<f64>,
    /// Size of each partition, parallel to the utilization vector.
    pub partition_sizes: Vec<ProfileSize>,
    /// Owning model of each partition, parallel to the utilization vector.
    pub partition_models: Vec<usize>,
    /// Every completed mid-run reconfiguration, in order.
    pub reconfigs: Vec<ReconfigEvent>,
    /// High-water mark of the DES event queue (stays O(partitions)).
    pub peak_pending_events: usize,
}

impl MultiRunReport {
    /// Total queries completed across all models.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.histogram.count()
    }

    /// Combined p95 tail latency, milliseconds (exact under
    /// [`ReportDetail::Full`], bucket-accurate under summary).
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        match self.detail {
            ReportDetail::Full => self.latency.p95_ms(),
            ReportDetail::Summary => self.histogram.p95_ms(),
        }
    }

    /// Where latency came from: queue-wait vs service-time percentiles
    /// from the always-on decomposition histograms, plus the total reslice
    /// downtime charged by every completed reconfiguration.
    #[must_use]
    pub fn breakdown(&self) -> server_metrics::LatencyBreakdown {
        let reconfig_wait_ns_total = self
            .reconfigs
            .iter()
            .map(|rc| rc.reslice_delay.as_nanos())
            .sum();
        server_metrics::LatencyBreakdown::from_histograms(
            &self.queue_hist,
            &self.service_hist,
            reconfig_wait_ns_total,
        )
    }

    /// The worst per-model exact SLA violation rate (the metric a
    /// latency-bounded multi-model throughput search constrains).
    #[must_use]
    pub fn worst_violation_rate(&self) -> f64 {
        self.per_model
            .iter()
            .map(ModelReport::sla_violation_rate)
            .fold(0.0, f64::max)
    }
}

/// A simulated multi-model inference server over a shared, reconfigurable
/// partition pool — see the source module's documentation for the serving
/// and re-planning model, and the degeneration/conservation contracts.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use inference_workload::{BatchDistribution, MultiTraceGenerator, PhaseSpec};
/// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
/// use paris_core::{GpcBudget, ProfileTable};
/// use inference_server::{ModelSpec, MultiModelConfig, MultiModelServer};
///
/// let perf = PerfModel::new(DeviceSpec::a100());
/// let dist = BatchDistribution::paper_default();
/// let spec = |kind: ModelKind| {
///     let table = ProfileTable::profile(&kind.build(), &perf, &ProfileSize::ALL, 32);
///     ModelSpec::new(format!("{kind}"), table, dist.clone())
/// };
/// let server = MultiModelServer::new(
///     vec![spec(ModelKind::MobileNet), spec(ModelKind::ResNet50)],
///     GpcBudget::new(48, 8),
///     MultiModelConfig::new(),
/// )?;
/// let trace = MultiTraceGenerator::new(
///     vec![PhaseSpec::new(0.3, vec![(200.0, dist.clone()), (100.0, dist)])],
///     7,
/// );
/// let report = server.run_stream(trace.stream(), Default::default());
/// assert_eq!(report.completed(), report.records.len() as u64);
/// assert_eq!(report.per_model.len(), 2);
/// # Ok::<(), paris_core::PlanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiModelServer {
    models: Vec<ModelSpec>,
    groups: Vec<Vec<ProfileSize>>,
    budget: GpcBudget,
    config: MultiModelConfig,
}

impl MultiModelServer {
    /// Plans the initial per-model partition groups: the budget is split
    /// evenly by [`split_budget`] and PARIS plans each model's share
    /// against its declared distribution.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from any model's PARIS run.
    pub fn plan_groups(
        models: &[ModelSpec],
        budget: GpcBudget,
    ) -> Result<Vec<Vec<ProfileSize>>, PlanError> {
        let budgets = split_budget(budget, &vec![1.0; models.len()]);
        models
            .iter()
            .zip(budgets)
            .map(|(m, b)| Ok(Paris::new(&m.table, &m.dist).plan(b)?.partitions()))
            .collect()
    }

    /// Creates a server with PARIS-planned initial groups.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from the initial planning pass.
    pub fn new(
        models: Vec<ModelSpec>,
        budget: GpcBudget,
        config: MultiModelConfig,
    ) -> Result<Self, PlanError> {
        let groups = Self::plan_groups(&models, budget)?;
        Ok(Self::with_groups(models, groups, budget, config))
    }

    /// Creates a server with explicit per-model partition groups (tests,
    /// baselines, and the single-model degeneration contract).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty, `groups` does not match it one-to-one,
    /// any group is empty, or a [`ReplanPolicy`] is configured over a
    /// budget that cannot be split across the models (fewer GPUs or GPCs
    /// than models) — re-planning would hit that wall mid-run otherwise.
    #[must_use]
    pub fn with_groups(
        models: Vec<ModelSpec>,
        groups: Vec<Vec<ProfileSize>>,
        budget: GpcBudget,
        config: MultiModelConfig,
    ) -> Self {
        assert!(!models.is_empty(), "server needs at least one model");
        assert_eq!(models.len(), groups.len(), "one group per model");
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "every model needs at least one partition"
        );
        if config.replan.is_some() {
            // Fail at construction, not at the first drift trigger: a
            // re-plan splits the budget across models and needs one GPU
            // and one GPC per model.
            assert!(
                models.len() <= budget.num_gpus && models.len() <= budget.total_gpcs,
                "replanning {} models needs at least that many GPUs and GPCs, budget is {budget}",
                models.len()
            );
        }
        MultiModelServer {
            models,
            groups,
            budget,
            config,
        }
    }

    /// The hosted models.
    #[must_use]
    pub fn models(&self) -> &[ModelSpec] {
        &self.models
    }

    /// The initial per-model partition groups.
    #[must_use]
    pub fn groups(&self) -> &[Vec<ProfileSize>] {
        &self.groups
    }

    /// The shared GPC budget.
    #[must_use]
    pub fn budget(&self) -> GpcBudget {
        self.budget
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &MultiModelConfig {
        &self.config
    }

    /// A back-of-envelope planned-capacity estimate: the sum over every
    /// model of [`ProfileTable::capacity_qps`] for its planned group under
    /// its declared distribution, queries/second. A cluster router
    /// weighting shards by planned capacity reads this.
    #[must_use]
    pub fn capacity_hint_qps(&self) -> f64 {
        self.models
            .iter()
            .zip(&self.groups)
            .map(|(spec, group)| spec.table.capacity_qps(group, &spec.dist))
            .sum()
    }

    /// Simulates the server over a materialized tagged trace.
    #[must_use]
    pub fn run(&self, trace: &[TaggedQuerySpec]) -> MultiRunReport {
        self.run_stream(trace.iter().copied(), self.config.detail)
    }

    /// Simulates the server over a *streamed* tagged arrival sequence
    /// (ascending arrival times) until every accepted query completes.
    ///
    /// This is the crate's one event loop: [`InferenceServer`] runs
    /// through it as a 1-model server. Only the next arrival's dispatch is
    /// pending at any time, so the queue holds O(P) events; together with
    /// [`ReportDetail::Summary`] a whole run is O(1) in the trace length.
    ///
    /// [`InferenceServer`]: crate::InferenceServer
    #[must_use]
    pub fn run_stream<I>(&self, arrivals: I, detail: ReportDetail) -> MultiRunReport
    where
        I: IntoIterator<Item = TaggedQuerySpec>,
    {
        let mut arrivals = arrivals.into_iter();
        let n: usize = self.groups.iter().map(Vec::len).sum();
        // Steady state: ≤ one completion per partition + the next streamed
        // arrival + a possible reconfiguration event.
        let mut sim: Simulation<ShardEvent> = Simulation::with_capacity(n + 3);
        let mut engine = ShardEngine::new(self, detail);
        if let Some(tq) = arrivals.next() {
            engine.offer(tq, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        }
        // One-slot deferred-push register: each handler's *last* schedule
        // is held back and fused with the next pop (`Simulation::push_pop`)
        // — order-preserving, since a later schedule flushes the held one
        // first. Nothing reads the queue between a handler's schedules and
        // the next pop, so the deferral is invisible.
        let mut held: Option<(SimTime, u64, ShardEvent)> = None;
        loop {
            let next = match held.take() {
                Some((t, k, e)) => Some(sim.push_pop(t, k, e)),
                None => sim.next_event(),
            };
            let Some((now, event)) = next else { break };
            // Keep the pipeline primed: handling a dispatch is the moment
            // its successor enters the queue, so pending stays O(P).
            if matches!(event, ShardEvent::Dispatch(..)) {
                if let Some(tq) = arrivals.next() {
                    engine.offer(tq, &mut |t, k, e| {
                        if let Some((pt, pk, pe)) = held.replace((t, k, e)) {
                            sim.schedule_at_keyed(pt, pk, pe);
                        }
                    });
                }
            }
            engine.handle(now, event, &mut |t, k, e| {
                if let Some((pt, pk, pe)) = held.replace((t, k, e)) {
                    sim.schedule_at_keyed(pt, pk, pe);
                }
            });
        }
        engine.finish(sim.peak_pending())
    }
}

/// Inputs of an externally imposed re-plan
/// ([`ShardEngine::force_replan`]) — how a cluster loan controller tells a
/// shard to re-plan onto a changed budget.
#[derive(Debug, Clone, Copy)]
pub struct ReplanRequest<'a> {
    /// The budget the shard must adopt and re-plan onto.
    pub budget: GpcBudget,
    /// Per-model budget-share weights (a loan controller passes shares
    /// derived from its observed traffic, or equal shares).
    pub weights: &'a [f64],
    /// Per-model planning distributions (observed, or declared).
    pub dists: &'a [BatchDistribution],
    /// Added on top of the reslice delay — e.g. the whole-GPU handover
    /// charge of a capacity loan
    /// ([`ResliceCostModel::gpu_handover_ns`]).
    pub extra_downtime: SimDuration,
    /// How the transition's edits are staged (all-at-once or rolling, see
    /// [`ReconfigMode`]).
    pub mode: ReconfigMode,
}

/// One shard's serving state, decoupled from the event loop: a thin policy
/// layer over the crate's one dispatch/complete/drain core.
///
/// This is the engine behind [`MultiModelServer::run_stream`] (and so
/// behind every `InferenceServer` run), and the only public one, so a
/// *cluster* can host shards in external simulations: the driver owns
/// the `Simulation`, injects arrivals ([`offer`]) and feeds popped
/// events back ([`handle`]) through a scheduling callback
/// `(fire_time, tie_break_key, event)`. The engine never schedules
/// anything itself and holds no shared state (it is `Send`), so a driver
/// may give every shard a *private* event queue and advance the resulting
/// lanes on worker threads — the shard-parallel cluster engine does
/// exactly that, exchanging cross-shard actions only at conservative
/// window edges (ARCHITECTURE.md invariant 11). All the engine requires of
/// its driver is that calls arrive in nondecreasing `now` order and that
/// same-instant calls keep one deterministic order. The dispatch/complete/drain bodies
/// live in the core (one group per model); what this layer adds is
/// *policy* — drift detection, PARIS re-planning from observed
/// distributions, and the budget a cluster loan controller moves.
///
/// Cluster-facing hooks beyond the event plumbing:
///
/// * [`outstanding_queries`] — offered-but-uncompleted load, the signal a
///   join-shortest-queue router balances on;
/// * [`force_replan`] — re-plan onto an externally imposed budget (an
///   Aryl-style capacity loan or reclaim), with the transition priced
///   through the same [`ReconfigSchedule`] machinery as drift-triggered
///   re-plans;
/// * [`reconfig_in_flight`] — whether a transition is mid-schedule (loans
///   must wait, or they would compound two reconfigurations);
/// * [`live_groups`] — the instances actually serving right now, the
///   efficiency reference a loan demand estimator should normalize
///   against.
///
/// [`offer`]: Self::offer
/// [`handle`]: Self::handle
/// [`outstanding_queries`]: Self::outstanding_queries
/// [`force_replan`]: Self::force_replan
/// [`reconfig_in_flight`]: Self::reconfig_in_flight
/// [`live_groups`]: Self::live_groups
pub struct ShardEngine<'a> {
    server: &'a MultiModelServer,
    core: DispatchCore<'a>,
    /// The budget the *next* re-plan splits. Starts at the server's budget;
    /// capacity loans move it.
    budget: GpcBudget,
    detector: Option<DriftDetector>,
}

impl<'a> ShardEngine<'a> {
    /// Builds the engine for one run of `server` at the given detail.
    #[must_use]
    pub fn new(server: &'a MultiModelServer, detail: ReportDetail) -> Self {
        let specs: Vec<GroupSpec<'a>> = server
            .models
            .iter()
            .map(|m| GroupSpec {
                name: &m.name,
                table: &m.table,
                scheduler: m.scheduler.clone(),
                sla_ns: m.sla_ns,
            })
            .collect();
        let core = DispatchCore::new(
            specs,
            &server.groups,
            CoreConfig {
                detail,
                degrade_visible: server.config.degrade_visible,
            },
        );
        let detector = server.config.replan.as_ref().map(|rp| {
            let max_b = server
                .models
                .iter()
                .map(|m| m.table.max_batch())
                .max()
                .expect("at least one model");
            DriftDetector::new(server.models.len(), max_b, rp.detector)
        });
        ShardEngine {
            server,
            core,
            budget: server.budget,
            detector,
        }
    }

    /// Attaches an observability sink (trace half, online half, or both):
    /// the dispatch core records the full lifecycle of every query it
    /// handles (invariant 12 — attaching a sink never changes simulation
    /// behaviour or report bytes).
    pub fn set_sink(&mut self, sink: inference_obs::ObsSink) {
        self.core.set_sink(sink);
    }

    /// Detaches and returns the observability sink, if one was attached.
    pub fn take_sink(&mut self) -> Option<inference_obs::ObsSink> {
        self.core.take_sink()
    }

    /// Offers one tagged arrival to the shard's serial frontend, scheduling
    /// its [`ShardEvent::Dispatch`] through `sched`. Arrivals must be
    /// offered in non-decreasing arrival order.
    pub fn offer(&mut self, tq: TaggedQuerySpec, sched: &mut impl FnMut(SimTime, u64, ShardEvent)) {
        self.core.offer(tq.model, tq.spec, sched);
    }

    /// Handles one popped event. The driver must pass every event this
    /// engine scheduled (and only those) back in pop order.
    pub fn handle(
        &mut self,
        now: SimTime,
        event: ShardEvent,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        // Policy first, dispatch second: a drift trigger quiesces before
        // the triggering query routes, exactly as the pre-unification
        // engine did.
        if let ShardEvent::Dispatch(query, m) = event {
            if let Some(det) = &mut self.detector {
                let drift = det.observe(m, query.arrival.as_nanos(), query.batch);
                if drift.is_some() && !self.core.reconfig_in_flight() {
                    self.try_replan(now, sched);
                }
            }
        }
        let was_reconfiguring = self.core.reconfig_in_flight();
        self.core.handle(now, event, sched);
        if was_reconfiguring && !self.core.reconfig_in_flight() {
            // The whole schedule completed: accept the observed traffic as
            // the new baseline. (Loans reach here with no shard-level
            // detector configured.)
            if let Some(det) = &mut self.detector {
                det.rebaseline();
            }
        }
    }

    /// Queries offered to the frontend but not yet completed — the
    /// outstanding-load signal a join-shortest-queue cluster router
    /// balances on.
    #[must_use]
    pub fn outstanding_queries(&self) -> u64 {
        self.core.outstanding_queries()
    }

    /// Whether a reconfiguration (drift re-plan or capacity loan) is
    /// currently mid-schedule (draining a step or waiting out a reslice).
    #[must_use]
    pub fn reconfig_in_flight(&self) -> bool {
        self.core.reconfig_in_flight()
    }

    /// The budget the next re-plan will split (moves with capacity loans).
    #[must_use]
    pub fn budget(&self) -> GpcBudget {
        self.budget
    }

    /// The live per-model layouts: sizes of the instances actually serving
    /// right now (quiesced instances excluded). Differs from
    /// [`MultiModelServer::groups`] after any re-plan.
    #[must_use]
    pub fn live_groups(&self) -> Vec<Vec<ProfileSize>> {
        self.core.live_groups()
    }

    /// The live (serving, non-retiring) members of every model group as
    /// `(worker index, size)` pairs — what a fault injector packs into
    /// physical-GPU bins ([`paris_core::pack_gpus`]) to pick a GPU
    /// failure's victims.
    #[must_use]
    pub fn live_members(&self) -> Vec<Vec<(usize, ProfileSize)>> {
        self.core.live_members()
    }

    /// Kills the given worker slots immediately (a GPU failure): in-flight
    /// and locally queued queries are requeued through the dispatch path,
    /// the slots never serve again. Returns how many queries were
    /// requeued. Killing a slot that drains for an in-flight step counts
    /// as that drain completing; dead and out-of-range slots are skipped.
    /// The recovery re-plan is a separate, explicit
    /// [`force_replan`](Self::force_replan) onto the survivor budget.
    pub fn kill_instances(
        &mut self,
        workers: &[usize],
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) -> u64 {
        self.core.kill_workers(workers, now, sched)
    }

    /// Sets the physical service-time multiplier of the given worker slots
    /// (a slow-GPU fault; 1.0 restores the clean profile). Executions
    /// begun from now on take `factor`× the profiled time, and a visible
    /// configuration steers ELSA around the slow slots. Slots already at
    /// `factor` are skipped, so a factor-1.0 degrade/restore cycle is
    /// bit-for-bit the untouched run.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and ≥ 1.0.
    pub fn set_degrade(&mut self, workers: &[usize], factor: f64) {
        self.core.set_degrade(workers, factor);
    }

    /// Aborts an in-flight reconfiguration (a fault landed on hardware it
    /// was rearranging): the current step's quiesced survivors rejoin
    /// their groups and the remaining schedule is dropped. Returns whether
    /// anything was aborted; the transition is reported as a
    /// [`ReconfigEvent`] with `aborted: true`.
    pub fn abort_reconfig(
        &mut self,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) -> bool {
        self.core.abort_transition(now, sched)
    }

    /// Acts on a drift report, which the detector has just folded into its
    /// last trusted window: re-plans every model from its observed
    /// traffic ([`observed_shares`]), quiesces the instances the new plan
    /// drops, and arms the reslice schedule.
    fn try_replan(&mut self, now: SimTime, sched: &mut impl FnMut(SimTime, u64, ShardEvent)) {
        let detector = self.detector.as_ref().expect("replan needs a detector");
        let (weights, dists) = observed_shares(&self.server.models, detector, 0);
        let mode = self
            .server
            .config
            .replan
            .as_ref()
            .expect("replan policy present")
            .mode;
        let started = self.transition_to(
            &ReplanRequest {
                budget: self.budget,
                weights: &weights,
                dists: &dists,
                extra_downtime: SimDuration::ZERO,
                mode,
            },
            now,
            sched,
        );
        if !started {
            // Traffic moved but the plan is already right: accept the new
            // baseline and keep serving.
            self.detector.as_mut().expect("checked above").rebaseline();
        }
    }

    /// Re-plans the shard onto an externally imposed budget — the
    /// cluster-loaning hook; see [`ReplanRequest`] for the inputs.
    ///
    /// Returns `true` if a reconfiguration actually started. Returns
    /// `false` — leaving serving untouched — when a reconfiguration is
    /// already in flight (the caller should retry after it completes) or
    /// when the new budget plans to the very same layout (the budget is
    /// still adopted for future re-plans, and no downtime is charged: an
    /// empty [`plan_diff`] means no driver call at all).
    ///
    /// # Panics
    ///
    /// Panics if the request's budget cannot be split across the shard's
    /// models (fewer GPUs or GPCs than models) — loan controllers must
    /// never shrink a shard below one GPU per model.
    pub fn force_replan(
        &mut self,
        request: &ReplanRequest<'_>,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) -> bool {
        if self.core.reconfig_in_flight() {
            return false;
        }
        let started = self.transition_to(request, now, sched);
        if !started {
            // The budget moved but the layout did not: let the shard's own
            // detector accept current traffic so it does not immediately
            // re-trigger against a stale baseline.
            if let Some(det) = &mut self.detector {
                det.rebaseline();
            }
        }
        started
    }

    /// The shared transition core behind drift re-plans and capacity
    /// loans: adopts the requested budget, plans every model's share
    /// against the requested distributions (falling back to the declared
    /// distribution, then to the current layout, so a degenerate input can
    /// never break serving), diffs against the live layout, cuts the diffs
    /// into a [`ReconfigSchedule`] under the requested mode, and hands the
    /// schedule to the core. Returns whether a reconfiguration started.
    fn transition_to(
        &mut self,
        request: &ReplanRequest<'_>,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) -> bool {
        let ReplanRequest {
            budget,
            weights,
            dists,
            extra_downtime,
            mode,
        } = *request;
        self.budget = budget;
        let models = &self.server.models;
        let budgets = split_budget(budget, weights);
        let current = self.core.live_groups();
        let targets: Vec<Vec<ProfileSize>> = models
            .iter()
            .enumerate()
            .map(|(m, spec)| {
                Paris::new(&spec.table, &dists[m])
                    .plan(budgets[m])
                    .or_else(|_| Paris::new(&spec.table, &spec.dist).plan(budgets[m]))
                    .map(|p| p.partitions())
                    .unwrap_or_else(|_| current[m].clone())
            })
            .collect();

        let diffs: Vec<PlanDiff> = current
            .iter()
            .zip(&targets)
            .map(|(c, t)| plan_diff(c, t))
            .collect();
        let schedule = ReconfigSchedule::new(
            &diffs,
            mode,
            &ResliceCostModel::a100_default(),
            extra_downtime.as_nanos(),
        );
        self.core.begin_transition(schedule, now, sched)
    }

    /// Consumes the engine into its run report. `peak_pending_events` is
    /// the driver's event-queue high-water mark (a shared cluster DES
    /// reports the same fleet-wide value to every shard).
    #[must_use]
    pub fn finish(self, peak_pending_events: usize) -> MultiRunReport {
        self.core.finish(peak_pending_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;
    use inference_workload::{MultiTraceGenerator, PhaseSpec};
    use mig_gpu::{DeviceSpec, PerfModel};

    #[test]
    fn shard_engine_is_send() {
        // The shard-parallel cluster driver moves engines (inside lanes)
        // across worker threads between windows; this pins the `Send`
        // bound at compile time so a future `Rc`/`RefCell` in the
        // dispatch stack fails loudly here instead of deep in the
        // cluster crate.
        fn assert_send<T: Send>() {}
        assert_send::<ShardEngine<'static>>();
    }

    fn table(kind: ModelKind) -> ProfileTable {
        let model = kind.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    fn two_model_server(replan: Option<ReplanPolicy>) -> MultiModelServer {
        let dist = BatchDistribution::paper_default();
        let mut config = MultiModelConfig::new();
        if let Some(rp) = replan {
            config = config.with_replan(rp);
        }
        MultiModelServer::new(
            vec![
                ModelSpec::new("mobilenet", table(ModelKind::MobileNet), dist.clone()),
                ModelSpec::new("resnet50", table(ModelKind::ResNet50), dist),
            ],
            GpcBudget::new(48, 8),
            config,
        )
        .expect("plans build")
    }

    fn steady_trace(rate0: f64, rate1: f64, secs: f64, seed: u64) -> Vec<TaggedQuerySpec> {
        let d = BatchDistribution::paper_default();
        MultiTraceGenerator::new(
            vec![PhaseSpec::new(secs, vec![(rate0, d.clone()), (rate1, d)])],
            seed,
        )
        .generate()
    }

    /// A strongly drifting two-model trace: model 1's batch mix flips from
    /// tiny to heavy while rates swap.
    fn drifting_trace(secs_per_phase: f64, seed: u64) -> MultiTraceGenerator {
        let small = BatchDistribution::log_normal_with_median(32, 0.9, 2.0);
        let large = BatchDistribution::log_normal_with_median(32, 0.9, 12.0);
        MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(
                    secs_per_phase,
                    vec![(400.0, small.clone()), (40.0, small.clone())],
                ),
                PhaseSpec::new(secs_per_phase, vec![(40.0, small), (250.0, large)]),
            ],
            seed,
        )
    }

    #[test]
    fn split_budget_is_exhaustive_and_bounded() {
        let shares = split_budget(GpcBudget::new(48, 8), &[1.0, 1.0, 6.0]);
        assert_eq!(shares.iter().map(|b| b.total_gpcs).sum::<usize>(), 48);
        assert_eq!(shares.iter().map(|b| b.num_gpus).sum::<usize>(), 8);
        for b in &shares {
            assert!(b.total_gpcs >= 1 && b.num_gpus >= 1);
            assert!(b.total_gpcs <= b.num_gpus * mig_gpu::COMPUTE_SLICES);
        }
        // The heavy model gets the lion's share.
        assert!(shares[2].total_gpcs > shares[0].total_gpcs * 2);
    }

    #[test]
    #[should_panic(expected = "GPUs")]
    fn more_models_than_gpus_panics() {
        let _ = split_budget(GpcBudget::new(14, 2), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn every_query_completes_exactly_once_across_models() {
        let server = two_model_server(None);
        let trace = steady_trace(300.0, 150.0, 1.0, 3);
        let report = server.run(&trace);
        assert_eq!(report.records.len(), trace.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len(), "no duplicate completions");
        let per_model_sum: u64 = report.per_model.iter().map(|m| m.completed).sum();
        assert_eq!(per_model_sum, report.completed());
    }

    #[test]
    fn queries_route_to_their_models_partitions() {
        let server = two_model_server(None);
        let group0 = server.groups()[0].len();
        let trace = steady_trace(200.0, 200.0, 0.5, 5);
        let report = server.run(&trace);
        for (r, &m) in report.records.iter().zip(&report.record_models) {
            assert_eq!(report.partition_models[r.partition], m);
            // With no reconfiguration, model 0 owns partitions [0, group0).
            assert_eq!(m == 0, r.partition < group0);
        }
    }

    #[test]
    fn static_plan_never_reconfigures() {
        let server = two_model_server(None);
        let report = server.run(&drifting_trace(1.0, 7).generate());
        assert!(report.reconfigs.is_empty());
        assert_eq!(
            report.partition_sizes.len(),
            server.groups().iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn drift_triggers_replanning_and_conserves_queries() {
        let policy = ReplanPolicy::new(0.25);
        let server = two_model_server(Some(policy));
        let trace = drifting_trace(2.0, 11).generate();
        let report = server.run(&trace);
        assert!(
            !report.reconfigs.is_empty(),
            "a rate swap + mix flip must trigger a re-plan"
        );
        // The conservation contract: nothing dropped, nothing double-served.
        assert_eq!(report.records.len(), trace.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
        for rc in &report.reconfigs {
            assert!(rc.completed_at >= rc.triggered_at + rc.reslice_delay);
            assert!(rc.destroyed > 0 || rc.created > 0);
        }
        // Destroyed instances exist in the report with their lifetime
        // utilization; the pool grew by the created count.
        let initial: usize = server.groups().iter().map(Vec::len).sum();
        let created: usize = report.reconfigs.iter().map(|r| r.created).sum();
        assert_eq!(report.partition_sizes.len(), initial + created);
    }

    #[test]
    fn replanning_beats_static_plan_under_drift() {
        // The tentpole claim: under a drifting two-model workload, online
        // re-planning (even paying realistic reslice downtime) beats the
        // frozen initial plan on SLA attainment.
        let trace = drifting_trace(4.0, 13);
        let static_report = two_model_server(None).run(&trace.generate());
        let policy = ReplanPolicy::new(0.25);
        let replan_report = two_model_server(Some(policy)).run(&trace.generate());
        assert!(!replan_report.reconfigs.is_empty());
        let s = static_report.worst_violation_rate();
        let r = replan_report.worst_violation_rate();
        assert!(
            r < s,
            "replanning should reduce worst-model violations: static {s:.4} vs replan {r:.4}"
        );
    }

    #[test]
    fn retired_partitions_finish_their_queues() {
        // Full-detail run with replanning: every record's partition index
        // is valid and every started query completed, even on partitions
        // that were destroyed mid-run.
        let policy = ReplanPolicy::new(0.25);
        let server = two_model_server(Some(policy));
        let report = server.run(&drifting_trace(1.5, 17).generate());
        for r in &report.records {
            assert!(r.partition < report.partition_sizes.len());
            assert!(r.started < r.completed);
        }
    }

    #[test]
    fn records_track_every_query_across_models_and_reconfigs() {
        // Every completion leaves exactly one record; record partitions
        // index every instance that ever existed — including ones a
        // mid-run re-plan created — and no instance runs two queries at
        // once.
        let dist = BatchDistribution::paper_default();
        let policy = ReplanPolicy::new(0.25);
        let server = MultiModelServer::new(
            vec![
                ModelSpec::new("mobilenet", table(ModelKind::MobileNet), dist.clone()),
                ModelSpec::new("resnet50", table(ModelKind::ResNet50), dist),
            ],
            GpcBudget::new(48, 8),
            MultiModelConfig::new().with_replan(policy),
        )
        .expect("plans build");
        let initial: usize = server.groups().iter().map(Vec::len).sum();
        let trace = drifting_trace(1.5, 19).generate();
        let report = server.run(&trace);
        assert_eq!(report.records.len(), trace.len());
        assert!(!report.reconfigs.is_empty(), "the drift must re-plan");
        assert!(
            report.records.iter().any(|r| r.partition >= initial),
            "instances created mid-run serve queries"
        );
        let mut runs: Vec<_> = report
            .records
            .iter()
            .map(|r| (r.partition, r.started, r.completed))
            .collect();
        runs.sort_unstable();
        for w in runs.windows(2) {
            assert!(w[0].0 != w[1].0 || w[0].2 <= w[1].1, "overlap: {w:?}");
        }
    }

    #[test]
    fn rolling_drift_replan_stages_the_transition() {
        // Same drifting workload as the all-at-once conservation test, but
        // staged one GPU at a time: conservation still holds, and at least
        // one reconfiguration needs more than one step (the mix flip moves
        // more than one GPU's worth of instances).
        let policy = ReplanPolicy::new(0.25).with_mode(ReconfigMode::Rolling);
        let server = two_model_server(Some(policy));
        let trace = drifting_trace(2.0, 11).generate();
        let report = server.run(&trace);
        assert!(!report.reconfigs.is_empty());
        assert_eq!(report.records.len(), trace.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
        assert!(
            report.reconfigs.iter().any(|rc| rc.steps > 1),
            "a multi-GPU re-plan must roll out in stages: {:?}",
            report.reconfigs
        );
        for rc in &report.reconfigs {
            assert!(rc.completed_at >= rc.triggered_at + rc.reslice_delay);
        }
    }

    #[test]
    fn replan_to_identical_layout_charges_no_downtime() {
        // Reconfiguration edge case: a forced re-plan whose PARIS target
        // equals the running layout must be a no-op — empty plan_diff, no
        // ReconfigEvent, zero charged downtime, serving uninterrupted.
        let dist = BatchDistribution::paper_default();
        let t = table(ModelKind::MobileNet);
        let server = MultiModelServer::new(
            vec![ModelSpec::new("mobilenet", t, dist.clone())],
            GpcBudget::new(14, 2),
            MultiModelConfig::new(),
        )
        .expect("plan builds");
        let mut engine = ShardEngine::new(&server, ReportDetail::Full);
        let mut scheduled = Vec::new();
        // Same budget, equal weights, declared dists: PARIS lands on the same
        // plan, so nothing may be scheduled and no reconfig armed.
        let started = engine.force_replan(
            &ReplanRequest {
                budget: server.budget(),
                weights: &[1.0],
                dists: &[dist],
                extra_downtime: SimDuration::ZERO,
                mode: ReconfigMode::AllAtOnce,
            },
            SimTime::ZERO,
            &mut |t, k, e| scheduled.push((t, k, format!("{e:?}"))),
        );
        assert!(!started, "identical plan must not start a reconfiguration");
        assert!(scheduled.is_empty(), "no reslice event was armed");
        assert!(!engine.reconfig_in_flight());
        let report = engine.finish(0);
        assert!(report.reconfigs.is_empty());
    }

    #[test]
    fn summary_detail_keeps_no_records_but_counts_everything() {
        let server = two_model_server(None);
        let trace = steady_trace(250.0, 100.0, 0.5, 23);
        let full = server.run_stream(trace.iter().copied(), ReportDetail::Full);
        let summary = server.run_stream(trace.iter().copied(), ReportDetail::Summary);
        assert!(summary.records.is_empty());
        assert!(summary.latency.is_empty());
        assert_eq!(summary.completed(), full.completed());
        assert_eq!(summary.makespan, full.makespan);
        assert_eq!(
            summary.per_model[0].sla_violations, full.per_model[0].sla_violations,
            "exact per-model violation counts at every detail level"
        );
    }

    #[test]
    fn event_queue_stays_small_with_replanning() {
        let policy = ReplanPolicy::new(0.25);
        let server = two_model_server(Some(policy));
        let report = server.run_stream(drifting_trace(1.5, 29).stream(), ReportDetail::Summary);
        assert!(
            report.peak_pending_events <= report.partition_sizes.len() + 3,
            "streamed multi-model queue stays O(partitions), got {}",
            report.peak_pending_events
        );
    }

    /// Drives `server` over `trace` event by event at full detail,
    /// checking after every event that `outstanding_queries` is the
    /// offered count minus the completions handled so far.
    fn run_checking_outstanding(
        server: &MultiModelServer,
        trace: &[TaggedQuerySpec],
    ) -> MultiRunReport {
        let mut sim: Simulation<ShardEvent> = Simulation::new();
        let mut engine = ShardEngine::new(server, ReportDetail::Full);
        let mut arrivals = trace.iter().copied();
        let (mut offered, mut completed) = (0u64, 0u64);
        if let Some(tq) = arrivals.next() {
            engine.offer(tq, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
            offered += 1;
        }
        while let Some((now, event)) = sim.next_event() {
            if matches!(event, ShardEvent::Dispatch(..)) {
                if let Some(tq) = arrivals.next() {
                    engine.offer(tq, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
                    offered += 1;
                }
            }
            // No fault kills a slot here, so every completion event is a
            // served query.
            completed += u64::from(matches!(event, ShardEvent::Complete { .. }));
            engine.handle(now, event, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
            assert_eq!(
                engine.outstanding_queries(),
                offered - completed,
                "at {now:?}"
            );
        }
        assert_eq!(
            (offered, completed),
            (trace.len() as u64, trace.len() as u64)
        );
        engine.finish(sim.peak_pending())
    }

    /// The combined histogram is the merge of the per-model ones and holds
    /// exactly the records' latencies, on a 1-model run and on a 2-model
    /// run through a drift re-plan.
    #[test]
    fn combined_histogram_is_the_per_model_merge() {
        let dist = BatchDistribution::paper_default();
        let one = MultiModelServer::new(
            vec![ModelSpec::new(
                "mobilenet",
                table(ModelKind::MobileNet),
                dist.clone(),
            )],
            GpcBudget::new(48, 8),
            MultiModelConfig::new(),
        )
        .expect("plan builds");
        let one_trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(1.0, vec![(400.0, dist)])], 23).generate();
        let policy = ReplanPolicy::new(0.25);
        let two = two_model_server(Some(policy));
        let two_trace = drifting_trace(2.0, 11).generate();
        for (server, trace, models) in [(&one, one_trace, 1), (&two, two_trace, 2)] {
            let report = run_checking_outstanding(server, &trace);
            assert_eq!(report.per_model.len(), models);
            assert_eq!(
                report.reconfigs.is_empty(),
                models == 1,
                "only the drift re-plans"
            );
            let merged = LatencyHistogram::merged(report.per_model.iter().map(|m| &m.histogram));
            assert_eq!(report.histogram, merged);
            let from_records: LatencyHistogram = report
                .records
                .iter()
                .map(|r| r.latency().as_nanos())
                .collect();
            assert_eq!(report.histogram, from_records);
            assert_eq!(report.histogram.count(), trace.len() as u64);
        }
    }
}
