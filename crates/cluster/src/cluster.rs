//! The cluster: N shards behind a router, plus capacity loaning, driven by
//! a windowed multi-lane DES (one event queue per shard, one coordinator).

use std::collections::VecDeque;

use des_engine::{pack_stamp, SimDuration, SimTime};
use inference_obs::{
    merge_online, FaultKind, FlightRecorder, MetricRegistry, ObsRequest, ObsSink, OnlineLane,
    QueryTrace, TraceEvent, TraceSink,
};
use inference_server::{
    observed_shares, MultiModelServer, MultiRunReport, ReportDetail, ShardEngine,
};
use inference_workload::{DriftDetector, TaggedQuerySpec};
use mig_gpu::{ResliceCostModel, COMPUTE_SLICES};
use paris_core::{GpcBudget, ReconfigMode};
use server_metrics::LatencyHistogram;

use crate::faults::{FaultEvent, FaultTimeline};
use crate::loan::{LoanEvent, LoanLedger, LoanPolicy};
use crate::parallel::{
    lane_threads, ArmedReplan, Command, Lane, LaneExecutor, Lanes, ProfilingExecutor,
    SerialExecutor, SyncWindow, WindowProfile, WorkerPool,
};
use crate::router::{RouterPolicy, RouterState};
use crate::shed::{degraded_capacity_gpus, ShedPolicy};

/// One arrival with an optional shard pin: `Some(shard)` queries go to
/// that shard while it is alive (shard-tagged skewed traces, per-query
/// affinity) and fall back to the router when it is not; `None` queries
/// are routed by the [`RouterPolicy`] as always.
pub type PinnedQuery = (Option<usize>, TaggedQuerySpec);

/// One fault event a run applied, with what it ripped loose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// When the event fired.
    pub at: SimTime,
    /// What happened.
    pub event: FaultEvent,
    /// Queries the event pulled off killed instances and requeued
    /// (non-zero only for [`FaultEvent::GpuFail`] hitting busy instances).
    pub requeued: u64,
}

/// A multi-server inference cluster: each *shard* is a full
/// [`MultiModelServer`] (its own GPC budget, PARIS-planned groups, per-model
/// schedulers, optional drift re-planning), and the cluster stacks N of
/// them behind a [`RouterPolicy`] inside one deterministic discrete-event
/// simulation, optionally lending batch-pool GPUs to overloaded shards
/// ([`LoanPolicy`]).
///
/// # Execution model
///
/// Shards only couple at gateway decisions — routing, shedding, loans,
/// faults. The engine exploits that: each shard advances on its own event
/// queue (a [`SyncWindow`]-bounded *lane*), and the coordinator exchanges
/// arrivals, loan transfers and fault commands with the lanes only at
/// window edges, through per-shard mailboxes ordered by the same
/// `(time, key)` stamps the event queues use. Lane advancement is a pure
/// function of the lane and its mailbox, so lookahead windows can advance
/// lanes on several threads and the result is **bit-for-bit identical at
/// any thread count** (invariant 11, pinned by the determinism suite).
///
/// # Degeneration contract
///
/// A cluster of exactly **one** shard with no loan policy is *bit-for-bit*
/// the shard's own [`MultiModelServer::run_stream`] — same records, same
/// latency samples, same utilization, same reconfigurations — for every
/// router policy (they all have one choice). The property suite enforces
/// this, pinning the cluster layer to the server semantics the PR-2
/// degeneration contract already pins to the single-model fast path.
///
/// # Conservation contract
///
/// No query is dropped or double-served across shard handoffs, loans or
/// reclaims: routing assigns each arrival to exactly one shard, and within
/// a shard the reconfiguration machinery drains quiesced instances and
/// stashes dark-group arrivals. In particular a reclaim that removes a GPU
/// mid-drain never strands a queued query. Unit and property tests enforce
/// this.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use inference_cluster::{Cluster, RouterPolicy, RunSpec};
/// use inference_workload::{BatchDistribution, MultiTraceGenerator, PhaseSpec};
/// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
/// use paris_core::{GpcBudget, ProfileTable};
/// use inference_server::{ModelSpec, MultiModelConfig, MultiModelServer, ReportDetail};
///
/// let perf = PerfModel::new(DeviceSpec::a100());
/// let dist = BatchDistribution::paper_default();
/// let table = ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
/// let shard = |gpus: usize| {
///     MultiModelServer::new(
///         vec![ModelSpec::new("mobilenet", table.clone(), dist.clone())],
///         GpcBudget::new(gpus * 7, gpus),
///         MultiModelConfig::new(),
///     )
/// };
/// let cluster = Cluster::new(vec![shard(2)?, shard(1)?], RouterPolicy::JoinShortestQueue);
/// let trace = MultiTraceGenerator::new(vec![PhaseSpec::new(0.3, vec![(400.0, dist)])], 7);
/// let arrivals = trace.stream().map(|tq| (None, tq));
/// let report = cluster.run_with(arrivals, &RunSpec::new(ReportDetail::Full)).report;
/// assert_eq!(report.completed(), report.routed.iter().sum::<u64>());
/// assert_eq!(report.per_shard.len(), 2);
/// # Ok::<(), paris_core::PlanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    shards: Vec<MultiModelServer>,
    router: RouterPolicy,
    loan: Option<LoanPolicy>,
    shed: Option<ShedPolicy>,
}

impl Cluster {
    /// Creates a cluster over the given shards.
    ///
    /// Every shard must host the same *number* of models (arrivals are
    /// tagged with a model index that must be meaningful on whichever
    /// shard the router picks — shards are replicas of one deployment,
    /// possibly with different capacities).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on model count.
    #[must_use]
    pub fn new(shards: Vec<MultiModelServer>, router: RouterPolicy) -> Self {
        assert!(!shards.is_empty(), "cluster needs at least one shard");
        let models = shards[0].models().len();
        assert!(
            shards.iter().all(|s| s.models().len() == models),
            "every shard must host the same number of models"
        );
        Cluster {
            shards,
            router,
            loan: None,
            shed: None,
        }
    }

    /// Enables Aryl-style capacity loaning from a batch pool.
    #[must_use]
    pub fn with_loan(mut self, loan: LoanPolicy) -> Self {
        self.loan = Some(loan);
        self
    }

    /// Enables brownout admission control: low-priority-class queries are
    /// rejected at the gateway when the picked shard's projected delay
    /// makes their SLA hopeless (see [`ShedPolicy`]). Models without an
    /// SLA are never shed (there is no budget to protect).
    #[must_use]
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = Some(shed);
        self
    }

    /// Does nothing, and is kept only because the benchmark crate
    /// (`perfbench/`) calls it. Every lane queue starts at its structural
    /// floor (one completion per partition, one reconfiguration timer, a
    /// small dispatch margin) and grows to the most events it ever holds.
    #[must_use]
    pub fn with_lane_capacity(self, _offered_qps: f64) -> Self {
        self
    }

    /// The hosted shards.
    #[must_use]
    pub fn shards(&self) -> &[MultiModelServer] {
        &self.shards
    }

    /// The routing policy.
    #[must_use]
    pub fn router(&self) -> RouterPolicy {
        self.router
    }

    /// The loan policy, if loaning is enabled.
    #[must_use]
    pub fn loan(&self) -> Option<&LoanPolicy> {
        self.loan.as_ref()
    }

    /// The brownout shed policy, if admission control is enabled.
    #[must_use]
    pub fn shed(&self) -> Option<&ShedPolicy> {
        self.shed.as_ref()
    }

    /// Simulates the cluster over `arrivals` (ascending arrival times,
    /// optionally shard-pinned — see [`PinnedQuery`]) as `spec` describes,
    /// until every accepted query completes. The one entry point: every
    /// other run function delegates here.
    ///
    /// Faults ([`RunSpec::faults`]) are injected into the same DES. GPU
    /// failures kill the instances packed on the failing GPU (their work
    /// requeues) and the shard re-plans onto the survivor budget; shard
    /// failures drop the shard from the routing rotation until repair;
    /// with a [`LoanPolicy`], every fault also triggers an immediate loan
    /// rebalance so the batch pool can backfill lost capacity. An empty
    /// timeline costs nothing until an event fires.
    ///
    /// For a fixed [`RunSpec::window`], **`threads` never changes the
    /// result** — the per-event and lookahead modes are each deterministic
    /// bit-for-bit at any thread count (invariant 11). The two window
    /// modes are *distinct models*, though: per-event windows give the
    /// coordinator exact fleet state at every decision (the sequential
    /// shared-queue order) and always run on the calling thread, while
    /// `Lookahead(L)` freezes its reads at each window's leading edge — an
    /// explicit model of cross-shard information latency, and the mode
    /// that spreads lanes over up to `threads` threads.
    ///
    /// Observation never changes the report either (invariant 12): with
    /// [`RunSpec::obs`] tracing, every lane's dispatch core and the gateway
    /// record the query lifecycle into one merged [`QueryTrace`]; with the
    /// online plane, each lane folds its hook stream into windowed
    /// aggregates merged in lane order into one [`MetricRegistry`] —
    /// byte-for-byte [`MetricRegistry::from_trace`] of the same run's trace
    /// (invariant 13). With [`RunSpec::profile`], the run advances every
    /// lane on the calling thread and also measures its
    /// [`WindowProfile`]; the report is again the unprofiled one.
    #[must_use]
    pub fn run_with<I>(&self, arrivals: I, spec: &RunSpec) -> RunOutput
    where
        I: IntoIterator<Item = PinnedQuery>,
    {
        let RunSpec {
            detail,
            ref faults,
            window,
            threads,
            obs,
            ref profile,
        } = *spec;
        let mut gw = Gateway::new(self, arrivals.into_iter(), faults, window);
        if !obs.is_off() {
            // The gateway records on its own lane, one past the shards
            // (no service events, so its online half needs no capacity).
            gw.trace = Some(ObsSink::for_request(obs, self.shards.len() as u32, 0));
        }
        let lanes: Vec<Lane<'_>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let mut engine = ShardEngine::new(shard, detail);
                if !obs.is_off() {
                    engine.set_sink(ObsSink::for_request(
                        obs,
                        s as u32,
                        shard.budget().total_gpcs as u32,
                    ));
                }
                Lane::new(s, engine, shard.budget().num_gpus, self.lane_capacity(s))
            })
            .collect();
        let threads = match profile {
            Some(_) => 1,
            None => lane_threads(window, threads, self.shards.len()),
        };
        let mut lanes = Lanes::new(lanes, threads);
        let profile = match profile {
            Some(counts) => {
                let mut exec = ProfilingExecutor::new(counts, window, self.shards.len());
                gw.drive(&mut lanes, &mut exec);
                Some(exec.into_profile())
            }
            None if threads <= 1 => {
                gw.drive(&mut lanes, &mut SerialExecutor);
                None
            }
            None => {
                std::thread::scope(|scope| {
                    let mut exec = WorkerPool::new(scope, threads);
                    gw.drive(&mut lanes, &mut exec);
                });
                None
            }
        };
        let (report, trace, registry) = gw.finish(lanes);
        RunOutput {
            report,
            trace,
            registry,
            profile,
        }
    }

    /// [`run_with`](Self::run_with), report only. Kept for perfbench, a
    /// fixed instrument; everything else calls `run_with`.
    #[must_use]
    pub fn run_windowed<I>(
        &self,
        arrivals: I,
        detail: ReportDetail,
        faults: &FaultTimeline,
        window: SyncWindow,
        threads: usize,
    ) -> ClusterReport
    where
        I: IntoIterator<Item = PinnedQuery>,
    {
        self.run_with(
            arrivals,
            &RunSpec::windowed(detail, faults, window, threads),
        )
        .report
    }

    /// [`run_with`](Self::run_with) with the flight recorder. Kept for
    /// perfbench, a fixed instrument; everything else calls `run_with`.
    #[must_use]
    pub fn run_windowed_traced<I>(
        &self,
        arrivals: I,
        detail: ReportDetail,
        faults: &FaultTimeline,
        window: SyncWindow,
        threads: usize,
    ) -> (ClusterReport, QueryTrace)
    where
        I: IntoIterator<Item = PinnedQuery>,
    {
        let spec =
            RunSpec::windowed(detail, faults, window, threads).with_obs(ObsRequest::traced());
        let out = self.run_with(arrivals, &spec);
        (out.report, out.trace.expect("tracing was requested"))
    }

    /// [`run_with`](Self::run_with) with the online telemetry plane on a
    /// `online_window_ns` grid. Kept for perfbench, a fixed instrument;
    /// everything else calls `run_with`.
    #[must_use]
    pub fn run_windowed_observed<I>(
        &self,
        arrivals: I,
        detail: ReportDetail,
        faults: &FaultTimeline,
        window: SyncWindow,
        threads: usize,
        online_window_ns: u64,
    ) -> (ClusterReport, MetricRegistry)
    where
        I: IntoIterator<Item = PinnedQuery>,
    {
        let spec = RunSpec::windowed(detail, faults, window, threads)
            .with_obs(ObsRequest::online(online_window_ns));
        let out = self.run_with(arrivals, &spec);
        (
            out.report,
            out.registry.expect("online telemetry was requested"),
        )
    }

    /// [`run_with`](Self::run_with) with the window profiler for each of
    /// `thread_counts`. Kept for perfbench, a fixed instrument; everything
    /// else calls `run_with`.
    #[must_use]
    pub fn run_windowed_profiled<I>(
        &self,
        arrivals: I,
        detail: ReportDetail,
        faults: &FaultTimeline,
        window: SyncWindow,
        thread_counts: &[usize],
    ) -> (ClusterReport, WindowProfile)
    where
        I: IntoIterator<Item = PinnedQuery>,
    {
        let spec = RunSpec::windowed(detail, faults, window, 1).with_profile(thread_counts);
        let out = self.run_with(arrivals, &spec);
        (out.report, out.profile.expect("profiling was requested"))
    }

    /// Per-lane GPC capacities (`lane_gpcs[s]` = shard `s`'s total GPC
    /// budget) — the busy-fraction denominators
    /// [`MetricRegistry::from_trace`] needs to reproduce an observed run's
    /// registry from its trace.
    #[must_use]
    pub fn lane_gpcs(&self) -> Vec<u32> {
        self.shards
            .iter()
            .map(|s| s.budget().total_gpcs as u32)
            .collect()
    }

    /// The event-queue capacity lane `s` starts with: its structural
    /// floor — one completion per partition, one reconfiguration timer, a
    /// small dispatch margin. The queue grows past it as the lane needs.
    fn lane_capacity(&self, s: usize) -> usize {
        let partitions: usize = self.shards[s].groups().iter().map(Vec::len).sum();
        partitions + 4
    }
}

/// How one [`Cluster::run_with`] call runs: report detail, fault
/// timeline, synchronization window, lane threads, observability and
/// window profiling. [`RunSpec::new`] is the plain run: no faults,
/// per-event windows on one thread, nothing observed or profiled.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// What each shard report keeps ([`ReportDetail::Full`] keeps every
    /// query's record).
    pub detail: ReportDetail,
    /// Hardware faults injected into the run (empty: none).
    pub faults: FaultTimeline,
    /// The synchronization window mode.
    pub window: SyncWindow,
    /// Lane threads; only lookahead windows use more than one.
    pub threads: usize,
    /// The flight recorder and/or the online metric plane.
    pub obs: ObsRequest,
    /// Measure the run's [`WindowProfile`] bucketed for each of these
    /// thread counts. Profiling advances every lane on the calling
    /// thread, whatever [`threads`](Self::threads) says.
    pub profile: Option<Vec<usize>>,
}

impl RunSpec {
    /// A fault-free, per-event, single-thread, unobserved run at `detail`.
    #[must_use]
    pub fn new(detail: ReportDetail) -> Self {
        RunSpec {
            detail,
            faults: FaultTimeline::empty(),
            window: SyncWindow::PerEvent,
            threads: 1,
            obs: ObsRequest::OFF,
            profile: None,
        }
    }

    /// Injects `faults`.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultTimeline) -> Self {
        self.faults = faults;
        self
    }

    /// Runs in `window` mode on up to `threads` lane threads.
    #[must_use]
    pub fn with_window(mut self, window: SyncWindow, threads: usize) -> Self {
        self.window = window;
        self.threads = threads;
        self
    }

    /// Observes the run as `obs` asks.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsRequest) -> Self {
        self.obs = obs;
        self
    }

    /// Profiles the run's windows for each of `thread_counts`.
    #[must_use]
    pub fn with_profile(mut self, thread_counts: &[usize]) -> Self {
        self.profile = Some(thread_counts.to_vec());
        self
    }

    fn windowed(
        detail: ReportDetail,
        faults: &FaultTimeline,
        window: SyncWindow,
        threads: usize,
    ) -> Self {
        RunSpec::new(detail)
            .with_faults(faults.clone())
            .with_window(window, threads)
    }
}

/// What one [`Cluster::run_with`] call produced: the report, plus each
/// output its [`RunSpec`] asked for.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Everything the run measured.
    pub report: ClusterReport,
    /// The merged flight-recorder trace, when [`RunSpec::obs`] traced.
    pub trace: Option<QueryTrace>,
    /// The online metric registry, when [`RunSpec::obs`] streamed one.
    pub registry: Option<MetricRegistry>,
    /// The window profile, when [`RunSpec::profile`] asked for one.
    pub profile: Option<WindowProfile>,
}

/// Everything measured during one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Each shard's full run report (records, per-model stats,
    /// reconfigurations), shard order.
    pub per_shard: Vec<MultiRunReport>,
    /// Queries the router sent to each shard.
    pub routed: Vec<u64>,
    /// Fleet-wide latency histogram (union of the shard histograms).
    pub histogram: LatencyHistogram,
    /// Time from first arrival to the last completion on any shard.
    pub makespan: SimDuration,
    /// Completed queries across the fleet divided by the makespan.
    pub achieved_qps: f64,
    /// Every GPU transfer between the batch pool and the shards, in order.
    pub loans: Vec<LoanEvent>,
    /// Every fault event the run applied, in order (empty without a
    /// [`FaultTimeline`]).
    pub faults: Vec<FaultRecord>,
    /// Queries of each model rejected at admission by the [`ShedPolicy`]
    /// (all-zero without one). Conservation invariant 10: every offered
    /// query is exactly served-or-shed — `completed() + shed` reconstructs
    /// the offered count, and a shed query never touches `routed` or any
    /// shard queue.
    pub shed_per_model: Vec<u64>,
    /// Opportunity cost of loaning: the integral of loaned-out GPUs over
    /// simulated time (GPU-seconds the batch pool could not use).
    pub loaned_gpu_seconds: f64,
    /// High-water mark of pending events, summed over the per-shard lane
    /// queues, plus the gateway's pending routing/fault items:
    /// O(total partitions + peak frontend backlog). Unlike the
    /// single-server engine (strictly O(partitions)), the cluster
    /// materializes admitted-but-undispatched queries as pending events —
    /// the price of routing every arrival against the fleet state at its
    /// own arrival instant.
    pub peak_pending_events: usize,
    /// Total simulation work: shard-lane events processed plus gateway
    /// items (arrivals routed or shed, fault events). Invariant under
    /// thread count — the events/sec denominator of the megacluster
    /// scaling bench.
    pub events_processed: u64,
}

impl ClusterReport {
    /// Total queries completed across the fleet.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.histogram.count()
    }

    /// Fleet-wide p95 tail latency, milliseconds (bucket-accurate).
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        self.histogram.p95_ms()
    }

    /// The worst per-model exact SLA violation rate across every shard —
    /// the metric a latency-bounded cluster throughput search constrains.
    #[must_use]
    pub fn worst_violation_rate(&self) -> f64 {
        self.per_shard
            .iter()
            .map(MultiRunReport::worst_violation_rate)
            .fold(0.0, f64::max)
    }

    /// The worst p95/SLA ratio across every shard and model (≤ 1 means the
    /// whole fleet met its SLAs).
    #[must_use]
    pub fn worst_p95_sla_ratio(&self) -> f64 {
        self.per_shard
            .iter()
            .flat_map(|r| &r.per_model)
            .filter_map(|m| m.sla_ns.map(|sla| m.p95_ms() / (sla as f64 / 1e6)))
            .fold(0.0, f64::max)
    }

    /// Mid-run reconfigurations across the fleet (drift re-plans plus
    /// loan-triggered re-plans).
    #[must_use]
    pub fn total_reconfigs(&self) -> usize {
        self.per_shard.iter().map(|r| r.reconfigs.len()).sum()
    }

    /// Total queries the shed policy rejected at admission.
    #[must_use]
    pub fn total_shed(&self) -> u64 {
        self.shed_per_model.iter().sum()
    }

    /// Fleet-wide latency decomposition: queue-wait and service-time
    /// percentiles over the merged per-shard histograms, plus the total
    /// reslice downtime charged by every reconfiguration on any shard.
    /// O(1) memory and available tracing on or off — the histograms are
    /// always maintained by the dispatch cores.
    #[must_use]
    pub fn breakdown(&self) -> server_metrics::LatencyBreakdown {
        let queue = LatencyHistogram::merged(self.per_shard.iter().map(|r| &r.queue_hist));
        let service = LatencyHistogram::merged(self.per_shard.iter().map(|r| &r.service_hist));
        let reconfig_wait_ns_total = self
            .per_shard
            .iter()
            .flat_map(|r| &r.reconfigs)
            .map(|rc| rc.reslice_delay.as_nanos())
            .sum();
        server_metrics::LatencyBreakdown::from_histograms(&queue, &service, reconfig_wait_ns_total)
    }
}

/// One gateway decision point: an arrival to route (and admit or shed) or
/// a fault-timeline event. These are the **only** instants shards couple;
/// everything between consecutive items is embarrassingly parallel lane
/// work.
enum GatewayItem {
    Route(PinnedQuery),
    Fault(FaultEvent),
}

/// The coordinator of one windowed cluster run: owns every cross-shard
/// decision (routing, shedding, loan ledger, fault bookkeeping, recovery
/// arming) and never touches a lane except through `(time, key)`-stamped
/// [`Command`]s and the window-edge harvest. Lanes own everything else.
struct Gateway<'a, I> {
    cluster: &'a Cluster,
    arrivals: I,
    sync: SyncWindow,
    router: RouterState,
    /// Cluster-level drift detector: one lane per shard × model, fed at
    /// routing time with the traffic each shard actually receives.
    detector: Option<DriftDetector>,
    ledger: Option<LoanLedger>,
    loans: Vec<LoanEvent>,
    /// Integral bookkeeping for the loaned-GPU opportunity cost.
    loan_out_total: usize,
    loan_since: SimTime,
    loaned_gpu_ns: u128,
    routed: Vec<u64>,
    n_models: usize,
    /// Tie-break key sequence + past-clamp clock for routing items.
    route_seq: u64,
    route_clock: SimTime,
    next_route: Option<(SimTime, u64, PinnedQuery)>,
    /// Shard liveness: failed shards leave the routing rotation.
    alive: Vec<bool>,
    /// Per shard, which of its base-budget GPU slots are currently failed.
    failed_gpus: Vec<Vec<bool>>,
    /// Per shard × base GPU slot: the active slow-GPU fault's
    /// `factor_milli`, if any. The throttled worker slots live on the lane
    /// (they are what the matching restore un-throttles); the coordinator
    /// mirror only decides double-degrade/restore no-ops and feeds the
    /// degrade-aware loan/shed estimators.
    degraded: Vec<Vec<Option<u32>>>,
    /// Per-shard planned capacity hints, the shed policy's
    /// projected-delay denominators.
    cap_hint: Vec<f64>,
    /// Per-model count of queries the shed policy rejected at admission.
    shed_per_model: Vec<u64>,
    /// Shards owing a recovery re-plan that has not fired yet (a
    /// reconfiguration was in flight, or the survivor budget cannot host
    /// one GPU per model until a repair).
    pending_recovery: Vec<bool>,
    /// How many entries of `pending_recovery` are set, so the per-item
    /// recovery sweep is free while none is owed.
    pending_recoveries: usize,
    /// The recovery re-plan id currently armed on each lane, if any —
    /// cleared when the lane reports it fired (window-edge harvest) or
    /// when infeasibility disarms it.
    outstanding_arm: Vec<Option<u64>>,
    arm_seq: u64,
    /// Remaining fault events, time order; the head is primed as the next
    /// fault item, the rest wait.
    fault_queue: VecDeque<(SimTime, FaultEvent)>,
    fault_clock: SimTime,
    next_fault: Option<(SimTime, u64, FaultEvent)>,
    fault_log: Vec<FaultRecord>,
    /// Tie-break key sequence for fault items.
    fault_seq: u64,
    /// Lookahead-mode staleness patches, reset at every window edge:
    /// offers delivered since the edge (so JSQ sees the load it already
    /// routed this window) and shards sent a Replan/Arm since the edge
    /// (so a rebalance defers instead of double-transferring). Always
    /// zero/false in per-event mode, where lane reads are exact.
    out_est: Vec<u64>,
    in_flight_est: Vec<bool>,
    items_processed: u64,
    last_item_at: SimTime,
    /// Gateway-lane observability sink — the retained-trace half, the
    /// online-telemetry half, or both (invariant 12: `None` leaves every
    /// decision path untouched — hooks are a discriminant test only).
    trace: Option<ObsSink>,
}

impl<'a, I: Iterator<Item = PinnedQuery>> Gateway<'a, I> {
    fn new(cluster: &'a Cluster, arrivals: I, faults: &FaultTimeline, sync: SyncWindow) -> Self {
        let n_models = cluster.shards[0].models().len();
        let n = cluster.shards.len();
        let cap_hint: Vec<f64> = cluster
            .shards
            .iter()
            .map(MultiModelServer::capacity_hint_qps)
            .collect();
        let detector = cluster.loan.as_ref().map(|lp| {
            let max_b = cluster
                .shards
                .iter()
                .flat_map(|s| s.models())
                .map(|m| m.table.max_batch())
                .max()
                .expect("at least one model");
            DriftDetector::new(n * n_models, max_b, lp.detector)
        });
        let ledger = cluster.loan.as_ref().map(|lp| {
            LoanLedger::new(
                cluster.shards.iter().map(|s| s.budget()).collect(),
                lp.pool_gpus,
            )
        });
        Gateway {
            cluster,
            arrivals,
            sync,
            cap_hint,
            router: RouterState::new(cluster.router, n),
            detector,
            ledger,
            loans: Vec::new(),
            loan_out_total: 0,
            loan_since: SimTime::ZERO,
            loaned_gpu_ns: 0,
            routed: vec![0; n],
            n_models,
            route_seq: 0,
            route_clock: SimTime::ZERO,
            next_route: None,
            alive: vec![true; n],
            failed_gpus: cluster
                .shards
                .iter()
                .map(|s| vec![false; s.budget().num_gpus])
                .collect(),
            degraded: cluster
                .shards
                .iter()
                .map(|s| vec![None; s.budget().num_gpus])
                .collect(),
            shed_per_model: vec![0; n_models],
            pending_recovery: vec![false; n],
            pending_recoveries: 0,
            outstanding_arm: vec![None; n],
            arm_seq: 0,
            fault_queue: faults.events().iter().copied().collect(),
            fault_clock: SimTime::ZERO,
            next_fault: None,
            fault_log: Vec::with_capacity(faults.events().len()),
            fault_seq: 0,
            out_est: vec![0; n],
            in_flight_est: vec![false; n],
            items_processed: 0,
            last_item_at: SimTime::ZERO,
            trace: None,
        }
    }

    /// Primes the next routing item from the arrival stream (stamped with
    /// the next route key; arrivals out of ascending order clamp forward,
    /// matching the old shared queue's never-backwards rule).
    fn prime_route(&mut self) {
        if let Some((pin, tq)) = self.arrivals.next() {
            let at = SimTime::from_nanos(tq.spec.arrival_ns).max(self.route_clock);
            self.route_clock = at;
            let key = self.route_seq;
            self.route_seq += 1;
            self.next_route = Some((at, key, (pin, tq)));
        }
    }

    /// Primes the fault queue's head as the next fault item.
    fn prime_fault(&mut self) {
        if let Some((at, ev)) = self.fault_queue.pop_front() {
            let at = at.max(self.fault_clock);
            self.fault_clock = at;
            let key = self.fault_seq;
            self.fault_seq += 1;
            self.next_fault = Some((at, key, ev));
        }
    }

    /// The `(time, key)` stamp of the next gateway item, if any.
    fn peek_stamp(&self) -> Option<(SimTime, u64)> {
        let r = self.next_route.as_ref().map(|&(t, k, _)| (t, k));
        let f = self.next_fault.as_ref().map(|&(t, k, _)| (t, k));
        match (r, f) {
            (Some(r), Some(f)) => Some(if r <= f { r } else { f }),
            (a, b) => a.or(b),
        }
    }

    /// Pops the next gateway item in `(time, key)` order (routing items
    /// win exact stamp ties — the one total order both sync modes share)
    /// and primes its successor.
    fn pop_item(&mut self) -> Option<(SimTime, u64, GatewayItem)> {
        let take_route = match (&self.next_route, &self.next_fault) {
            (Some(r), Some(f)) => (r.0, r.1) <= (f.0, f.1),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_route {
            let (t, k, pq) = self.next_route.take().expect("checked above");
            self.prime_route();
            Some((t, k, GatewayItem::Route(pq)))
        } else {
            let (t, k, ev) = self.next_fault.take().expect("checked above");
            self.prime_fault();
            Some((t, k, GatewayItem::Fault(ev)))
        }
    }

    /// Hands one command to a lane: applied synchronously in per-event
    /// mode (the lane is already at the decision's instant, so every
    /// later coordinator read sees its effect), mailboxed in lookahead
    /// mode (the lane executes it mid-window at the exact same stamp).
    /// Either way the lane-side code path is identical.
    fn deliver(&mut self, lanes: &mut Lanes<'a>, s: usize, t: SimTime, k: u64, cmd: Command) {
        if let SyncWindow::Lookahead(_) = self.sync {
            match &cmd {
                Command::Offer(_) => self.out_est[s] += 1,
                Command::Replan(_) | Command::Arm(_) => self.in_flight_est[s] = true,
                _ => {}
            }
            lanes[s].mailbox.push_back((pack_stamp(t, k), cmd));
        } else {
            lanes[s].apply(t, cmd);
        }
        self.refresh_load(lanes, s);
    }

    /// Re-keys shard `s` for join-shortest-queue from its current load and
    /// liveness. Called wherever either can change — after the lane
    /// advanced, after a command reached it, when it fails or is repaired —
    /// so routing never rescans the fleet.
    fn refresh_load(&mut self, lanes: &Lanes<'a>, s: usize) {
        let load = self.outstanding(lanes, s);
        self.router.set_load(s, load, self.alive[s]);
    }

    /// The join-shortest-queue pick recomputed over every lane — the live
    /// shard with the least [`outstanding`](Self::outstanding) load, lowest
    /// index first, over every shard when none is live. Debug builds check
    /// each keyed pick against it.
    fn jsq_oracle(&self, lanes: &Lanes<'a>) -> usize {
        let any_alive = self.alive.iter().any(|&a| a);
        (0..lanes.len())
            .filter(|&s| !any_alive || self.alive[s])
            .min_by_key(|&s| (self.outstanding(lanes, s), s))
            .expect("at least one shard")
    }

    /// Shard `s`'s outstanding-query count as the coordinator knows it:
    /// exact in per-event mode, edge-of-window plus own offers in
    /// lookahead mode.
    fn outstanding(&self, lanes: &Lanes<'a>, s: usize) -> u64 {
        lanes[s].engine.outstanding_queries() + self.out_est[s]
    }

    /// Whether shard `s` should be treated as mid-reconfiguration for
    /// deferral decisions (exact in per-event mode; in lookahead mode a
    /// Replan/Arm already sent this window counts).
    fn in_flight(&self, lanes: &Lanes<'a>, s: usize) -> bool {
        self.in_flight_est[s] || lanes[s].engine.reconfig_in_flight()
    }

    /// Handles one arrival at its arrival instant: routes it to a shard
    /// (its pinned shard if alive, the router otherwise), applies brownout
    /// admission control against that shard's projected delay, feeds the
    /// loan controller's detector with the routed load, acts on any drift
    /// it flags (causal — the window-closing arrival exists *now*), and
    /// delivers the query to the chosen shard's frontend.
    ///
    /// A shed query stops here: it never counts as routed, never reaches a
    /// queue, and never feeds the drift detector — admission control acts
    /// strictly before the query becomes load (invariant 10:
    /// served-or-shed, nothing in between).
    fn offer(
        &mut self,
        lanes: &mut Lanes<'a>,
        pin: Option<usize>,
        tq: TaggedQuerySpec,
        now: SimTime,
        key: u64,
    ) {
        let (s, pinned) = match pin {
            Some(p) if p < lanes.len() && self.alive[p] => (p, true),
            _ => {
                let s = self.router.pick(&self.alive);
                debug_assert!(
                    self.cluster.router != RouterPolicy::JoinShortestQueue
                        || s == self.jsq_oracle(lanes),
                    "a stale join-shortest-queue key picked shard {s}"
                );
                (s, false)
            }
        };
        if let Some(policy) = self.cluster.shed.as_ref() {
            let sla = self
                .cluster
                .shards
                .get(s)
                .and_then(|shard| shard.models().get(tq.model))
                .and_then(|m| m.sla_ns);
            if let Some(sla_ns) = sla {
                if policy.should_shed(tq.model, self.estimated_delay_ns(lanes, s), sla_ns) {
                    self.shed_per_model[tq.model] += 1;
                    if let Some(tr) = &mut self.trace {
                        tr.record(
                            now,
                            key,
                            TraceEvent::Shed {
                                model: tq.model,
                                shard: s,
                            },
                        );
                    }
                    return;
                }
            }
        }
        self.routed[s] += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(
                now,
                key,
                TraceEvent::RouteDecision {
                    model: tq.model,
                    shard: s,
                    pinned,
                },
            );
        }
        let report = self.detector.as_mut().and_then(|det| {
            det.observe(
                s * self.n_models + tq.model,
                tq.spec.arrival_ns,
                tq.spec.batch,
            )
        });
        if report.is_some() {
            self.rebalance(lanes, now, key);
        }
        self.deliver(lanes, s, now, key, Command::Offer(tq));
    }

    /// Estimated demand of shard `s` in full-GPU equivalents **at live
    /// efficiency**: each model's observed rate divided by the throughput
    /// one GPU's worth of its *currently serving* partition mix delivers
    /// at the observed mean batch. A shard offered exactly its current
    /// capacity therefore estimates demand ≈ its GPU count — the scale the
    /// [`LoanPolicy`] thresholds are written against. (Naive full-GPU
    /// equivalents — rate × largest-partition latency — would be off by
    /// the whole MIG packing gain, which exceeds 5× for the small models.)
    ///
    /// The efficiency reference is the engine's **live** group, not the
    /// initial plan: after heavy re-planning the planned mix no longer
    /// describes what is running, and normalizing against it would skew
    /// borrow/reclaim decisions by the drift between the two mixes. A
    /// group momentarily dark mid-reconfiguration (no live instances)
    /// falls back to the initial plan rather than dividing by zero.
    fn shard_demand_gpus(&self, lanes: &Lanes<'a>, s: usize) -> f64 {
        let detector = self.detector.as_ref().expect("demand needs the detector");
        let rates = detector.observed_rates_qps();
        let shard = &self.cluster.shards[s];
        let live = lanes[s].engine.live_groups();
        shard
            .models()
            .iter()
            .enumerate()
            .map(|(m, spec)| {
                let lane = s * self.n_models + m;
                let dist = detector
                    .observed_distribution(lane)
                    .unwrap_or_else(|| spec.dist.clone());
                let group: &[mig_gpu::ProfileSize] = if live[m].is_empty() {
                    &shard.groups()[m]
                } else {
                    &live[m]
                };
                let group_qps = spec.table.capacity_qps(group, &dist);
                let group_gpcs: usize = group.iter().map(|&size| size.gpcs()).sum();
                let per_gpu_qps = group_qps * mig_gpu::COMPUTE_SLICES as f64 / group_gpcs as f64;
                rates.get(lane).copied().unwrap_or(0.0) / per_gpu_qps
            })
            .sum()
    }

    /// Number of shard `s`'s base-budget GPUs currently failed.
    fn failed_count(&self, s: usize) -> usize {
        self.failed_gpus[s].iter().filter(|&&f| f).count()
    }

    /// `budget` with shard `s`'s failed GPUs removed (whole GPUs at
    /// [`COMPUTE_SLICES`] GPCs each). `None` when no whole GPU survives.
    fn minus_failed(&self, s: usize, budget: GpcBudget) -> Option<GpcBudget> {
        let failed = self.failed_count(s);
        if failed == 0 {
            return Some(budget);
        }
        if budget.num_gpus <= failed {
            return None;
        }
        let gpus = budget.num_gpus - failed;
        let gpcs = budget
            .total_gpcs
            .saturating_sub(failed * COMPUTE_SLICES)
            .clamp(1, gpus * COMPUTE_SLICES);
        Some(GpcBudget::new(gpcs, gpus))
    }

    /// The budget shard `s` actually serves with right now: its base share
    /// plus held loans, minus failed GPUs. `None` when every GPU is down.
    fn effective_budget(&self, s: usize) -> Option<GpcBudget> {
        let held = match &self.ledger {
            Some(l) => l.budget_with_loans(s, l.loaned[s]),
            None => self.cluster.shards[s].budget(),
        };
        self.minus_failed(s, held)
    }

    /// Active slow-GPU factors on shard `s`'s surviving base slots (a
    /// failed slot's degrade no longer throttles anything — the GPU is
    /// gone, not slow).
    fn active_degrades(&self, s: usize) -> impl Iterator<Item = u32> + '_ {
        self.degraded[s]
            .iter()
            .zip(self.failed_gpus[s].iter())
            .filter(|&(_, &failed)| !failed)
            .filter_map(|(&d, _)| d)
    }

    /// Projected queueing delay on shard `s` for admission control:
    /// outstanding queries over the shard's planned capacity, scaled by
    /// the fraction of its base GPUs still effective — where "effective"
    /// is degrade-aware: a GPU throttled 4× contributes a quarter of a
    /// GPU ([`degraded_capacity_gpus`]). Deliberately coarse — the shed
    /// policy only needs a monotone overload signal, and this one is O(1)
    /// per arrival. A shard with no surviving GPU projects infinite delay
    /// (everything sheddable sheds until repair).
    fn estimated_delay_ns(&self, lanes: &Lanes<'a>, s: usize) -> f64 {
        let Some(budget) = self.effective_budget(s) else {
            return f64::INFINITY;
        };
        let base_gpus = self.cluster.shards[s].budget().num_gpus.max(1);
        let cap_gpus = degraded_capacity_gpus(budget.num_gpus, self.active_degrades(s));
        let cap_qps = self.cap_hint[s] * cap_gpus / base_gpus as f64;
        if cap_qps <= 0.0 {
            return f64::INFINITY;
        }
        self.outstanding(lanes, s) as f64 / cap_qps * 1e9
    }

    /// Acts on the freshest trusted detector window: reclaims first
    /// (freeing the pool), then lends to overloaded shards. Shards
    /// mid-reconfiguration defer — the detector keeps its old baseline so
    /// the next window re-triggers and the deferred transfer gets another
    /// chance. Dead shards are skipped (they drain until repair), and a
    /// shard's owned/held GPU counts are failure-adjusted so lost capacity
    /// reads as a genuine shortfall the pool can backfill.
    fn rebalance(&mut self, lanes: &mut Lanes<'a>, now: SimTime, key: u64) {
        let demand: Vec<f64> = (0..lanes.len())
            .map(|s| self.shard_demand_gpus(lanes, s))
            .collect();
        let mut deferred = false;
        // Pass 0 executes returns, pass 1 borrows — so one window's
        // reclaims can fund its loans.
        for pass in 0..2 {
            for (s, &shard_demand) in demand.iter().enumerate() {
                if !self.alive[s] {
                    continue;
                }
                let failed = self.failed_count(s);
                let policy = self.cluster.loan.as_ref().expect("policy present");
                let ledger = self.ledger.as_ref().expect("ledger exists with policy");
                let base = ledger.base[s].num_gpus - failed;
                let current = base + ledger.loaned[s];
                let target = policy.target_gpus(shard_demand, base, current, ledger.pool_free);
                let delta = target as i64 - current as i64;
                if (pass == 0 && delta >= 0) || (pass == 1 && delta <= 0) {
                    continue;
                }
                if self.in_flight(lanes, s) {
                    deferred = true;
                    continue;
                }
                self.apply_transfer(lanes, s, delta, now, key);
            }
        }
        if !deferred {
            self.detector
                .as_mut()
                .expect("rebalance implies detector")
                .rebaseline();
        }
    }

    /// Moves `delta` GPUs between the pool and shard `s` and re-plans the
    /// shard onto its new budget, charging the reslice plus the per-GPU
    /// handover cost (a transfer the new plan ignores interrupts nothing
    /// and charges nothing — the moved GPU just sits in the new pool).
    /// Declined — no ledger mutation, no re-plan — when the
    /// failure-adjusted result could not host one GPU and one GPC per
    /// model.
    fn apply_transfer(
        &mut self,
        lanes: &mut Lanes<'a>,
        s: usize,
        delta: i64,
        now: SimTime,
        key: u64,
    ) {
        {
            let ledger = self.ledger.as_ref().expect("ledger exists with policy");
            let held = ledger.budget_with_loans(
                s,
                (ledger.loaned[s] as i64 + delta)
                    .try_into()
                    .expect("loans never go negative"),
            );
            match self.minus_failed(s, held) {
                Some(b) if b.num_gpus >= self.n_models && b.total_gpcs >= self.n_models => {}
                _ => return,
            }
        }
        let detector = self.detector.as_ref().expect("transfer implies detector");
        // Budget shares from the observed traffic — the same rule the
        // shard's own drift re-planner splits budgets by.
        let (weights, dists) =
            observed_shares(self.cluster.shards[s].models(), detector, s * self.n_models);

        // Opportunity-cost integral: close the period at the old loan
        // level before the transfer changes it.
        self.loaned_gpu_ns +=
            self.loan_out_total as u128 * u128::from((now - self.loan_since).as_nanos());
        self.loan_since = now;
        let moved = delta.unsigned_abs() as usize;
        self.loan_out_total = if delta > 0 {
            self.loan_out_total + moved
        } else {
            self.loan_out_total - moved
        };

        let mode = self
            .cluster
            .loan
            .as_ref()
            .expect("loan policy present")
            .mode;
        let ledger = self.ledger.as_mut().expect("ledger exists with policy");
        let held = ledger.transfer(s, delta);
        let pool_free_after = ledger.pool_free;
        let budget = self
            .minus_failed(s, held)
            .expect("feasibility was checked before the transfer");
        let extra =
            SimDuration::from_nanos(ResliceCostModel::a100_default().gpu_handover_ns(moved));
        self.deliver(
            lanes,
            s,
            now,
            key,
            Command::Replan(Box::new(ArmedReplan {
                id: 0,
                budget,
                weights,
                dists,
                extra_downtime: extra,
                mode,
            })),
        );
        if let Some(tr) = &mut self.trace {
            tr.record(
                now,
                key,
                TraceEvent::Loan {
                    shard: s,
                    gpus_delta: delta,
                    pool_free_after,
                },
            );
        }
        self.loans.push(LoanEvent {
            at: now,
            shard: s,
            gpus_delta: delta,
            pool_free_after,
        });
    }

    /// Applies one fault-timeline event. A capacity event is also a loan
    /// trigger in its own right: with a loan policy the controller
    /// rebalances immediately — the batch pool backfills a failure without
    /// waiting for statistical drift (steady traffic routed around a dead
    /// GPU may never drift enough to re-trigger the detector). The
    /// rebalance runs **before** the shard's own recovery re-plan so a
    /// backfill borrow and the recovery land in one transition; the armed
    /// recovery afterwards is then a no-op (or the fallback when no
    /// transfer engaged).
    fn on_fault(&mut self, lanes: &mut Lanes<'a>, event: FaultEvent, now: SimTime, key: u64) {
        let log_idx = self.fault_log.len();
        // Requeue counts are harvested from the lane that executes the
        // kill and patched into this record at the next window edge.
        self.fault_log.push(FaultRecord {
            at: now,
            event,
            requeued: 0,
        });
        if let Some(tr) = &mut self.trace {
            let (kind, shard, gpu, factor_milli) = match event {
                FaultEvent::GpuFail { shard, gpu } => (FaultKind::GpuFail, shard, gpu, 0),
                FaultEvent::GpuRepair { shard, gpu } => (FaultKind::GpuRepair, shard, gpu, 0),
                FaultEvent::GpuDegrade {
                    shard,
                    gpu,
                    factor_milli,
                } => (FaultKind::GpuDegrade, shard, gpu, factor_milli),
                FaultEvent::GpuRestore { shard, gpu } => (FaultKind::GpuRestore, shard, gpu, 0),
                FaultEvent::ShardFail { shard } => (FaultKind::ShardFail, shard, 0, 0),
                FaultEvent::ShardRepair { shard } => (FaultKind::ShardRepair, shard, 0, 0),
            };
            tr.record(
                now,
                key,
                TraceEvent::Fault {
                    kind,
                    shard,
                    gpu,
                    factor_milli,
                },
            );
        }
        match event {
            FaultEvent::GpuFail { shard, gpu } => {
                // Double-fail or unknown slot: a genuine no-op — no kill,
                // no rebalance, no re-plan, no divergence from the
                // single-fail run.
                if self.mark_failed(shard, gpu) {
                    self.deliver(lanes, shard, now, key, Command::Kill { gpu, log_idx });
                    if self.cluster.loan.is_some() {
                        self.rebalance(lanes, now, key);
                    }
                    self.request_recovery(lanes, shard, now, key);
                }
            }
            FaultEvent::GpuRepair { shard, gpu } => {
                if self.mark_repaired(shard, gpu) {
                    if self.cluster.loan.is_some() {
                        self.rebalance(lanes, now, key);
                    }
                    self.request_recovery(lanes, shard, now, key);
                }
            }
            FaultEvent::GpuDegrade {
                shard,
                gpu,
                factor_milli,
            } => {
                // Capacity is not lost, only slowed: no rebalance, no
                // recovery re-plan — a degrade-aware dispatcher steers
                // around the slow instances on its own. Double-degrades
                // and unknown slots are no-ops.
                if shard < self.degraded.len()
                    && gpu < self.degraded[shard].len()
                    && self.degraded[shard][gpu].is_none()
                {
                    self.degraded[shard][gpu] = Some(factor_milli);
                    self.deliver(
                        lanes,
                        shard,
                        now,
                        key,
                        Command::Degrade { gpu, factor_milli },
                    );
                }
            }
            FaultEvent::GpuRestore { shard, gpu } => {
                if shard < self.degraded.len()
                    && gpu < self.degraded[shard].len()
                    && self.degraded[shard][gpu].take().is_some()
                {
                    self.deliver(lanes, shard, now, key, Command::Restore { gpu });
                }
            }
            FaultEvent::ShardFail { shard } => {
                // A drain, not a kill: the router stops sending traffic
                // and the shard serves out what it already holds.
                if shard < self.alive.len() {
                    self.alive[shard] = false;
                    self.refresh_load(lanes, shard);
                }
                if self.cluster.loan.is_some() {
                    self.rebalance(lanes, now, key);
                }
            }
            FaultEvent::ShardRepair { shard } => {
                if shard < self.alive.len() && !self.alive[shard] {
                    self.alive[shard] = true;
                    self.refresh_load(lanes, shard);
                    if self.cluster.loan.is_some() {
                        self.rebalance(lanes, now, key);
                    }
                    // Rejoin with a fresh plan for the traffic observed
                    // during the outage (a no-op if PARIS lands on the
                    // running layout).
                    self.request_recovery(lanes, shard, now, key);
                }
            }
        }
    }

    /// Marks a base GPU slot failed. Unknown slots and double-fails return
    /// `false` — nothing changed, so the caller must not react either.
    fn mark_failed(&mut self, s: usize, gpu: usize) -> bool {
        if s >= self.failed_gpus.len()
            || gpu >= self.failed_gpus[s].len()
            || self.failed_gpus[s][gpu]
        {
            return false;
        }
        self.failed_gpus[s][gpu] = true;
        true
    }

    /// The failed GPU returns: restores the budget slot (the caller
    /// re-plans next). Repairs of healthy slots are no-ops (`false`).
    fn mark_repaired(&mut self, s: usize, gpu: usize) -> bool {
        if s >= self.failed_gpus.len()
            || gpu >= self.failed_gpus[s].len()
            || !self.failed_gpus[s][gpu]
        {
            return false;
        }
        self.failed_gpus[s][gpu] = false;
        true
    }

    /// Marks shard `s` as owing a recovery re-plan and (re-)arms the lane
    /// with a fresh payload — the budget or traffic picture just changed,
    /// so any previously armed re-plan is stale.
    fn request_recovery(&mut self, lanes: &mut Lanes<'a>, s: usize, now: SimTime, key: u64) {
        self.set_pending_recovery(s, true);
        self.arm_recovery(lanes, s, now, key, true);
    }

    /// Sets whether shard `s` owes a recovery re-plan, keeping
    /// `pending_recoveries` in step.
    fn set_pending_recovery(&mut self, s: usize, pending: bool) {
        if self.pending_recovery[s] != pending {
            self.pending_recovery[s] = pending;
            if pending {
                self.pending_recoveries += 1;
            } else {
                self.pending_recoveries -= 1;
            }
        }
    }

    /// Arms (or re-arms, with `force`) shard `s`'s pending recovery: an
    /// owned re-plan payload the lane fires the moment no reconfiguration
    /// is in flight — after any of its local events, exactly where the
    /// sequential engine's recovery poke retried. Infeasible recoveries
    /// (the survivor budget cannot host one GPU and one GPC per model)
    /// disarm instead: until a repair or a loan changes the budget, the
    /// shard keeps serving on what survives and the recovery stays owed.
    fn arm_recovery(
        &mut self,
        lanes: &mut Lanes<'a>,
        s: usize,
        now: SimTime,
        key: u64,
        force: bool,
    ) {
        if !self.pending_recovery[s] || (!force && self.outstanding_arm[s].is_some()) {
            return;
        }
        let feasible = match self.effective_budget(s) {
            Some(b) => b.num_gpus >= self.n_models && b.total_gpcs >= self.n_models,
            None => false,
        };
        if !feasible {
            if self.outstanding_arm[s].take().is_some() {
                self.deliver(lanes, s, now, key, Command::Disarm);
            }
            return;
        }
        let budget = self.effective_budget(s).expect("feasibility checked");
        let specs = self.cluster.shards[s].models();
        let (weights, dists) = match &self.detector {
            Some(det) => observed_shares(specs, det, s * self.n_models),
            None => (
                vec![1.0; specs.len()],
                specs.iter().map(|spec| spec.dist.clone()).collect(),
            ),
        };
        self.arm_seq += 1;
        let id = self.arm_seq;
        self.outstanding_arm[s] = Some(id);
        self.deliver(
            lanes,
            s,
            now,
            key,
            Command::Arm(Box::new(ArmedReplan {
                id,
                budget,
                weights,
                dists,
                extra_downtime: SimDuration::ZERO,
                mode: ReconfigMode::Rolling,
            })),
        );
    }

    /// Arms any pending-but-unarmed recovery whose feasibility flipped as
    /// a side effect of this gateway item (a loan transfer grew the
    /// survivor budget, say) — the windowed sibling of the sequential
    /// engine's retry-on-every-event poke.
    fn sweep_recoveries(&mut self, lanes: &mut Lanes<'a>, now: SimTime, key: u64) {
        if self.pending_recoveries == 0 {
            return;
        }
        for s in 0..lanes.len() {
            if self.pending_recovery[s] && self.outstanding_arm[s].is_none() {
                self.arm_recovery(lanes, s, now, key, false);
            }
        }
    }

    /// Collects what the lanes did since the last synchronization point:
    /// requeue counts from executed kills (patched into the fault log) and
    /// fired recovery ids (clearing the pending/armed bookkeeping).
    fn harvest(&mut self, lanes: &mut Lanes<'a>) {
        for lane in lanes.iter_mut() {
            for (idx, requeued) in lane.requeue_patches.drain(..) {
                self.fault_log[idx].requeued += requeued;
            }
            for id in lane.fired.drain(..) {
                if self.outstanding_arm[lane.shard] == Some(id) {
                    self.outstanding_arm[lane.shard] = None;
                    self.set_pending_recovery(lane.shard, false);
                }
            }
        }
    }

    /// Re-keys every lane the last window advanced (the only lanes whose
    /// load it can have changed).
    fn refresh_advanced(&mut self, lanes: &Lanes<'a>) {
        for &s in lanes.active() {
            self.refresh_load(lanes, s);
        }
    }

    /// Processes one gateway item at its stamp.
    fn process(&mut self, lanes: &mut Lanes<'a>, t: SimTime, k: u64, item: GatewayItem) {
        self.items_processed += 1;
        self.last_item_at = self.last_item_at.max(t);
        match item {
            GatewayItem::Route((pin, tq)) => self.offer(lanes, pin, tq, t, k),
            GatewayItem::Fault(ev) => self.on_fault(lanes, ev, t, k),
        }
    }

    /// The run loop: alternate lane advancement (possibly on worker
    /// threads) with gateway decisions, in the sync mode's window
    /// structure, then drain the lanes to completion.
    fn drive(&mut self, lanes: &mut Lanes<'a>, exec: &mut dyn LaneExecutor<'a>) {
        self.prime_route();
        self.prime_fault();
        match self.sync {
            SyncWindow::PerEvent => {
                while let Some((t, k, item)) = self.pop_item() {
                    // Every lane reaches exactly this decision's stamp, so
                    // each coordinator read below is the sequential
                    // shared-queue value.
                    exec.advance_all(lanes, (t, k));
                    self.harvest(lanes);
                    self.refresh_advanced(lanes);
                    self.process(lanes, t, k, item);
                    self.harvest(lanes);
                    self.sweep_recoveries(lanes, t, k);
                }
            }
            SyncWindow::Lookahead(width) => {
                let w = width.as_nanos().max(1);
                while let Some((first, _)) = self.peek_stamp() {
                    // The window on the absolute grid containing the next
                    // item; empty windows are skipped wholesale.
                    let edge_ns = (first.as_nanos() / w) * w;
                    let end_ns = edge_ns.saturating_add(w);
                    exec.advance_all(lanes, (SimTime::from_nanos(edge_ns), 0));
                    self.harvest(lanes);
                    // Only lanes with mailboxed commands carry estimates,
                    // and those all advanced: re-keying the advanced lanes
                    // re-keys every reset estimate.
                    self.out_est.iter_mut().for_each(|o| *o = 0);
                    self.in_flight_est.iter_mut().for_each(|f| *f = false);
                    self.refresh_advanced(lanes);
                    // All of this window's decisions fire against the
                    // edge state (plus the staleness patches); their
                    // commands execute mid-window at exact stamps when
                    // the lanes next advance.
                    while let Some((t, _)) = self.peek_stamp() {
                        if t.as_nanos() >= end_ns {
                            break;
                        }
                        let (t, k, item) = self.pop_item().expect("peeked above");
                        self.process(lanes, t, k, item);
                        self.sweep_recoveries(lanes, t, k);
                    }
                }
            }
        }
        exec.advance_all(lanes, (SimTime::MAX, u64::MAX));
        self.harvest(lanes);
    }

    /// Assembles the report (and, when observing, the merged trace and/or
    /// online metric registry) after the final drain.
    fn finish(
        mut self,
        lanes: Lanes<'a>,
    ) -> (ClusterReport, Option<QueryTrace>, Option<MetricRegistry>) {
        let end = lanes
            .iter()
            .map(|l| l.sim.now())
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(self.last_item_at);
        self.loaned_gpu_ns +=
            self.loan_out_total as u128 * u128::from((end - self.loan_since).as_nanos());
        // The gateway holds at most one primed route and one primed fault
        // alongside the lane queues.
        let peak: usize = lanes.iter().map(|l| l.sim.peak_pending()).sum::<usize>() + 2;
        let events: u64 =
            lanes.iter().map(|l| l.sim.events_processed()).sum::<u64>() + self.items_processed;
        // Split each lane's sink into its retained-trace and online
        // halves: recorders merge into one global trace, online lanes
        // merge (in lane order) into the metric registry.
        let mut recorders: Vec<FlightRecorder> = Vec::new();
        let mut online: Vec<OnlineLane> = Vec::new();
        if let Some(sink) = self.trace.take() {
            recorders.extend(sink.trace);
            online.extend(sink.online);
        }
        let traced = !recorders.is_empty();
        let per_shard: Vec<MultiRunReport> = lanes
            .into_iter()
            .map(|mut l| {
                let lane_peak = l.sim.peak_pending();
                if let Some(sink) = l.engine.take_sink() {
                    recorders.extend(sink.trace);
                    online.extend(sink.online);
                }
                l.engine.finish(lane_peak)
            })
            .collect();
        let histogram = LatencyHistogram::merged(per_shard.iter().map(|r| &r.histogram));
        let makespan = per_shard
            .iter()
            .map(|r| r.makespan)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let makespan_s = makespan.as_secs_f64();
        let completed = histogram.count();
        let report = ClusterReport {
            routed: self.routed,
            shed_per_model: self.shed_per_model,
            histogram,
            makespan,
            achieved_qps: if makespan_s > 0.0 {
                completed as f64 / makespan_s
            } else {
                0.0
            },
            loans: self.loans,
            faults: self.fault_log,
            loaned_gpu_seconds: self.loaned_gpu_ns as f64 / 1e9,
            peak_pending_events: peak,
            events_processed: events,
            per_shard,
        };
        let trace = traced.then(|| QueryTrace::merge(recorders));
        let registry = (!online.is_empty()).then(|| {
            let window_ns = online[0].window_ns();
            merge_online(window_ns, online, &self.cluster.lane_gpcs())
        });
        (report, trace, registry)
    }
}
