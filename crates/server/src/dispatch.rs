//! The **one** dispatch engine behind every serving layer.
//!
//! [`DispatchCore`] is the generic dispatch/complete/drain core. It is
//! parameterized over a *worker → group* mapping: every worker slot
//! belongs to exactly one group, each group owns its scheduler state (an
//! ELSA incremental state or a FIFS idle set + central queue), and
//! arrivals are offered with a group index. The multi-model
//! [`ShardEngine`](crate::ShardEngine) instantiates it with one group per
//! model; [`InferenceServer`](crate::InferenceServer) runs as a 1-model
//! [`MultiModelServer`](crate::MultiModelServer), and the cluster hosts
//! many shard engines inside one shared DES. The core is crate-private:
//! `ShardEngine` is the one public engine.
//!
//! The core also owns **reconfiguration execution**: it consumes a
//! [`ReconfigSchedule`] — per-group [`PlanDiff`](paris_core::PlanDiff)s cut
//! into sequential steps by a [`ReconfigMode`](paris_core::ReconfigMode) —
//! quiescing each step's removals, draining them in simulated time,
//! charging the step's driver downtime, bringing its additions online, and
//! only then advancing to the next step. All-at-once schedules reproduce
//! the historical single-outage behavior bit-for-bit; rolling schedules
//! bound the capacity offline at any instant to one GPU's worth.
//!
//! # Hot-path invariants
//!
//! The per-query path is allocation-free and O(log P) once warm, exactly
//! as the PR-1 contract demands: streamed arrivals (the driver injects the
//! next arrival while handling a dispatch), keyed same-instant event order
//! (dispatches by query id strictly before completions in scheduling
//! order), incremental ELSA state, borrowed per-slot latency rows, and
//! summary-detail runs that materialize nothing per query. The semantic
//! oracle remains [`InferenceServer::run_reference`]
//! (crate::InferenceServer::run_reference): the equivalence suites in
//! `server.rs`, `multi.rs` and `tests/properties.rs` pin every layer to
//! it, bit for bit.

use std::collections::VecDeque;

use des_engine::{SimDuration, SimTime};
use inference_obs::{ObsSink, TraceEvent, TraceSink, ANNOTATION_KEY};
use inference_workload::QuerySpec;
use mig_gpu::ProfileSize;
use paris_core::{
    scale_ns, Elsa, ElsaState, LoadSet, ProfileTable, ReconfigSchedule, ReconfigStep,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server_metrics::{LatencyHistogram, LatencyRecorder};

use crate::multi::{ModelReport, MultiRunReport, ReconfigEvent};
use crate::query::{Query, QueryId, QueryRecord};
use crate::server::{ReportDetail, SchedulerKind};
use crate::worker::PartitionWorker;

/// Events driving one [`ShardEngine`](crate::ShardEngine).
///
/// Public so an external driver can own the event loop: a cluster hosting
/// many shards inside one DES wraps each engine's events with its shard
/// index and routes them back to the owning engine. The in-crate driver is
/// [`MultiModelServer::run_stream`](crate::MultiModelServer::run_stream),
/// which every `InferenceServer` run goes through too.
#[derive(Debug, Clone, Copy)]
pub enum ShardEvent {
    /// The frontend finished preparing a query for the group with this
    /// index.
    Dispatch(Query, usize),
    /// A partition finished its current query.
    Complete {
        /// The worker-slot index within the core (indexes the report's
        /// partition vectors).
        worker: usize,
    },
    /// One reconfiguration step's drain + reslice finished: bring its new
    /// instances online and advance the schedule. The epoch stamps which
    /// transition armed the event: a transition aborted mid-flight (a
    /// fault landed on it) leaves its already-scheduled ready event in the
    /// DES, and the stamp is how the core recognizes it as stale — a
    /// *newer* transition's ready can legitimately fire at the very same
    /// instant, so "ignore the next one" counting would misfire.
    ReconfigReady {
        /// The arming transition's epoch (engine-local, monotonic).
        epoch: u64,
    },
}

/// Same-instant ordering: all dispatches (by query id) strictly before all
/// completions (by scheduling order) — the order the pre-loaded seed
/// implementation produced through its FIFO sequence numbers. A
/// reconfiguration step completion goes last.
const COMPLETE_KEY_BASE: u64 = 1 << 63;
const RECONFIG_KEY: u64 = u64::MAX;

/// Serial frontend service time per query (query decode + dispatch) — what
/// bottlenecked the paper's 48×GPU(1) MobileNet config. Every layer and
/// the reference path charge the same 20 µs.
pub(crate) const FRONTEND_OVERHEAD: SimDuration = SimDuration::from_micros(20);

/// Turns a profiled latency of `base_ns` nanoseconds into a service time
/// under multiplicative normal noise of relative stddev `noise`. One
/// shared implementation keeps the noise stream aligned draw-for-draw
/// across the dispatch core and `run_reference`.
pub(crate) fn noisy_service_duration(
    noise: f64,
    base_ns: u64,
    noise_rng: &mut StdRng,
) -> SimDuration {
    if noise > 0.0 {
        // Box–Muller: two uniforms → one standard normal draw. The
        // second uniform is always consumed so the stream stays aligned
        // across implementations.
        let u1: f64 = noise_rng.gen();
        let u2: f64 = noise_rng.gen();
        let z = (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let factor = (1.0 + noise * z).max(0.1);
        SimDuration::from_nanos((base_ns as f64 * factor).round() as u64)
    } else {
        SimDuration::from_nanos(base_ns)
    }
}

/// Everything one group (one model's partition set) needs from its owner.
#[derive(Debug, Clone)]
pub(crate) struct GroupSpec<'a> {
    /// Group name, surfaced in per-group reports.
    pub name: &'a str,
    /// The profiled latency table the group schedules with.
    pub table: &'a ProfileTable,
    /// The group's scheduling policy.
    pub scheduler: SchedulerKind,
    /// SLA target for exact per-group violation counting, if any.
    pub sla_ns: Option<u64>,
}

/// Run-level knobs of a dispatch core (the policy-free subset of
/// `MultiModelConfig`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreConfig {
    /// Relative stddev of multiplicative service-time noise (0 = exact).
    pub service_noise: f64,
    /// Seed for the service-noise RNG.
    pub noise_seed: u64,
    /// How much per-query material the run keeps.
    pub detail: ReportDetail,
    /// Whether schedulers *see* per-slot degrade factors
    /// ([`DispatchCore::set_degrade`]): when `true` (the default
    /// everywhere), ELSA's estimates are inflated on slow slots so
    /// placement steers around sick hardware; when `false` the scheduler
    /// plans with clean profiles while execution still runs slow — the
    /// degradation-blind ablation a resilience bench compares against.
    /// Physical service times are scaled either way.
    pub degrade_visible: bool,
}

/// One partition's identity and lifecycle within a run.
#[derive(Debug)]
struct WorkerSlot {
    worker: PartitionWorker,
    group: usize,
    /// Index within the owning group's member list (meaningless while
    /// retiring/retired).
    local: usize,
    /// Quiesced by a reconfiguration step: finishes in-flight work,
    /// accepts nothing.
    retiring: bool,
    /// Killed by a fault: permanently dark, its stale `Complete` event (if
    /// one was in flight) is a tombstone the core ignores.
    dead: bool,
    /// Physical service-time multiplier (≥ 1.0; 1.0 = healthy). Set by
    /// [`DispatchCore::set_degrade`] when the GPU under this slot slows
    /// down; scales every *future* execution begun on the slot (work
    /// already in flight keeps its scheduled completion).
    degrade: f64,
}

/// Per-group scheduler runtime over the group's member partitions.
struct GroupRuntime {
    /// Global worker indices of the active members.
    members: Vec<usize>,
    /// ELSA runtime (decision core + incremental state over *local*
    /// member indices), when the group schedules with ELSA.
    elsa: Option<(Elsa, ElsaState)>,
    /// FIFS idle set, keyed `(idle_since, local index)`.
    fifs_idle: LoadSet,
    /// FIFS central queue.
    central: VecDeque<Query>,
    /// Queries that arrived while the group had no active members
    /// (mid-reconfiguration); dispatched when instances come online.
    stash: VecDeque<Query>,
}

/// An in-flight reconfiguration: the remaining schedule plus the current
/// step's drain/downtime/addition state. Steps execute strictly in order,
/// so all retiring slots at any instant belong to the current step.
struct ReconfigRun {
    triggered_at: SimTime,
    schedule: ReconfigSchedule,
    /// This transition's epoch — stamped into every [`ShardEvent::ReconfigReady`]
    /// it arms, so an abort can leave stale events behind safely.
    epoch: u64,
    /// Current step: busy retiring workers still draining.
    draining: usize,
    /// Current step: the charged driver downtime.
    step_downtime: SimDuration,
    /// Current step: instances to create when its reslice completes.
    pending_added: Vec<(usize, ProfileSize)>,
    /// Current step: slots quiesced by it (not yet permanently destroyed —
    /// an abort revives the survivors among them).
    step_retired: usize,
    /// Whole-transition totals for the final [`ReconfigEvent`].
    destroyed: usize,
    created: usize,
    /// Instances actually destroyed/created by *completed* steps — what an
    /// aborted transition reports instead of the schedule totals.
    destroyed_done: usize,
    created_done: usize,
    charged: SimDuration,
    steps_done: usize,
}

struct GroupAccum {
    completed: u64,
    histogram: LatencyHistogram,
    sla_violations: u64,
}

/// The unified dispatch engine: worker slots, per-group scheduler state,
/// the streamed frontend, measurement accumulators, and the step-wise
/// reconfiguration executor. See the module documentation for the layering
/// and invariants.
pub(crate) struct DispatchCore<'a> {
    specs: Vec<GroupSpec<'a>>,
    config: CoreConfig,
    slots: Vec<WorkerSlot>,
    /// Borrowed latency row and max batch per slot (from the owning
    /// group's table) — one slice index per estimate.
    rows: Vec<&'a [u64]>,
    max_batch: Vec<usize>,
    groups: Vec<GroupRuntime>,
    reconfig: Option<ReconfigRun>,
    reconfigs: Vec<ReconfigEvent>,
    noise_rng: StdRng,
    records: Vec<QueryRecord>,
    record_groups: Vec<usize>,
    latency: LatencyRecorder,
    /// Completions so far, over every group (each group's histogram holds
    /// its own; the report's combined histogram is their merge).
    completed: u64,
    /// Queue-wait decomposition (`started − dispatched`), recorded for
    /// every completion regardless of detail or tracing — O(1) memory, the
    /// source of the report's `queue_ns_p50/p99` summary fields.
    queue_hist: LatencyHistogram,
    /// Service-time decomposition (`completed − started`), same contract.
    service_hist: LatencyHistogram,
    per_group: Vec<GroupAccum>,
    /// Attached observability sink (flight recorder, online telemetry
    /// lane, or both); `None` (the default) is the zero-cost disabled path
    /// — every hook is a single `Option` discriminant test. Recording
    /// never touches RNG streams, event keys, or report state (invariant
    /// 12: zero observer effect).
    trace: Option<Box<ObsSink>>,
    /// Instant of the most recent completion — the makespan endpoint. The
    /// DES clock itself can outlive it (a trailing `ReconfigReady` fires
    /// one reslice delay after the last drain), and charging that idle
    /// tail to the makespan would bias throughput/utilization against
    /// re-planning runs.
    last_completion: SimTime,
    frontend_free: SimTime,
    next_query_id: u64,
    next_complete_key: u64,
    /// Epoch of the next transition to begin (see
    /// [`ShardEvent::ReconfigReady`]).
    next_epoch: u64,
}

impl<'a> DispatchCore<'a> {
    /// Builds a core hosting `layouts[g]` partitions for each group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, `layouts` does not match it one-to-one,
    /// or any group is empty.
    #[must_use]
    pub fn new(
        specs: Vec<GroupSpec<'a>>,
        layouts: &[Vec<ProfileSize>],
        config: CoreConfig,
    ) -> Self {
        assert!(!specs.is_empty(), "core needs at least one group");
        assert_eq!(specs.len(), layouts.len(), "one layout per group");
        assert!(
            layouts.iter().all(|g| !g.is_empty()),
            "every group needs at least one partition"
        );
        let mut slots = Vec::new();
        let mut rows = Vec::new();
        let mut max_batch = Vec::new();
        let mut groups = Vec::new();
        for (g, sizes) in layouts.iter().enumerate() {
            let table = specs[g].table;
            let mut members = Vec::with_capacity(sizes.len());
            for &size in sizes {
                members.push(slots.len());
                slots.push(WorkerSlot {
                    worker: PartitionWorker::new(size),
                    group: g,
                    local: 0,
                    retiring: false,
                    dead: false,
                    degrade: 1.0,
                });
                rows.push(table.latency_row(size));
                max_batch.push(table.max_batch());
            }
            groups.push(GroupRuntime {
                members,
                elsa: None,
                fifs_idle: LoadSet::new(),
                central: VecDeque::new(),
                stash: VecDeque::new(),
            });
        }
        let per_group = specs
            .iter()
            .map(|_| GroupAccum {
                completed: 0,
                histogram: LatencyHistogram::new(),
                sla_violations: 0,
            })
            .collect();
        let mut core = DispatchCore {
            noise_rng: StdRng::seed_from_u64(config.noise_seed),
            specs,
            config,
            slots,
            rows,
            max_batch,
            groups,
            reconfig: None,
            reconfigs: Vec::new(),
            records: Vec::new(),
            record_groups: Vec::new(),
            latency: LatencyRecorder::new(),
            completed: 0,
            queue_hist: LatencyHistogram::new(),
            service_hist: LatencyHistogram::new(),
            per_group,
            trace: None,
            last_completion: SimTime::ZERO,
            frontend_free: SimTime::ZERO,
            next_query_id: 0,
            next_complete_key: COMPLETE_KEY_BASE,
            next_epoch: 0,
        };
        for g in 0..core.groups.len() {
            core.rebuild_group(g);
        }
        core
    }

    /// Rebuilds group `g`'s scheduler state from its current members'
    /// worker occupancy. O(group · log group); called only at construction
    /// and at reconfiguration edges, never on the per-query path.
    ///
    /// `ElsaState` is pure derived state — replaying each member's current
    /// execution (`begin`) and queued estimates (`enqueue`) reconstructs
    /// it exactly, so surviving partitions keep serving across a re-plan
    /// with their queues intact.
    fn rebuild_group(&mut self, g: usize) {
        let members = self.groups[g].members.clone();
        for (local, &w) in members.iter().enumerate() {
            self.slots[w].local = local;
        }
        let sizes: Vec<ProfileSize> = members
            .iter()
            .map(|&w| self.slots[w].worker.size())
            .collect();
        match &self.specs[g].scheduler {
            SchedulerKind::Elsa(cfg) => {
                let mut state = ElsaState::new(&sizes);
                for (local, &w) in members.iter().enumerate() {
                    let worker = &self.slots[w].worker;
                    if let Some(end) = worker.busy_until() {
                        state.begin(local, end.as_nanos());
                        for est in worker.queued_estimates() {
                            state.enqueue(local, est.as_nanos());
                        }
                    }
                    // Re-apply per-slot degrade factors so a rebuilt state
                    // keeps steering around slow hardware (skipped when
                    // blind or healthy, preserving the fast path).
                    if self.config.degrade_visible && self.slots[w].degrade != 1.0 {
                        state.set_factor(local, self.slots[w].degrade);
                    }
                }
                self.groups[g].elsa = Some((Elsa::new(*cfg), state));
            }
            SchedulerKind::Fifs => {
                let mut idle = LoadSet::with_capacity(members.len());
                for (local, &w) in members.iter().enumerate() {
                    let worker = &self.slots[w].worker;
                    if worker.is_idle() {
                        idle.insert((worker.idle_since().as_nanos(), local as u32));
                    }
                }
                self.groups[g].fifs_idle = idle;
            }
        }
    }

    /// The *scheduler-visible* execution estimate for `batch` on slot `w`:
    /// the profiled latency, inflated by the slot's degrade factor when
    /// the configuration makes degradation visible. This is the value the
    /// per-group scheduler state books (so ELSA's queued-work sums stay
    /// consistent with its placement-time estimates).
    #[inline]
    fn estimate_ns(&self, w: usize, batch: usize) -> u64 {
        let base = self.rows[w][batch.clamp(1, self.max_batch[w]) - 1];
        if self.config.degrade_visible {
            scale_ns(base, self.slots[w].degrade)
        } else {
            base
        }
    }

    /// The *physical* execution time for `batch` on slot `w` (before
    /// service noise): the profiled latency scaled by the slot's degrade
    /// factor, always — slow silicon is slow whether or not the scheduler
    /// is allowed to know.
    #[inline]
    fn service_ns(&self, w: usize, batch: usize) -> u64 {
        scale_ns(
            self.rows[w][batch.clamp(1, self.max_batch[w]) - 1],
            self.slots[w].degrade,
        )
    }

    /// Attaches an observability sink — a flight recorder, an online
    /// telemetry lane, or both halves at once. Empty sinks are dropped so
    /// the hooks stay on the zero-cost disabled path. Attach before driving
    /// any events so the trace's conservation invariant (one arrival, one
    /// terminal) holds.
    pub fn set_sink(&mut self, sink: ObsSink) {
        self.trace = (!sink.is_empty()).then(|| Box::new(sink));
    }

    /// Detaches and returns the observability sink, if one was attached.
    pub fn take_sink(&mut self) -> Option<ObsSink> {
        self.trace.take().map(|b| *b)
    }

    /// Offers one arrival for group `group` to the serial frontend,
    /// scheduling its [`ShardEvent::Dispatch`] through `sched`. Arrivals
    /// must be offered in non-decreasing arrival order.
    pub fn offer(
        &mut self,
        group: usize,
        spec: QuerySpec,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        let arrival = SimTime::from_nanos(spec.arrival_ns);
        let begin = arrival.max(self.frontend_free);
        let dispatched = begin + FRONTEND_OVERHEAD;
        self.frontend_free = dispatched;
        let id = self.next_query_id;
        self.next_query_id += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(
                arrival,
                id,
                TraceEvent::Arrival {
                    query: id,
                    group,
                    batch: spec.batch,
                    dispatched_ns: dispatched.as_nanos(),
                    sla_ns: self.specs[group].sla_ns.unwrap_or(0),
                },
            );
        }
        sched(
            dispatched,
            id,
            ShardEvent::Dispatch(
                Query {
                    id: QueryId(id),
                    batch: spec.batch,
                    arrival,
                    dispatched,
                },
                group,
            ),
        );
    }

    /// Handles one popped event. The driver must pass every event this
    /// core scheduled (and only those) back in pop order.
    pub fn handle(
        &mut self,
        now: SimTime,
        event: ShardEvent,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        match event {
            ShardEvent::Dispatch(query, group) => self.route(query, group, now, sched),
            ShardEvent::Complete { worker } => self.on_complete(worker, now, sched),
            ShardEvent::ReconfigReady { epoch } => self.on_reconfig_ready(epoch, now, sched),
        }
    }

    /// Queries offered to the frontend but not yet completed — the
    /// outstanding-load signal a join-shortest-queue cluster router
    /// balances on.
    #[must_use]
    pub fn outstanding_queries(&self) -> u64 {
        self.next_query_id - self.completed
    }

    /// Whether a reconfiguration is currently mid-schedule (draining a
    /// step or waiting out its reslice).
    #[must_use]
    pub fn reconfig_in_flight(&self) -> bool {
        self.reconfig.is_some()
    }

    /// The **live** layout of every group: the sizes of its currently
    /// active (non-retiring) members. During a reconfiguration this
    /// reflects exactly the instances still serving — what a loan
    /// controller's demand estimator should normalize efficiency against,
    /// rather than the initial plan.
    #[must_use]
    pub fn live_groups(&self) -> Vec<Vec<ProfileSize>> {
        self.groups
            .iter()
            .map(|g| {
                g.members
                    .iter()
                    .map(|&w| self.slots[w].worker.size())
                    .collect()
            })
            .collect()
    }

    /// Starts `query` on slot `w` at `now` and schedules its completion.
    /// Active slots also update their group's scheduler state; retiring
    /// slots are outside every group and only drain.
    fn begin(
        &mut self,
        w: usize,
        query: Query,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        let base = self.service_ns(w, query.batch);
        let duration = noisy_service_duration(self.config.service_noise, base, &mut self.noise_rng);
        if let Some(tr) = &mut self.trace {
            let clean = self.rows[w][query.batch.clamp(1, self.max_batch[w]) - 1];
            tr.record(
                now,
                query.id.0,
                TraceEvent::ServiceStart {
                    query: query.id.0,
                    worker: w,
                    gpcs: self.slots[w].worker.size().gpcs() as u32,
                    clean_ns: clean,
                    base_ns: base,
                    actual_ns: duration.as_nanos(),
                },
            );
        }
        let end = self.slots[w].worker.begin(query, now, duration);
        if !self.slots[w].retiring {
            let (g, local) = (self.slots[w].group, self.slots[w].local);
            if let Some((_, state)) = &mut self.groups[g].elsa {
                state.begin(local, end.as_nanos());
            }
        }
        let key = self.next_complete_key;
        self.next_complete_key += 1;
        sched(end, key, ShardEvent::Complete { worker: w });
    }

    /// Routes `query` to group `g` — the O(log P) decision path, against
    /// per-group scheduler state.
    fn route(
        &mut self,
        query: Query,
        g: usize,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        if self.groups[g].members.is_empty() {
            // Mid-reconfiguration with the whole group quiesced: hold the
            // query until new instances come online.
            if let Some(tr) = &mut self.trace {
                tr.record(
                    now,
                    query.id.0,
                    TraceEvent::Stash {
                        query: query.id.0,
                        group: g,
                    },
                );
            }
            self.groups[g].stash.push_back(query);
            return;
        }
        if self.groups[g].elsa.is_some() {
            let local = {
                let table = self.specs[g].table;
                let (elsa, state) = self.groups[g].elsa.as_mut().expect("elsa mode");
                elsa.place_mut(query.batch, table, state, now.as_nanos())
                    .partition()
            };
            let w = self.groups[g].members[local];
            if self.slots[w].worker.is_idle() {
                self.begin(w, query, now, sched);
            } else {
                let est = self.estimate_ns(w, query.batch);
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        now,
                        query.id.0,
                        TraceEvent::Enqueue {
                            query: query.id.0,
                            group: g,
                        },
                    );
                }
                self.slots[w]
                    .worker
                    .enqueue(query, SimDuration::from_nanos(est));
                self.groups[g]
                    .elsa
                    .as_mut()
                    .expect("elsa mode")
                    .1
                    .enqueue(local, est);
            }
        } else {
            match self.groups[g].fifs_idle.first() {
                Some((idle_since, local)) => {
                    self.groups[g].fifs_idle.remove((idle_since, local));
                    let w = self.groups[g].members[local as usize];
                    self.begin(w, query, now, sched);
                }
                None => {
                    if let Some(tr) = &mut self.trace {
                        tr.record(
                            now,
                            query.id.0,
                            TraceEvent::Enqueue {
                                query: query.id.0,
                                group: g,
                            },
                        );
                    }
                    self.groups[g].central.push_back(query);
                }
            }
        }
    }

    fn on_complete(
        &mut self,
        w: usize,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        if self.slots[w].dead {
            // Tombstone: the slot was killed by a fault mid-execution and
            // its query was aborted and requeued — this completion never
            // physically happened.
            return;
        }
        self.last_completion = now;
        let g = self.slots[w].group;
        let (query, started) = self.slots[w].worker.finish(now);
        let latency_ns = (now - query.arrival).as_nanos();
        self.completed += 1;
        self.queue_hist
            .record((started - query.dispatched).as_nanos());
        self.service_hist.record((now - started).as_nanos());
        if let Some(tr) = &mut self.trace {
            tr.record(
                now,
                query.id.0,
                TraceEvent::Complete {
                    query: query.id.0,
                    worker: w,
                    latency_ns,
                },
            );
        }
        let accum = &mut self.per_group[g];
        accum.completed += 1;
        accum.histogram.record(latency_ns);
        if let Some(sla) = self.specs[g].sla_ns {
            accum.sla_violations += u64::from(latency_ns > sla);
        }
        if self.config.detail == ReportDetail::Full {
            self.latency.record(latency_ns);
            self.records.push(QueryRecord {
                id: query.id,
                batch: query.batch,
                arrival: query.arrival,
                dispatched: query.dispatched,
                started,
                completed: now,
                partition: w,
            });
            self.record_groups.push(g);
        }

        if self.slots[w].retiring {
            // A quiesced partition serves out its own local queue, then
            // goes dark; the last drained partition starts the step's
            // reslice.
            if let Some((q, _est)) = self.slots[w].worker.pop_next() {
                self.begin(w, q, now, sched);
            } else {
                let rc = self
                    .reconfig
                    .as_mut()
                    .expect("retiring implies a reconfig in flight");
                rc.draining -= 1;
                if rc.draining == 0 {
                    let (delay, epoch) = (rc.step_downtime, rc.epoch);
                    sched(
                        now + delay,
                        RECONFIG_KEY,
                        ShardEvent::ReconfigReady { epoch },
                    );
                }
            }
            return;
        }

        let local = self.slots[w].local;
        if self.groups[g].elsa.is_some() {
            self.groups[g]
                .elsa
                .as_mut()
                .expect("elsa mode")
                .1
                .finish(local);
            if let Some((q, est)) = self.slots[w].worker.pop_next() {
                self.groups[g]
                    .elsa
                    .as_mut()
                    .expect("elsa mode")
                    .1
                    .dequeue(local, est.as_nanos());
                self.begin(w, q, now, sched);
            }
        } else {
            match self.groups[g].central.pop_front() {
                Some(q) => self.begin(w, q, now, sched),
                None => self.groups[g]
                    .fifs_idle
                    .insert((now.as_nanos(), local as u32)),
            }
        }
    }

    /// Kills the given worker slots **immediately** — a fault, not a
    /// drain: each slot's in-flight query is aborted and its local queue
    /// emptied, and every orphaned query re-enters the normal dispatch
    /// path at `now` (surviving group members, or the group's stash when
    /// the kill left the group dark). Dead slots never serve again; a
    /// repair brings *new* instances up through the ordinary
    /// reconfiguration path. Returns how many queries were requeued.
    ///
    /// Killing a slot that is draining for an in-flight reconfiguration
    /// step counts as that drain completing — the hardware is gone, there
    /// is nothing left to wait for — so a schedule never deadlocks on a
    /// dead drainer. Already-dead and out-of-range indices are skipped.
    pub fn kill_workers(
        &mut self,
        workers: &[usize],
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) -> u64 {
        let mut orphans: Vec<(usize, Query)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        for &w in workers {
            if w >= self.slots.len() || self.slots[w].dead {
                continue;
            }
            let g = self.slots[w].group;
            let was_retiring = self.slots[w].retiring;
            let was_busy = self.slots[w].worker.busy_until().is_some();
            if let Some(q) = self.slots[w].worker.abort(now) {
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        now,
                        q.id.0,
                        TraceEvent::ServiceAbort {
                            query: q.id.0,
                            worker: w,
                        },
                    );
                }
                orphans.push((g, q));
            }
            while let Some((q, _est)) = self.slots[w].worker.pop_next() {
                orphans.push((g, q));
            }
            self.slots[w].dead = true;
            self.slots[w].retiring = true;
            if was_retiring {
                // A retiring slot that is busy has not yet reported its
                // drain (it decrements `draining` when it goes idle);
                // its death is that report.
                if was_busy {
                    let rc = self
                        .reconfig
                        .as_mut()
                        .expect("retiring implies a reconfig in flight");
                    rc.draining -= 1;
                    if rc.draining == 0 {
                        let (delay, epoch) = (rc.step_downtime, rc.epoch);
                        sched(
                            now + delay,
                            RECONFIG_KEY,
                            ShardEvent::ReconfigReady { epoch },
                        );
                    }
                }
            } else {
                self.groups[g].members.retain(|&x| x != w);
                if !touched.contains(&g) {
                    touched.push(g);
                }
            }
        }
        for &g in &touched {
            self.rebuild_group(g);
        }
        let requeued = orphans.len() as u64;
        // Orphans re-enter in kill order (in-flight before queued, lower
        // slots first) — deterministic, and their original ids/arrivals
        // survive, so the outage shows up as latency, never as loss.
        for (g, q) in orphans {
            if let Some(tr) = &mut self.trace {
                tr.record(now, q.id.0, TraceEvent::Requeue { query: q.id.0 });
            }
            self.route(q, g, now, sched);
        }
        requeued
    }

    /// The live (serving, non-retiring) members of every group as
    /// `(worker index, size)` pairs — what a fault injector packs into
    /// physical-GPU bins ([`paris_core::pack_gpus`]) to decide which
    /// instances a GPU failure takes down.
    #[must_use]
    pub fn live_members(&self) -> Vec<Vec<(usize, ProfileSize)>> {
        self.groups
            .iter()
            .map(|g| {
                g.members
                    .iter()
                    .map(|&w| (w, self.slots[w].worker.size()))
                    .collect()
            })
            .collect()
    }

    /// Sets the physical service-time multiplier of the given worker slots
    /// to `factor` (1.0 restores the clean profile) — a *slow-GPU* fault,
    /// not a kill: the slots keep serving, but every execution begun after
    /// this instant takes `factor`× the profiled time. Work already in
    /// flight keeps its scheduled completion (the throttle lands between
    /// queries, not mid-kernel).
    ///
    /// When the configuration makes degradation visible, each affected
    /// group's ELSA state is updated in place so placement immediately
    /// steers around the slow slots; a blind configuration scales only the
    /// physical times. Slots already at `factor` are skipped entirely —
    /// which is what makes a `factor == 1.0` degrade-and-restore cycle
    /// bit-for-bit identical to never degrading at all. Dead and
    /// out-of-range slots are skipped.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and ≥ 1.0.
    pub fn set_degrade(&mut self, workers: &[usize], factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "degrade factor must be finite and >= 1.0, got {factor}"
        );
        for &w in workers {
            if w >= self.slots.len() || self.slots[w].dead || self.slots[w].degrade == factor {
                continue;
            }
            self.slots[w].degrade = factor;
            if self.config.degrade_visible && !self.slots[w].retiring {
                let (g, local) = (self.slots[w].group, self.slots[w].local);
                if let Some((_, state)) = &mut self.groups[g].elsa {
                    state.set_factor(local, factor);
                }
            }
        }
    }

    /// Begins executing a reconfiguration schedule: quiesces the first
    /// step's removals and arms its reslice. Returns `false` — leaving
    /// serving untouched — when the schedule is empty or another
    /// reconfiguration is still in flight.
    pub fn begin_transition(
        &mut self,
        mut schedule: ReconfigSchedule,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) -> bool {
        if self.reconfig.is_some() {
            return false;
        }
        let (destroyed, created) = (schedule.destroyed(), schedule.created());
        let Some(first) = schedule.next() else {
            return false;
        };
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.reconfig = Some(ReconfigRun {
            triggered_at: now,
            destroyed,
            created,
            schedule,
            epoch,
            draining: 0,
            step_downtime: SimDuration::ZERO,
            pending_added: Vec::new(),
            step_retired: 0,
            destroyed_done: 0,
            created_done: 0,
            charged: SimDuration::ZERO,
            steps_done: 0,
        });
        self.start_step(first, now, sched);
        true
    }

    /// Aborts an in-flight reconfiguration — the escape hatch a fault
    /// handler pulls when a failure lands on hardware the transition is
    /// mid-way through rearranging (the stale schedule would otherwise
    /// keep executing against a layout that no longer exists, and the
    /// recovery re-plan would defer behind it).
    ///
    /// The remaining schedule is dropped; the current step's quiesced
    /// survivors rejoin their groups with their queues intact (a drain is
    /// reversible right up until the reslice destroys the instance); its
    /// never-created additions simply never exist; stashed dark-group
    /// arrivals re-enter dispatch wherever members survive. Any
    /// already-armed [`ShardEvent::ReconfigReady`] is left in the DES and
    /// dies as a stale epoch. The transition is recorded as a
    /// [`ReconfigEvent`] with `aborted: true`, counting only what its
    /// completed steps actually destroyed/created.
    ///
    /// Returns `false` (a no-op) when no reconfiguration is in flight.
    pub fn abort_transition(
        &mut self,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) -> bool {
        let Some(rc) = self.reconfig.take() else {
            return false;
        };
        let mut touched: Vec<usize> = Vec::new();
        let mut destroyed_by_death = 0usize;
        // Steps execute strictly in order, so every retiring slot belongs
        // to the aborted step. Dead ones stay dead (the hardware is gone
        // whether or not a reslice was coming); survivors revive.
        for w in 0..self.slots.len() {
            if !self.slots[w].retiring {
                continue;
            }
            if self.slots[w].dead {
                destroyed_by_death += 1;
                continue;
            }
            self.slots[w].retiring = false;
            let g = self.slots[w].group;
            self.groups[g].members.push(w);
            if !touched.contains(&g) {
                touched.push(g);
            }
        }
        for &g in &touched {
            self.rebuild_group(g);
        }
        // Arrivals stashed while a group was dark re-enter dispatch now
        // that the revival (or an earlier step's additions) gave it
        // members again; a still-dark group keeps its stash for the
        // recovery re-plan that follows an abort.
        for g in 0..self.groups.len() {
            while !self.groups[g].members.is_empty() {
                let Some(q) = self.groups[g].stash.pop_front() else {
                    break;
                };
                self.route(q, g, now, sched);
            }
        }
        if let Some(tr) = &mut self.trace {
            tr.record(
                now,
                ANNOTATION_KEY,
                TraceEvent::ReconfigDone {
                    steps: rc.steps_done,
                    aborted: true,
                },
            );
        }
        self.reconfigs.push(ReconfigEvent {
            triggered_at: rc.triggered_at,
            completed_at: now,
            destroyed: rc.destroyed_done + destroyed_by_death,
            created: rc.created_done,
            reslice_delay: rc.charged,
            steps: rc.steps_done,
            aborted: true,
        });
        true
    }

    /// Quiesces one step's removals (per group and size, the
    /// highest-indexed members first — deterministic), stages its
    /// additions, and arms the reslice if nothing needs draining.
    fn start_step(
        &mut self,
        step: ReconfigStep,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        let mut draining = 0usize;
        let mut retired = 0usize;
        let mut added: Vec<(usize, ProfileSize)> = Vec::new();
        for (g, diff) in &step.diffs {
            let g = *g;
            for (&size, &count) in &diff.removed {
                let mut to_retire = count;
                let members = self.groups[g].members.clone();
                for &w in members.iter().rev() {
                    if to_retire == 0 {
                        break;
                    }
                    if self.slots[w].worker.size() == size {
                        self.slots[w].retiring = true;
                        self.groups[g].members.retain(|&x| x != w);
                        if self.slots[w].worker.is_idle() {
                            // Nothing in flight: drained on the spot.
                        } else {
                            draining += 1;
                        }
                        retired += 1;
                        to_retire -= 1;
                    }
                }
            }
            for (&size, &count) in &diff.added {
                added.extend(std::iter::repeat_n((g, size), count));
            }
            // Only this group's membership changed; untouched groups keep
            // their incrementally maintained state (rebuilding them is a
            // semantic no-op, so skipping it saves S×G work per rolling
            // schedule without changing behavior).
            self.rebuild_group(g);
        }
        let rc = self.reconfig.as_mut().expect("step implies a reconfig");
        rc.draining = draining;
        rc.step_downtime = SimDuration::from_nanos(step.downtime_ns);
        rc.pending_added = added;
        rc.step_retired = retired;
        if let Some(tr) = &mut self.trace {
            tr.record(
                now,
                ANNOTATION_KEY,
                TraceEvent::ReconfigStep {
                    step: rc.steps_done,
                    downtime_ns: step.downtime_ns,
                },
            );
        }
        if draining == 0 {
            sched(
                now + rc.step_downtime,
                RECONFIG_KEY,
                ShardEvent::ReconfigReady { epoch: rc.epoch },
            );
        }
    }

    /// One step's reslice finished: create its instances, refresh
    /// scheduler state, serve anything that queued up during the partial
    /// outage, then either start the next step or complete the
    /// reconfiguration.
    fn on_reconfig_ready(
        &mut self,
        epoch: u64,
        now: SimTime,
        sched: &mut impl FnMut(SimTime, u64, ShardEvent),
    ) {
        // A stale ready event — its transition was aborted (and possibly
        // replaced) between arming and firing — is dead air.
        let Some(rc) = self.reconfig.as_mut().filter(|rc| rc.epoch == epoch) else {
            return;
        };
        let added = std::mem::take(&mut rc.pending_added);
        rc.charged += rc.step_downtime;
        rc.steps_done += 1;
        rc.destroyed_done += rc.step_retired;
        rc.step_retired = 0;
        rc.created_done += added.len();
        for &(g, size) in &added {
            let w = self.slots.len();
            // New silicon comes up clean: degrade follows the hardware
            // that was hot, not the slot number.
            self.slots.push(WorkerSlot {
                worker: PartitionWorker::new(size),
                group: g,
                local: 0,
                retiring: false,
                dead: false,
                degrade: 1.0,
            });
            self.rows.push(self.specs[g].table.latency_row(size));
            self.max_batch.push(self.specs[g].table.max_batch());
            self.groups[g].members.push(w);
        }
        // Only groups that gained instances have new capacity to rebuild
        // around and backlog to flush; removal-only groups were rebuilt at
        // quiesce time and groups outside the step are untouched.
        let mut touched: Vec<usize> = added.iter().map(|&(g, _)| g).collect();
        touched.dedup();
        for g in touched {
            self.rebuild_group(g);
            // FIFS groups may have central backlog and fresh idle
            // instances: work-conservation demands they meet.
            while !self.groups[g].central.is_empty() {
                let Some((idle_since, local)) = self.groups[g].fifs_idle.first() else {
                    break;
                };
                self.groups[g].fifs_idle.remove((idle_since, local));
                let w = self.groups[g].members[local as usize];
                let q = self.groups[g]
                    .central
                    .pop_front()
                    .expect("checked non-empty");
                self.begin(w, q, now, sched);
            }
            // Queries that arrived while the group was dark re-enter the
            // normal dispatch path, in arrival order — but only once the
            // group has members again (a rolling schedule may bring this
            // group's additions online in a later step).
            while !self.groups[g].members.is_empty() {
                let Some(q) = self.groups[g].stash.pop_front() else {
                    break;
                };
                self.route(q, g, now, sched);
            }
        }
        let rc = self.reconfig.as_mut().expect("still mid-transition");
        match rc.schedule.next() {
            Some(step) => self.start_step(step, now, sched),
            None => {
                let rc = self.reconfig.take().expect("checked above");
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        now,
                        ANNOTATION_KEY,
                        TraceEvent::ReconfigDone {
                            steps: rc.steps_done,
                            aborted: false,
                        },
                    );
                }
                self.reconfigs.push(ReconfigEvent {
                    triggered_at: rc.triggered_at,
                    completed_at: now,
                    destroyed: rc.destroyed,
                    created: rc.created,
                    reslice_delay: rc.charged,
                    steps: rc.steps_done,
                    aborted: false,
                });
            }
        }
    }

    /// Consumes the core into the multi-group run report.
    /// `peak_pending_events` is the driver's event-queue high-water mark (a
    /// shared cluster DES reports the same fleet-wide value to every
    /// shard).
    #[must_use]
    pub fn finish(self, peak_pending_events: usize) -> MultiRunReport {
        let makespan = self.last_completion.saturating_since(SimTime::ZERO);
        let makespan_s = makespan.as_secs_f64();
        let achieved_qps = if makespan_s > 0.0 {
            self.completed as f64 / makespan_s
        } else {
            0.0
        };
        let partition_utilization: Vec<f64> = self
            .slots
            .iter()
            .map(|s| {
                if makespan.as_nanos() == 0 {
                    0.0
                } else {
                    (s.worker.busy_ns() as f64 / makespan.as_nanos() as f64).min(1.0)
                }
            })
            .collect();

        MultiRunReport {
            detail: self.config.detail,
            records: self.records,
            record_models: self.record_groups,
            latency: self.latency,
            histogram: LatencyHistogram::merged(self.per_group.iter().map(|a| &a.histogram)),
            queue_hist: self.queue_hist,
            service_hist: self.service_hist,
            per_model: self
                .specs
                .iter()
                .zip(self.per_group)
                .map(|(spec, acc)| ModelReport {
                    name: spec.name.to_owned(),
                    completed: acc.completed,
                    histogram: acc.histogram,
                    sla_ns: spec.sla_ns,
                    sla_violations: acc.sla_violations,
                })
                .collect(),
            makespan,
            achieved_qps,
            partition_utilization,
            partition_sizes: self.slots.iter().map(|s| s.worker.size()).collect(),
            partition_models: self.slots.iter().map(|s| s.group).collect(),
            reconfigs: self.reconfigs,
            peak_pending_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des_engine::Simulation;
    use dnn_zoo::ModelKind;
    use mig_gpu::{DeviceSpec, PerfModel};
    use paris_core::{plan_diff, ReconfigMode};

    #[test]
    fn dispatch_core_is_send() {
        // Lane workers in the cluster crate carry a whole dispatch stack
        // to another thread every window; the core (and everything it
        // embeds) must stay `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<DispatchCore<'static>>();
    }

    fn table(kind: ModelKind) -> ProfileTable {
        let model = kind.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    fn core_config() -> CoreConfig {
        CoreConfig {
            service_noise: 0.0,
            noise_seed: 0,
            detail: ReportDetail::Full,
            degrade_visible: true,
        }
    }

    /// Drives `queries` evenly spaced arrivals (alternating groups)
    /// through a two-group core, starting a transition from `current` to
    /// `target` under `mode` once `trigger_after` dispatches have been
    /// handled. Returns the final live layouts and the run report.
    fn run_with_transition(
        tables: &[ProfileTable; 2],
        current: &[Vec<ProfileSize>],
        target: &[Vec<ProfileSize>],
        mode: ReconfigMode,
        queries: usize,
        trigger_after: usize,
    ) -> (Vec<Vec<ProfileSize>>, MultiRunReport) {
        let specs = vec![
            GroupSpec {
                name: "g0",
                table: &tables[0],
                scheduler: SchedulerKind::Fifs,
                sla_ns: None,
            },
            GroupSpec {
                name: "g1",
                table: &tables[1],
                scheduler: SchedulerKind::Fifs,
                sla_ns: None,
            },
        ];
        let mut core = DispatchCore::new(specs, current, core_config());
        let mut sim: Simulation<ShardEvent> = Simulation::new();
        let cost = mig_gpu::ResliceCostModel::a100_default();

        let arrivals: Vec<(usize, QuerySpec)> = (0..queries)
            .map(|i| {
                (
                    i % 2,
                    QuerySpec {
                        arrival_ns: i as u64 * 300_000, // 300 µs apart
                        batch: 1 + (i % 8),
                    },
                )
            })
            .collect();
        let mut next = 0usize;
        let mut dispatched = 0usize;
        let mut transitioned = false;
        let (g, spec) = arrivals[next];
        next += 1;
        core.offer(g, spec, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        while let Some((now, event)) = sim.next_event() {
            if matches!(event, ShardEvent::Dispatch(..)) {
                if next < arrivals.len() {
                    let (g, spec) = arrivals[next];
                    next += 1;
                    core.offer(g, spec, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
                }
                dispatched += 1;
                if dispatched == trigger_after && !transitioned {
                    transitioned = true;
                    let live = core.live_groups();
                    let diffs: Vec<_> = live
                        .iter()
                        .zip(target)
                        .map(|(c, t)| plan_diff(c, t))
                        .collect();
                    let schedule = ReconfigSchedule::new(&diffs, mode, &cost, 0);
                    assert!(core.begin_transition(schedule, now, &mut |t, k, e| {
                        sim.schedule_at_keyed(t, k, e)
                    }));
                }
            }
            core.handle(now, event, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        }
        assert!(transitioned, "trace too short to reach the trigger");
        assert!(!core.reconfig_in_flight(), "schedule ran to completion");
        let live = core.live_groups();
        (live, core.finish(sim.peak_pending()))
    }

    fn sorted(mut g: Vec<ProfileSize>) -> Vec<ProfileSize> {
        g.sort();
        g
    }

    /// The rolling ≡ all-at-once final-state contract on an empty-overlap
    /// diff: when the target layout shares no instance size with the
    /// current one (every instance is destroyed and rebuilt), both modes
    /// must land on exactly the target layout, conserve every query, and
    /// report one reconfiguration — rolling merely cuts it into more
    /// steps.
    #[test]
    fn rolling_equals_all_at_once_final_state_on_empty_overlap_diff() {
        let tables = [table(ModelKind::MobileNet), table(ModelKind::ResNet50)];
        // Group 0: one G7 → G2+G3; group 1: two G3 → one G7. No size
        // survives in either group (empty overlap).
        let current = vec![
            vec![ProfileSize::G7],
            vec![ProfileSize::G3, ProfileSize::G3],
        ];
        let target = vec![
            vec![ProfileSize::G2, ProfileSize::G3],
            vec![ProfileSize::G7],
        ];
        for (c, t) in current.iter().zip(&target) {
            assert_eq!(plan_diff(c, t).kept_count(), 0, "overlap must be empty");
        }
        let n = 400;
        let (live_all, rep_all) =
            run_with_transition(&tables, &current, &target, ReconfigMode::AllAtOnce, n, 120);
        let (live_roll, rep_roll) =
            run_with_transition(&tables, &current, &target, ReconfigMode::Rolling, n, 120);

        for m in 0..2 {
            assert_eq!(sorted(live_all[m].clone()), sorted(target[m].clone()));
            assert_eq!(sorted(live_roll[m].clone()), sorted(live_all[m].clone()));
        }
        for rep in [&rep_all, &rep_roll] {
            assert_eq!(rep.records.len(), n, "nothing dropped");
            let mut ids: Vec<u64> = rep.records.iter().map(|r| r.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "nothing double-served");
            assert_eq!(rep.reconfigs.len(), 1);
        }
        assert_eq!(rep_all.reconfigs[0].steps, 1);
        assert!(
            rep_roll.reconfigs[0].steps > 1,
            "a two-GPU empty-overlap edit must roll out in stages, got {}",
            rep_roll.reconfigs[0].steps
        );
        assert_eq!(
            rep_all.reconfigs[0].destroyed,
            rep_roll.reconfigs[0].destroyed
        );
        assert_eq!(rep_all.reconfigs[0].created, rep_roll.reconfigs[0].created);
        // Rolling pays the per-step fixed driver overhead, so its summed
        // charged downtime is at least the all-at-once charge.
        assert!(rep_roll.reconfigs[0].reslice_delay >= rep_all.reconfigs[0].reslice_delay);
    }

    /// A fault kill is not a drain: the killed worker's in-flight query
    /// and local queue re-enter the dispatch path at the kill instant,
    /// nothing is lost or double-served, and the stale completion event is
    /// a tombstone.
    #[test]
    fn fault_kill_requeues_inflight_and_queued_work() {
        let t = table(ModelKind::MobileNet);
        let specs = vec![GroupSpec {
            name: "m",
            table: &t,
            scheduler: SchedulerKind::Fifs,
            sla_ns: None,
        }];
        let layouts = vec![vec![ProfileSize::G3, ProfileSize::G3]];
        let mut core = DispatchCore::new(specs, &layouts, core_config());
        let mut sim: Simulation<ShardEvent> = Simulation::new();

        let n = 300usize;
        let arrivals: Vec<QuerySpec> = (0..n)
            .map(|i| QuerySpec {
                arrival_ns: i as u64 * 150_000, // 150 µs apart: queues build
                batch: 1 + (i % 8),
            })
            .collect();
        let mut next = 0usize;
        let mut dispatched = 0usize;
        let mut killed_at = None;
        core.offer(0, arrivals[next], &mut |t, k, e| {
            sim.schedule_at_keyed(t, k, e)
        });
        next += 1;
        while let Some((now, event)) = sim.next_event() {
            if matches!(event, ShardEvent::Dispatch(..)) {
                if next < arrivals.len() {
                    core.offer(0, arrivals[next], &mut |t, k, e| {
                        sim.schedule_at_keyed(t, k, e)
                    });
                    next += 1;
                }
                dispatched += 1;
                if dispatched == 80 && killed_at.is_none() {
                    killed_at = Some(now);
                    let requeued =
                        core.kill_workers(&[0], now, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
                    // The worker was mid-query with a backlog: something
                    // must have been orphaned and requeued.
                    assert!(requeued > 0, "kill found no work to requeue");
                    assert_eq!(core.live_members()[0].len(), 1, "one survivor");
                    // Killing again is a no-op.
                    assert_eq!(
                        core.kill_workers(&[0], now, &mut |t, k, e| sim.schedule_at_keyed(t, k, e)),
                        0
                    );
                }
            }
            core.handle(now, event, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        }
        let killed_at = killed_at.expect("trace reached the kill");
        let rep = core.finish(sim.peak_pending());
        assert_eq!(rep.records.len(), n, "nothing dropped");
        let mut ids: Vec<u64> = rep.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "nothing double-served");
        // Nothing executed on the dead slot after the kill.
        for r in &rep.records {
            if r.partition == 0 {
                assert!(r.completed <= killed_at, "dead slot served {r:?}");
            }
            assert!(r.arrival <= r.dispatched && r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
        assert!(
            rep.records.iter().any(|r| r.partition == 1),
            "survivor picked up the requeued work"
        );
    }

    /// Aborting a rolling transition mid-step revives the quiesced
    /// survivors, conserves every query, records the aborted event, and
    /// leaves the stale armed `ReconfigReady` harmless.
    #[test]
    fn abort_mid_rolling_step_revives_quiesced_and_conserves() {
        let tables = [table(ModelKind::MobileNet), table(ModelKind::MobileNet)];
        let current = vec![
            vec![ProfileSize::G7, ProfileSize::G7],
            vec![ProfileSize::G2, ProfileSize::G2, ProfileSize::G3],
        ];
        let target = vec![vec![ProfileSize::G3; 4], vec![ProfileSize::G7]];
        let specs = vec![
            GroupSpec {
                name: "g0",
                table: &tables[0],
                scheduler: SchedulerKind::Fifs,
                sla_ns: None,
            },
            GroupSpec {
                name: "g1",
                table: &tables[1],
                scheduler: SchedulerKind::Fifs,
                sla_ns: None,
            },
        ];
        let mut core = DispatchCore::new(specs, &current, core_config());
        let mut sim: Simulation<ShardEvent> = Simulation::new();
        let cost = mig_gpu::ResliceCostModel::a100_default();

        let n = 600usize;
        let arrivals: Vec<(usize, QuerySpec)> = (0..n)
            .map(|i| {
                (
                    i % 2,
                    QuerySpec {
                        arrival_ns: i as u64 * 300_000,
                        batch: 1 + (i % 8),
                    },
                )
            })
            .collect();
        let mut next = 0usize;
        let mut dispatched = 0usize;
        let mut aborted = false;
        let (g, spec) = arrivals[next];
        next += 1;
        core.offer(g, spec, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        while let Some((now, event)) = sim.next_event() {
            if matches!(event, ShardEvent::Dispatch(..)) {
                if next < arrivals.len() {
                    let (g, spec) = arrivals[next];
                    next += 1;
                    core.offer(g, spec, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
                }
                dispatched += 1;
                if dispatched == 200 {
                    let live = core.live_groups();
                    let diffs: Vec<_> = live
                        .iter()
                        .zip(&target)
                        .map(|(c, t)| plan_diff(c, t))
                        .collect();
                    let schedule = ReconfigSchedule::new(&diffs, ReconfigMode::Rolling, &cost, 0);
                    assert!(core.begin_transition(schedule, now, &mut |t, k, e| {
                        sim.schedule_at_keyed(t, k, e)
                    }));
                }
                if dispatched == 210 && core.reconfig_in_flight() && !aborted {
                    aborted = true;
                    assert!(core
                        .abort_transition(now, &mut |t, k, e| { sim.schedule_at_keyed(t, k, e) }));
                    assert!(!core.reconfig_in_flight());
                    // Aborting again is a no-op.
                    assert!(!core
                        .abort_transition(now, &mut |t, k, e| { sim.schedule_at_keyed(t, k, e) }));
                    // Every slot that is not permanently destroyed serves
                    // again: the revived layout hosts both groups.
                    let live = core.live_groups();
                    assert!(
                        live.iter().all(|g| !g.is_empty()),
                        "revival left a dark group"
                    );
                }
            }
            core.handle(now, event, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        }
        assert!(aborted, "trace too short to reach the abort");
        let rep = core.finish(sim.peak_pending());
        assert_eq!(rep.records.len(), n, "nothing dropped");
        let mut ids: Vec<u64> = rep.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "nothing double-served");
        for r in &rep.records {
            assert!(r.arrival <= r.dispatched && r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
        assert_eq!(rep.reconfigs.len(), 1);
        assert!(rep.reconfigs[0].aborted, "the abort is recorded");
    }

    /// Slot degradation scales physical service times (and, visible,
    /// steers placement), while a factor-1.0 degrade/restore cycle is
    /// bit-for-bit the untouched run.
    #[test]
    fn degrade_slows_service_and_unit_factor_is_bit_identical() {
        let t = table(ModelKind::MobileNet);
        let run = |factors: &[(usize, f64)]| {
            let specs = vec![GroupSpec {
                name: "m",
                table: &t,
                scheduler: SchedulerKind::Fifs,
                sla_ns: None,
            }];
            let layouts = vec![vec![ProfileSize::G3, ProfileSize::G3]];
            let mut core = DispatchCore::new(specs, &layouts, core_config());
            let mut sim: Simulation<ShardEvent> = Simulation::new();
            for &(w, f) in factors {
                core.set_degrade(&[w], f);
            }
            let n = 200usize;
            let arrivals: Vec<QuerySpec> = (0..n)
                .map(|i| QuerySpec {
                    arrival_ns: i as u64 * 200_000,
                    batch: 1 + (i % 8),
                })
                .collect();
            let mut next = 0usize;
            core.offer(0, arrivals[next], &mut |t, k, e| {
                sim.schedule_at_keyed(t, k, e)
            });
            next += 1;
            while let Some((now, event)) = sim.next_event() {
                if matches!(event, ShardEvent::Dispatch(..)) && next < arrivals.len() {
                    core.offer(0, arrivals[next], &mut |t, k, e| {
                        sim.schedule_at_keyed(t, k, e)
                    });
                    next += 1;
                }
                core.handle(now, event, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
            }
            core.finish(sim.peak_pending())
        };
        let clean = run(&[]);
        let unit = run(&[(0, 1.0)]);
        // Unit factor: bit-for-bit the clean run.
        assert_eq!(unit.records, clean.records);
        assert_eq!(unit.makespan, clean.makespan);
        let slow = run(&[(0, 3.0)]);
        assert_eq!(slow.records.len(), clean.records.len(), "conserved");
        assert!(
            slow.makespan > clean.makespan,
            "a 3x-slow slot must stretch the run"
        );
        // Visible degradation steers work toward the healthy slot.
        let served_on = |rep: &MultiRunReport, w: usize| {
            rep.records.iter().filter(|r| r.partition == w).count()
        };
        assert!(
            served_on(&slow, 1) > served_on(&clean, 1),
            "placement should shift load off the slow slot"
        );
    }

    /// Conservation at every step of a rolling schedule: quiesced
    /// instances drain their queues, stashed arrivals are served once
    /// capacity returns, lifecycle timestamps stay ordered throughout.
    #[test]
    fn rolling_schedule_conserves_queries_at_every_step() {
        let tables = [table(ModelKind::MobileNet), table(ModelKind::MobileNet)];
        let current = vec![
            vec![ProfileSize::G7, ProfileSize::G7],
            vec![ProfileSize::G2, ProfileSize::G2, ProfileSize::G3],
        ];
        let target = vec![vec![ProfileSize::G3; 4], vec![ProfileSize::G7]];
        let n = 600;
        let (live, rep) =
            run_with_transition(&tables, &current, &target, ReconfigMode::Rolling, n, 200);
        for m in 0..2 {
            assert_eq!(sorted(live[m].clone()), sorted(target[m].clone()));
        }
        assert_eq!(rep.records.len(), n);
        let mut ids: Vec<u64> = rep.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        for r in &rep.records {
            assert!(r.arrival <= r.dispatched);
            assert!(r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
        assert_eq!(rep.reconfigs.len(), 1);
        assert!(rep.reconfigs[0].steps > 1);
        // Every instance that ever existed is accounted for in the report.
        assert_eq!(
            rep.partition_sizes.len(),
            current.iter().map(Vec::len).sum::<usize>() + rep.reconfigs[0].created
        );
    }
}
