//! The trace-event vocabulary: everything the flight recorder can say.
//!
//! Events split into two families:
//!
//! - **Lifecycle events** follow a single query from arrival to its one
//!   terminal event (complete or shed). Query ids are per-lane (each shard's
//!   dispatch core numbers its own queries), so a lifecycle event is uniquely
//!   addressed by `(lane, query)`.
//! - **Annotation events** mark engine-level state changes — re-plan steps,
//!   pool loans, faults, degrades — that explain *why* the lifecycle events
//!   around them look the way they do.
//!
//! All payloads are plain integers stamped in simulation time, so a trace is
//! `Copy`-cheap, deterministic, and independent of wall-clock or thread
//! scheduling.
//!
//! Each fact is said once. A service start carries one duration, `base_ns`:
//! the engine has no service noise, so an execution runs for exactly its
//! degrade-scaled profiled latency. A completion names its `group`, so a
//! consumer judges it against its model's SLA without keeping a table from
//! each arrival to its completion.

/// What kind of fault an annotation records (mirrors the cluster fault
/// machinery without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A single GPU went dark.
    GpuFail,
    /// A failed GPU came back.
    GpuRepair,
    /// A GPU entered a slow (degraded) window.
    GpuDegrade,
    /// A degraded GPU returned to full speed.
    GpuRestore,
    /// A whole shard went dark.
    ShardFail,
    /// A failed shard came back.
    ShardRepair,
}

/// One observation from the engine, stamped externally by
/// [`TraceRecord`](crate::TraceRecord) with `(time, key, lane, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query entered a dispatch core. `dispatched_ns` is when the frontend
    /// hands it to the scheduler (arrival + serialized frontend overhead);
    /// `sla_ns == 0` means the group has no SLA.
    Arrival {
        query: u64,
        group: usize,
        batch: usize,
        dispatched_ns: u64,
        sla_ns: u64,
    },
    /// The cluster router picked a shard for an admitted query.
    RouteDecision {
        model: usize,
        shard: usize,
        pinned: bool,
    },
    /// The admission controller turned a query away — a terminal event.
    Shed { model: usize, shard: usize },
    /// No worker was free; the query joined its group's queue.
    Enqueue { query: u64, group: usize },
    /// The query's group is dark (mid-reconfig); parked in the stash.
    Stash { query: u64, group: usize },
    /// Service began on a worker. `clean_ns` is the profile-table latency
    /// and `base_ns` the degrade-scaled one, which is how long the
    /// execution runs (the engine has no service noise) — so degrade
    /// inflation is recoverable exactly.
    ServiceStart {
        query: u64,
        worker: usize,
        gpcs: u32,
        clean_ns: u64,
        base_ns: u64,
    },
    /// An in-flight execution was killed (worker died); the query will
    /// requeue and start again.
    ServiceAbort { query: u64, worker: usize },
    /// A killed or orphaned query re-entered routing.
    Requeue { query: u64 },
    /// The query finished — a terminal event. `group` is the model it
    /// was served as, whose SLA judges `latency_ns`.
    Complete {
        query: u64,
        group: usize,
        worker: usize,
        latency_ns: u64,
    },
    /// One step of a reconfiguration began; the step's workers are offline
    /// for `downtime_ns`.
    ReconfigStep { step: usize, downtime_ns: u64 },
    /// A reconfiguration finished (or was abandoned mid-flight).
    ReconfigDone { steps: usize, aborted: bool },
    /// Pool GPUs moved: positive `gpus_delta` lends to `shard`, negative
    /// reclaims from it.
    Loan {
        shard: usize,
        gpus_delta: i64,
        pool_free_after: usize,
    },
    /// A fault-plan action fired. `gpu` is the in-shard index (0 for
    /// shard-level faults); `factor_milli` carries the degrade factor in
    /// thousandths (1000 = full speed) for degrade events, 0 otherwise.
    Fault {
        kind: FaultKind,
        shard: usize,
        gpu: usize,
        factor_milli: u32,
    },
    /// A worker's service-time multiplier changed.
    Degrade { worker: usize, factor_milli: u32 },
    /// An SLO burn-rate alert changed state (see [`crate::slo`]): `slo`
    /// indexes the spec list the alert log was evaluated against, `fired`
    /// distinguishes fire from resolve, and `burn_milli` is the short-window
    /// burn rate in thousandths at the transition. Alerts are **post-run
    /// annotations** stamped on [`crate::slo::ALERT_LANE`] — engines never
    /// record them, so annotating a trace cannot change its registry.
    Alert {
        slo: usize,
        group: usize,
        fired: bool,
        burn_milli: u64,
    },
}

impl TraceEvent {
    /// The query id a lifecycle event refers to, if any.
    #[must_use]
    pub fn query(&self) -> Option<u64> {
        match *self {
            TraceEvent::Arrival { query, .. }
            | TraceEvent::Enqueue { query, .. }
            | TraceEvent::Stash { query, .. }
            | TraceEvent::ServiceStart { query, .. }
            | TraceEvent::ServiceAbort { query, .. }
            | TraceEvent::Requeue { query }
            | TraceEvent::Complete { query, .. } => Some(query),
            _ => None,
        }
    }

    /// A short stable name for exporters.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::RouteDecision { .. } => "route",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Stash { .. } => "stash",
            TraceEvent::ServiceStart { .. } => "service_start",
            TraceEvent::ServiceAbort { .. } => "service_abort",
            TraceEvent::Requeue { .. } => "requeue",
            TraceEvent::Complete { .. } => "complete",
            TraceEvent::ReconfigStep { .. } => "reconfig_step",
            TraceEvent::ReconfigDone { .. } => "reconfig_done",
            TraceEvent::Loan { .. } => "loan",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Degrade { .. } => "degrade",
            TraceEvent::Alert { .. } => "alert",
        }
    }
}
