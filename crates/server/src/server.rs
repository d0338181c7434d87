//! The discrete-event multi-GPU inference-server simulator.
//!
//! Reproduces the runtime structure of the paper's testbed (a modified
//! DeepRecInfra frontend feeding MIG partitions): queries arrive at a
//! serial frontend, a scheduling policy (FIFS or ELSA) assigns them to
//! partitions, each partition executes its queue in FIFO order with the
//! profiled latency as service time, and every completion is recorded.
//!
//! [`InferenceServer`] keeps no event loop of its own: a run is a 1-model
//! [`MultiModelServer`] over the server's partitions and scheduler,
//! driven by [`MultiModelServer::run_stream`] — the crate's one driver —
//! and its [`MultiRunReport`] translates back into a [`RunReport`].
//! [`InferenceServer::run_reference`] stays a separate, pure
//! implementation: the oracle that driver is checked against.
//!
//! # Hot path invariants
//!
//! [`InferenceServer::run`] is the workhorse behind every sweep, so its
//! per-query dispatch cost is engineered to be **allocation-free and
//! sub-linear in the partition count** once warm:
//!
//! * Arrivals are **streamed** into the event queue: only the next
//!   arrival's dispatch event is pending at any time, and handling it
//!   injects its successor. The queue therefore holds O(P) events (one
//!   completion per busy partition + one arrival), not O(trace), so every
//!   push/pop costs O(log P).
//! * Same-instant event order is pinned by explicit tie-break keys
//!   (dispatches first, in query order; then completions, in scheduling
//!   order) — exactly the order the original implementation produced by
//!   pre-loading the whole trace, which keeps reports **bit-for-bit
//!   reproducible** against [`InferenceServer::run_reference`].
//! * ELSA decisions use [`Elsa::place_mut`] over a persistent
//!   [`ElsaState`] (per-size buckets with incrementally maintained load)
//!   instead of snapshotting and sorting all partitions per query; FIFS
//!   keeps its idle set in a [`LoadSet`] ordered by `(idle_since, index)`.
//!   Both resolve a dispatch in O(log P).
//! * Profiled latencies come from borrowed per-partition rows
//!   ([`ProfileTable::latency_row`]), one slice index per estimate.
//! * With [`ReportDetail::Summary`], per-query records are not
//!   materialized at all: latency goes straight into a
//!   [`LatencyHistogram`] holding only the octaves its samples span (never
//!   more than 3,776 buckets), making a sweep's memory O(1) in the trace
//!   length.
//!
//! The equivalence contract between the shared driver and the pure
//! reference implementation is enforced by `runs_are_deterministic` /
//! `fast_path_matches_reference*` below and by the property tests in
//! `tests/properties.rs`.

use des_engine::{SimDuration, SimTime, Simulation};
use inference_workload::{BatchDistribution, QuerySpec, TaggedQuerySpec};
use mig_gpu::ProfileSize;
use paris_core::{Elsa, ElsaConfig, GpcBudget, PartitionPlan, ProfileTable};
use server_metrics::{LatencyHistogram, LatencyRecorder};

use crate::dispatch::FRONTEND_OVERHEAD;
use crate::multi::{ModelSpec, MultiModelConfig, MultiModelServer, MultiRunReport};
use crate::query::{Query, QueryId, QueryRecord};
use crate::worker::PartitionWorker;

/// Which scheduling policy drives the server.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// First-idle first-serve: the baseline of Triton-style servers
    /// (§III-C). Queries wait in one central FIFO; any partition that goes
    /// idle takes the head.
    Fifs,
    /// The paper's heterogeneity-aware scheduler (Algorithm 2).
    Elsa(ElsaConfig),
}

/// How much per-query material a run keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportDetail {
    /// Keep everything: per-query [`QueryRecord`]s and exact latency
    /// samples. Memory grows O(trace).
    #[default]
    Full,
    /// Keep only aggregates: latencies go straight into a
    /// [`LatencyHistogram`] bounded by the samples' octave span, no
    /// records are materialized, and run memory is O(partitions). The
    /// mode sweeps use.
    Summary,
}

/// Server-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The scheduling policy.
    pub scheduler: SchedulerKind,
    /// When set, [`InferenceServer::run`] counts SLA violations
    /// (`latency > sla_ns`) **exactly** against it.
    /// [`InferenceServer::run_stream_sla`] takes its target per call
    /// instead, and counts exactly at every detail level — including
    /// [`ReportDetail::Summary`], whose histogram alone is only
    /// bucket-accurate (≤ 1.6 % error).
    pub sla_ns: Option<u64>,
}

impl ServerConfig {
    /// A server with the given policy. Its serial frontend charges a fixed
    /// 20 µs per query, and every service time is the profiled latency:
    /// execution is deterministic, as the paper observes.
    #[must_use]
    pub fn new(scheduler: SchedulerKind) -> Self {
        ServerConfig {
            scheduler,
            sla_ns: None,
        }
    }

    /// Sets the SLA target runs count violations against, exactly, at
    /// every detail level (see [`RunReport::sla_violations`]).
    #[must_use]
    pub fn with_sla_target(mut self, sla_ns: u64) -> Self {
        self.sla_ns = Some(sla_ns);
        self
    }
}

/// Everything measured during one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Detail level the run was recorded at.
    pub detail: ReportDetail,
    /// Per-query lifecycle records, completion order. Empty under
    /// [`ReportDetail::Summary`].
    pub records: Vec<QueryRecord>,
    /// Exact end-to-end latency samples. Empty under
    /// [`ReportDetail::Summary`].
    pub latency: LatencyRecorder,
    /// Latency histogram over the octaves the samples span, filled at
    /// every detail level.
    pub histogram: LatencyHistogram,
    /// Queue-wait (`started − dispatched`) histogram, filled at every
    /// detail level — the O(1)-memory source of
    /// [`breakdown`](Self::breakdown), tracing on or off.
    pub queue_hist: LatencyHistogram,
    /// Service-time (`completed − started`) histogram, filled at every
    /// detail level.
    pub service_hist: LatencyHistogram,
    /// Time from first arrival to last completion.
    pub makespan: SimDuration,
    /// Completed queries divided by the makespan.
    pub achieved_qps: f64,
    /// Busy fraction of every partition over the makespan.
    pub partition_utilization: Vec<f64>,
    /// High-water mark of the DES event queue — O(partitions) for the
    /// streaming fast path, O(trace) for the pre-loaded reference path.
    pub peak_pending_events: usize,
    /// The SLA target exact violation counting ran against, if one was
    /// configured ([`ServerConfig::with_sla_target`] or the `sla_ns`
    /// argument of [`InferenceServer::run_stream_sla`]).
    pub sla_ns: Option<u64>,
    /// Exact number of queries whose latency exceeded [`sla_ns`](Self::sla_ns)
    /// (0 when no target was configured). Counted per completion, so it is
    /// exact even under [`ReportDetail::Summary`].
    pub sla_violations: u64,
}

impl RunReport {
    /// Number of queries that completed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.histogram.count()
    }

    /// The paper's headline metric: p95 tail latency in milliseconds
    /// (exact under [`ReportDetail::Full`], bucket-accurate under
    /// [`ReportDetail::Summary`]).
    #[must_use]
    pub fn p95_ms(&self) -> f64 {
        match self.detail {
            ReportDetail::Full => self.latency.p95_ms(),
            ReportDetail::Summary => self.histogram.p95_ms(),
        }
    }

    /// Mean partition utilization.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.partition_utilization.is_empty() {
            return 0.0;
        }
        self.partition_utilization.iter().sum::<f64>() / self.partition_utilization.len() as f64
    }

    /// Where latency came from: queue-wait vs service-time percentiles,
    /// computed from the always-on decomposition histograms (single-server
    /// runs never reconfigure, so the reconfig component is 0).
    #[must_use]
    pub fn breakdown(&self) -> server_metrics::LatencyBreakdown {
        server_metrics::LatencyBreakdown::from_histograms(&self.queue_hist, &self.service_hist, 0)
    }

    /// Fraction of queries whose latency exceeded `sla_ns`.
    ///
    /// Exact whenever possible: if the run counted violations against this
    /// very target (see [`sla_violations`](Self::sla_violations)) or kept
    /// exact samples ([`ReportDetail::Full`]), the rate is exact; only a
    /// [`ReportDetail::Summary`] run queried at a *different* target falls
    /// back to histogram-bucket accuracy (≤ 1.6 % error).
    #[must_use]
    pub fn sla_violation_rate(&self, sla_ns: u64) -> f64 {
        if self.sla_ns == Some(sla_ns) {
            let n = self.completed();
            return if n == 0 {
                0.0
            } else {
                self.sla_violations as f64 / n as f64
            };
        }
        match self.detail {
            ReportDetail::Full => self.latency.violation_rate(sla_ns),
            ReportDetail::Summary => self.histogram.violation_rate(sla_ns),
        }
    }
}

/// Events driving the pre-loaded reference simulation
/// ([`InferenceServer::run_reference`]). Every other run shares
/// `ShardEvent` and the one dispatch core with the multi-model and
/// cluster layers.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The frontend finished preparing a query; the scheduler places it.
    Dispatch(Query),
    /// A partition finished its current query.
    Complete { partition: usize },
}

/// A simulated multi-GPU inference server: a set of MIG partitions, a
/// profiled latency table and a scheduling policy.
///
/// `run` is `&self` and rebuilds all mutable state, so one server value can
/// evaluate many traces (and many threads can share it).
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use inference_workload::{BatchDistribution, TraceGenerator};
/// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
/// use paris_core::ProfileTable;
/// use inference_server::{InferenceServer, SchedulerKind, ServerConfig};
///
/// let model = ModelKind::MobileNet.build();
/// let perf = PerfModel::new(DeviceSpec::a100());
/// let table = ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32);
///
/// let server = InferenceServer::new(
///     vec![ProfileSize::G1, ProfileSize::G2, ProfileSize::G3],
///     table,
///     ServerConfig::new(SchedulerKind::Fifs),
/// );
/// let trace = TraceGenerator::new(300.0, BatchDistribution::paper_default(), 1)
///     .generate_for(0.5);
/// let report = server.run(&trace);
/// assert_eq!(report.records.len(), trace.len());
/// ```
#[derive(Debug, Clone)]
pub struct InferenceServer {
    partitions: Vec<ProfileSize>,
    table: ProfileTable,
    config: ServerConfig,
}

impl InferenceServer {
    /// Creates a server over an explicit partition list.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    #[must_use]
    pub fn new(partitions: Vec<ProfileSize>, table: ProfileTable, config: ServerConfig) -> Self {
        assert!(
            !partitions.is_empty(),
            "server needs at least one partition"
        );
        InferenceServer {
            partitions,
            table,
            config,
        }
    }

    /// Creates a server hosting the instances of a [`PartitionPlan`].
    ///
    /// # Panics
    ///
    /// Panics if the plan contains no instances.
    #[must_use]
    pub fn from_plan(plan: &PartitionPlan, table: ProfileTable, config: ServerConfig) -> Self {
        Self::new(plan.partitions(), table, config)
    }

    /// The partition profiles, in scheduler iteration order.
    #[must_use]
    pub fn partitions(&self) -> &[ProfileSize] {
        &self.partitions
    }

    /// The profiled latency table the server schedules with.
    #[must_use]
    pub fn table(&self) -> &ProfileTable {
        &self.table
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Simulates the server over a query trace until every query
    /// completes, keeping every per-query record ([`ReportDetail::Full`])
    /// and counting violations against [`ServerConfig::sla_ns`].
    #[must_use]
    pub fn run(&self, trace: &[QuerySpec]) -> RunReport {
        self.run_stream_sla(
            trace.iter().copied(),
            ReportDetail::Full,
            self.config.sla_ns,
        )
    }

    /// Simulates the server over a *streamed* arrival sequence (ascending
    /// arrival times) without ever materializing the trace, counting SLA
    /// violations exactly against `sla_ns` — this run's target in place of
    /// [`ServerConfig::sla_ns`], `None` for none. Together with
    /// [`ReportDetail::Summary`] this makes a whole measurement O(1) in
    /// memory, and it is how sweeps get exact violation rates without a
    /// per-point server rebuild.
    ///
    /// The run is a 1-model [`MultiModelServer`] over this server's
    /// partitions and scheduler, driven by
    /// [`MultiModelServer::run_stream`]. Bit-for-bit equality with
    /// [`run_reference`](Self::run_reference) is enforced by the unit and
    /// property suites.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnn_zoo::ModelKind;
    /// use inference_workload::{BatchDistribution, TraceGenerator};
    /// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
    /// use paris_core::ProfileTable;
    /// use inference_server::{InferenceServer, ReportDetail, SchedulerKind, ServerConfig};
    ///
    /// let model = ModelKind::MobileNet.build();
    /// let perf = PerfModel::new(DeviceSpec::a100());
    /// let table = ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32);
    /// let server = InferenceServer::new(
    ///     vec![ProfileSize::G2; 2],
    ///     table,
    ///     ServerConfig::new(SchedulerKind::Fifs),
    /// );
    /// let gen = TraceGenerator::new(200.0, BatchDistribution::paper_default(), 9);
    /// let report = server.run_stream_sla(gen.stream_for(0.5), ReportDetail::Summary, None);
    /// assert!(report.completed() > 0);
    /// assert!(report.records.is_empty(), "summary keeps no records");
    /// ```
    #[must_use]
    pub fn run_stream_sla<I>(
        &self,
        arrivals: I,
        detail: ReportDetail,
        sla_ns: Option<u64>,
    ) -> RunReport
    where
        I: IntoIterator<Item = QuerySpec>,
    {
        // The groups are given and nothing re-plans, so the distribution
        // is never read and the budget only has to hold the partitions.
        let model = ModelSpec {
            name: "server".to_owned(),
            table: self.table.clone(),
            dist: BatchDistribution::constant(1),
            scheduler: self.config.scheduler.clone(),
            sla_ns,
        };
        let gpcs = self.partitions.iter().map(|p| p.gpcs()).sum();
        let server = MultiModelServer::with_groups(
            vec![model],
            vec![self.partitions.clone()],
            GpcBudget::new(gpcs, self.partitions.len()),
            MultiModelConfig::new(),
        );
        let tagged = arrivals
            .into_iter()
            .map(|spec| TaggedQuerySpec { model: 0, spec });
        server.run_stream(tagged, detail).into()
    }

    /// The pre-rearchitecture implementation, kept as the semantic
    /// reference: the whole trace is loaded into the event queue up front,
    /// every ELSA decision snapshots all partitions and runs the pure
    /// [`Elsa::place`], and every per-query record is materialized.
    ///
    /// Reports are bit-for-bit identical to [`run`](Self::run) with
    /// [`ReportDetail::Full`] — this is what the determinism tests and
    /// property suite cross-check the fast path against. It exists for
    /// validation and as the baseline in `bench_server`; sweeps should use
    /// `run`.
    #[must_use]
    pub fn run_reference(&self, trace: &[QuerySpec]) -> RunReport {
        let mut sim: Simulation<Event> = Simulation::new();
        let mut workers: Vec<PartitionWorker> = self
            .partitions
            .iter()
            .map(|&size| PartitionWorker::new(size))
            .collect();
        let mut central: std::collections::VecDeque<Query> = std::collections::VecDeque::new();
        let elsa = match &self.config.scheduler {
            SchedulerKind::Fifs => None,
            SchedulerKind::Elsa(cfg) => Some(Elsa::new(*cfg)),
        };

        // The frontend is a serial FIFO server: query i's dispatch time is
        // max(arrival, previous dispatch) + overhead.
        let mut frontend_free = SimTime::ZERO;
        for (i, spec) in trace.iter().enumerate() {
            let arrival = SimTime::from_nanos(spec.arrival_ns);
            let begin = arrival.max(frontend_free);
            let dispatched = begin + FRONTEND_OVERHEAD;
            frontend_free = dispatched;
            sim.schedule_at(
                dispatched,
                Event::Dispatch(Query {
                    id: QueryId(i as u64),
                    batch: spec.batch,
                    arrival,
                    dispatched,
                }),
            );
        }

        let mut records: Vec<QueryRecord> = Vec::with_capacity(trace.len());
        let mut latency = LatencyRecorder::new();
        let mut histogram = LatencyHistogram::new();
        let mut queue_hist = LatencyHistogram::new();
        let mut service_hist = LatencyHistogram::new();
        let mut sla_violations = 0u64;

        while let Some((now, event)) = sim.next_event() {
            match event {
                Event::Dispatch(query) => match &elsa {
                    Some(elsa) => {
                        let snapshots: Vec<_> = workers.iter().map(|w| w.snapshot(now)).collect();
                        let p = elsa.place(query.batch, &self.table, &snapshots).partition();
                        if workers[p].is_idle() {
                            self.begin_reference(&mut workers[p], p, query, now, &mut sim);
                        } else {
                            let est = SimDuration::from_nanos(
                                self.table.latency_ns(workers[p].size(), query.batch),
                            );
                            workers[p].enqueue(query, est);
                        }
                    }
                    None => {
                        // FIFS: the partition idle the longest takes the
                        // query; otherwise it waits in the central queue.
                        let idle = (0..workers.len())
                            .filter(|&i| workers[i].is_idle())
                            .min_by_key(|&i| (workers[i].idle_since(), i));
                        match idle {
                            Some(p) => {
                                self.begin_reference(&mut workers[p], p, query, now, &mut sim);
                            }
                            None => central.push_back(query),
                        }
                    }
                },
                Event::Complete { partition } => {
                    let (query, started) = workers[partition].finish(now);
                    let record = QueryRecord {
                        id: query.id,
                        batch: query.batch,
                        arrival: query.arrival,
                        dispatched: query.dispatched,
                        started,
                        completed: now,
                        partition,
                    };
                    latency.record(record.latency().as_nanos());
                    histogram.record(record.latency().as_nanos());
                    queue_hist.record((started - query.dispatched).as_nanos());
                    service_hist.record((now - started).as_nanos());
                    if let Some(sla) = self.config.sla_ns {
                        sla_violations += u64::from(record.latency().as_nanos() > sla);
                    }
                    records.push(record);

                    let next = match &elsa {
                        Some(_) => workers[partition].pop_next().map(|(q, _)| q),
                        None => central.pop_front(),
                    };
                    if let Some(q) = next {
                        self.begin_reference(&mut workers[partition], partition, q, now, &mut sim);
                    }
                }
            }
        }

        let makespan = sim.now().saturating_since(SimTime::ZERO);
        let makespan_s = makespan.as_secs_f64();
        let achieved_qps = if makespan_s > 0.0 {
            records.len() as f64 / makespan_s
        } else {
            0.0
        };
        let partition_utilization = workers
            .iter()
            .map(|w| {
                if makespan.as_nanos() == 0 {
                    0.0
                } else {
                    (w.busy_ns() as f64 / makespan.as_nanos() as f64).min(1.0)
                }
            })
            .collect();

        RunReport {
            detail: ReportDetail::Full,
            records,
            latency,
            histogram,
            queue_hist,
            service_hist,
            makespan,
            achieved_qps,
            partition_utilization,
            peak_pending_events: sim.peak_pending(),
            sla_ns: self.config.sla_ns,
            sla_violations,
        }
    }

    /// Reference-path begin: starts `query` on worker `p` at `now` for its
    /// profiled latency and schedules its completion with a plain
    /// (FIFO-tie-break) push.
    fn begin_reference(
        &self,
        worker: &mut PartitionWorker,
        p: usize,
        query: Query,
        now: SimTime,
        sim: &mut Simulation<Event>,
    ) {
        let duration = SimDuration::from_nanos(self.table.latency_ns(worker.size(), query.batch));
        let end = worker.begin(query, now, duration);
        sim.schedule_at(end, Event::Complete { partition: p });
    }
}

/// A 1-model run's report in single-server form: how every
/// [`InferenceServer`] run reports.
///
/// # Panics
///
/// Panics if the run hosted more than one model.
impl From<MultiRunReport> for RunReport {
    fn from(multi: MultiRunReport) -> Self {
        let [model] = &multi.per_model[..] else {
            panic!("single-server report of a multi-model run");
        };
        let (sla_ns, sla_violations) = (model.sla_ns, model.sla_violations);
        RunReport {
            detail: multi.detail,
            records: multi.records,
            latency: multi.latency,
            histogram: multi.histogram,
            queue_hist: multi.queue_hist,
            service_hist: multi.service_hist,
            makespan: multi.makespan,
            achieved_qps: multi.achieved_qps,
            partition_utilization: multi.partition_utilization,
            peak_pending_events: multi.peak_pending_events,
            sla_ns,
            sla_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;
    use inference_workload::{BatchDistribution, TraceGenerator};
    use mig_gpu::{DeviceSpec, PerfModel};

    fn table(kind: ModelKind) -> ProfileTable {
        let model = kind.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    fn trace(rate: f64, seed: u64, secs: f64) -> Vec<QuerySpec> {
        TraceGenerator::new(rate, BatchDistribution::paper_default(), seed).generate_for(secs)
    }

    fn fifs_server(kind: ModelKind, partitions: Vec<ProfileSize>) -> InferenceServer {
        InferenceServer::new(
            partitions,
            table(kind),
            ServerConfig::new(SchedulerKind::Fifs),
        )
    }

    fn elsa_server(kind: ModelKind, partitions: Vec<ProfileSize>) -> InferenceServer {
        let t = table(kind);
        let sla = t.sla_target_ns(1.5);
        InferenceServer::new(
            partitions,
            t,
            ServerConfig::new(SchedulerKind::Elsa(ElsaConfig::new(sla))),
        )
    }

    fn assert_reports_identical(a: &RunReport, b: &RunReport) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.queue_hist, b.queue_hist);
        assert_eq!(a.service_hist, b.service_hist);
        assert_eq!(a.breakdown(), b.breakdown());
        assert_eq!(a.partition_utilization, b.partition_utilization);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.achieved_qps, b.achieved_qps);
        assert_eq!(a.sla_ns, b.sla_ns);
        assert_eq!(a.sla_violations, b.sla_violations);
    }

    #[test]
    fn every_query_completes_exactly_once() {
        let server = fifs_server(
            ModelKind::MobileNet,
            vec![ProfileSize::G1, ProfileSize::G2, ProfileSize::G3],
        );
        let tr = trace(400.0, 3, 1.0);
        let report = server.run(&tr);
        assert_eq!(report.records.len(), tr.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tr.len(), "no duplicate completions");
    }

    #[test]
    fn lifecycle_timestamps_are_ordered() {
        let server = elsa_server(
            ModelKind::ResNet50,
            vec![ProfileSize::G1, ProfileSize::G3, ProfileSize::G7],
        );
        let tr = trace(150.0, 5, 1.0);
        let report = server.run(&tr);
        for r in &report.records {
            assert!(r.arrival <= r.dispatched, "{r:?}");
            assert!(r.dispatched <= r.started, "{r:?}");
            assert!(r.started < r.completed, "{r:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let server = elsa_server(ModelKind::ResNet50, vec![ProfileSize::G2, ProfileSize::G7]);
        let tr = trace(200.0, 7, 1.0);
        let a = server.run(&tr);
        let b = server.run(&tr);
        assert_eq!(a.records, b.records);
        assert_eq!(a.partition_utilization, b.partition_utilization);
        // The streamed fast path must also reproduce the pre-loaded
        // reference implementation bit-for-bit.
        let reference = server.run_reference(&tr);
        assert_reports_identical(&a, &reference);
    }

    #[test]
    fn fast_path_matches_reference_for_fifs() {
        let server = fifs_server(
            ModelKind::MobileNet,
            vec![
                ProfileSize::G1,
                ProfileSize::G1,
                ProfileSize::G2,
                ProfileSize::G3,
            ],
        );
        for (rate, seed) in [(100.0, 1u64), (800.0, 2), (3_000.0, 3)] {
            let tr = trace(rate, seed, 0.5);
            assert_reports_identical(&server.run(&tr), &server.run_reference(&tr));
        }
    }

    #[test]
    fn fast_path_matches_reference_for_elsa_under_overload() {
        // Overload exercises Step B fallbacks and deep local queues.
        let server = elsa_server(
            ModelKind::ResNet50,
            vec![
                ProfileSize::G1,
                ProfileSize::G2,
                ProfileSize::G2,
                ProfileSize::G7,
            ],
        );
        for (rate, seed) in [(50.0, 11u64), (500.0, 12), (4_000.0, 13)] {
            let tr = trace(rate, seed, 0.3);
            assert_reports_identical(&server.run(&tr), &server.run_reference(&tr));
        }
    }

    #[test]
    fn streaming_keeps_event_queue_small() {
        let server = fifs_server(ModelKind::MobileNet, vec![ProfileSize::G2; 4]);
        let tr = trace(2_000.0, 5, 0.5);
        assert!(tr.len() > 100, "need a non-trivial trace");
        let fast = server.run(&tr);
        let reference = server.run_reference(&tr);
        assert!(
            fast.peak_pending_events <= server.partitions().len() + 2,
            "streamed queue stays O(partitions), got {}",
            fast.peak_pending_events
        );
        assert!(
            reference.peak_pending_events >= tr.len(),
            "reference pre-loads the whole trace"
        );
    }

    #[test]
    fn summary_matches_full_statistics() {
        let server = elsa_server(
            ModelKind::MobileNet,
            vec![ProfileSize::G1, ProfileSize::G2, ProfileSize::G7],
        );
        let tr = trace(600.0, 17, 0.5);
        let full = server.run(&tr);
        let summary = server.run_stream_sla(tr.iter().copied(), ReportDetail::Summary, None);
        assert!(summary.records.is_empty());
        assert!(summary.latency.is_empty());
        assert_eq!(summary.completed(), tr.len() as u64);
        assert_eq!(summary.completed(), full.completed());
        assert_eq!(summary.makespan, full.makespan);
        assert_eq!(summary.achieved_qps, full.achieved_qps);
        assert_eq!(summary.partition_utilization, full.partition_utilization);
        // Histogram percentiles are bucket-accurate (≤ 1.6 % error).
        let exact = full.p95_ms();
        let approx = summary.p95_ms();
        assert!(
            (approx / exact - 1.0).abs() < 0.016,
            "p95 {approx} vs exact {exact}"
        );
        let sla = server.table().sla_target_ns(1.5);
        assert!(
            (summary.sla_violation_rate(sla) - full.sla_violation_rate(sla)).abs() < 0.02,
            "violation rates within bucket accuracy"
        );
    }

    #[test]
    fn summary_counts_sla_violations_exactly() {
        // The ROADMAP "exact summary violations" item: with the SLA
        // threaded into the run, a Summary run's violation count equals
        // the reference count computed from exact per-query latencies —
        // not a histogram-bucket approximation.
        let t = table(ModelKind::ResNet50);
        let sla = t.sla_target_ns(1.5);
        let server = InferenceServer::new(
            vec![ProfileSize::G1, ProfileSize::G2],
            t,
            ServerConfig::new(SchedulerKind::Elsa(ElsaConfig::new(sla))).with_sla_target(sla),
        );
        // Load the two small partitions enough to violate.
        let tr = trace(600.0, 41, 0.5);
        let summary = server.run_stream_sla(tr.iter().copied(), ReportDetail::Summary, Some(sla));
        let reference = server.run_reference(&tr);
        let exact = reference
            .records
            .iter()
            .filter(|r| r.latency().as_nanos() > sla)
            .count() as u64;
        assert!(exact > 0, "workload must produce violations");
        assert_eq!(reference.sla_violations, exact);
        assert_eq!(summary.sla_violations, exact, "summary count is exact");
        assert_eq!(summary.sla_ns, Some(sla));
        assert_eq!(
            summary.sla_violation_rate(sla),
            exact as f64 / tr.len() as f64
        );
        // Querying a *different* target still answers (bucket-accurate).
        let other = summary.sla_violation_rate(sla * 2);
        assert!((0.0..=1.0).contains(&other));
    }

    #[test]
    fn per_run_sla_replaces_the_configured_target() {
        // The call's target reaches the 1-model server as its SLA in place
        // of the configured one, and `None` counts nothing.
        let t = table(ModelKind::ResNet50);
        let sla = t.sla_target_ns(1.5);
        let server = InferenceServer::new(
            vec![ProfileSize::G1, ProfileSize::G2],
            t,
            ServerConfig::new(SchedulerKind::Elsa(ElsaConfig::new(sla))).with_sla_target(sla),
        );
        let tr = trace(600.0, 41, 0.5);
        let full = server.run(&tr);
        let other = sla / 2;
        let exact = full
            .records
            .iter()
            .filter(|r| r.latency().as_nanos() > other)
            .count() as u64;
        assert_ne!(exact, full.sla_violations, "the two targets must differ");
        let summary = server.run_stream_sla(tr.iter().copied(), ReportDetail::Summary, Some(other));
        assert_eq!(summary.sla_ns, Some(other));
        assert_eq!(summary.sla_violations, exact);
        let none = server.run_stream_sla(tr.iter().copied(), ReportDetail::Summary, None);
        assert_eq!(none.sla_ns, None);
        assert_eq!(none.sla_violations, 0);
    }

    #[test]
    fn run_stream_equals_run_on_materialized_trace() {
        let server = elsa_server(ModelKind::BertBase, vec![ProfileSize::G3, ProfileSize::G7]);
        let gen = TraceGenerator::new(150.0, BatchDistribution::paper_default(), 23);
        let tr = gen.generate_for(0.5);
        let from_slice = server.run(&tr);
        let from_stream = server.run_stream_sla(gen.stream_for(0.5), ReportDetail::Full, None);
        assert_reports_identical(&from_slice, &from_stream);
    }

    #[test]
    fn fifs_prefers_longest_idle_partition() {
        // Two idle partitions: the one that has been idle longer (lower
        // idle_since, i.e. never used → index order) gets the query.
        let server = fifs_server(ModelKind::MobileNet, vec![ProfileSize::G1, ProfileSize::G1]);
        let tr = vec![
            QuerySpec {
                arrival_ns: 0,
                batch: 1,
            },
            QuerySpec {
                arrival_ns: 1_000,
                batch: 1,
            },
        ];
        let report = server.run(&tr);
        let partitions: Vec<usize> = report.records.iter().map(|r| r.partition).collect();
        assert!(partitions.contains(&0) && partitions.contains(&1));
    }

    #[test]
    fn elsa_routes_small_batches_to_small_partitions_under_light_load() {
        let server = elsa_server(ModelKind::MobileNet, vec![ProfileSize::G1, ProfileSize::G7]);
        // A single tiny query: must land on the small partition.
        let tr = vec![QuerySpec {
            arrival_ns: 0,
            batch: 1,
        }];
        let report = server.run(&tr);
        assert_eq!(report.records[0].partition, 0);
    }

    #[test]
    fn service_time_is_the_profiled_latency() {
        let server = fifs_server(ModelKind::BertBase, vec![ProfileSize::G7]);
        let tr = vec![QuerySpec {
            arrival_ns: 0,
            batch: 8,
        }];
        let report = server.run(&tr);
        let expected = server.table().latency_ns(ProfileSize::G7, 8);
        assert_eq!(report.records[0].service_time().as_nanos(), expected);
    }

    #[test]
    fn frontend_serializes_dispatch() {
        // Two simultaneous arrivals: the second is dispatched one frontend
        // overhead after the first.
        let server = fifs_server(ModelKind::MobileNet, vec![ProfileSize::G1, ProfileSize::G1]);
        let tr = vec![
            QuerySpec {
                arrival_ns: 0,
                batch: 1,
            },
            QuerySpec {
                arrival_ns: 0,
                batch: 1,
            },
        ];
        let report = server.run(&tr);
        let overhead = FRONTEND_OVERHEAD.as_nanos();
        let mut dispatched: Vec<u64> = report
            .records
            .iter()
            .map(|r| r.dispatched.as_nanos())
            .collect();
        dispatched.sort_unstable();
        assert_eq!(dispatched[0], overhead);
        assert_eq!(dispatched[1], 2 * overhead);
    }

    #[test]
    fn utilization_in_unit_range_and_nonzero_under_load() {
        let server = fifs_server(ModelKind::ResNet50, vec![ProfileSize::G3, ProfileSize::G3]);
        let report = server.run(&trace(100.0, 9, 1.0));
        assert!(report.mean_utilization() > 0.0);
        for &u in &report.partition_utilization {
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn overload_grows_latency() {
        let server = fifs_server(ModelKind::BertBase, vec![ProfileSize::G1]);
        let light = server.run(&trace(5.0, 11, 1.0));
        let heavy = server.run(&trace(500.0, 11, 1.0));
        assert!(heavy.p95_ms() > 5.0 * light.p95_ms());
    }

    #[test]
    fn full_detail_records_capture_every_execution() {
        // A full-detail record is one execution: its partition, start and
        // end. Every query leaves exactly one, and no partition runs two
        // queries at once.
        let t = table(ModelKind::MobileNet);
        let server = InferenceServer::new(
            vec![ProfileSize::G1, ProfileSize::G2],
            t,
            ServerConfig::new(SchedulerKind::Fifs),
        );
        let tr = trace(200.0, 13, 0.2);
        let report = server.run(&tr);
        assert_eq!(report.records.len(), tr.len());
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
    #[should_panic(expected = "at least one partition")]
    fn empty_partition_list_panics() {
        let _ = InferenceServer::new(
            vec![],
            table(ModelKind::MobileNet),
            ServerConfig::new(SchedulerKind::Fifs),
        );
    }
}
