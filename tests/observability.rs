//! Observability-layer integration tests: invariant 12 (zero observer
//! effect), invariant 13 (online telemetry ≡ the `from_trace` oracle),
//! trace determinism across thread counts, and the flight recorder's
//! conservation / exact-breakdown guarantees.
//!
//! The property tests are the contract the whole `obs` crate hangs off:
//! attaching the recorder must leave the fault report **byte-identical**
//! (full `Debug` rendering) to the untraced run, and the live metric
//! registry must equal `MetricRegistry::from_trace` of the same run byte
//! for byte, for any router policy, sampled fault plan, sync-window mode
//! and lane thread count — and both must equal per-model SLA-violation
//! series computed straight from the trace, with no `OnlineLane` fold, and
//! the registry replayed from the trace's global order. The unit tests pin
//! what the trace itself must satisfy: offered = routed + shed, arrivals =
//! completed, per-class latency components that sum to the measured
//! end-to-end latency in integer nanoseconds with no residual, and
//! per-class totals equal to the report's own per-query records.

use paris_elsa::cluster::{Cluster, RouterPolicy, ShedPolicy, SyncWindow};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::{FaultPlan, FaultReport, FaultTopology};
use paris_elsa::metrics::LatencyHistogram;
use paris_elsa::obs::{
    alert_records, analyze, check_conservation, evaluate_slos, jsonl, merge_online, MetricRegistry,
    OnlineLane, QueryTrace, SloSpec,
};
use paris_elsa::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn mobilenet_table() -> ProfileTable {
    let perf = PerfModel::new(DeviceSpec::a100());
    ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32)
}

/// A two-model shard on `gpus` GPUs, summary detail (the scenario-bench
/// configuration, scaled down).
fn shard(table: &ProfileTable, gpus: usize) -> MultiModelServer {
    let dist = BatchDistribution::paper_default();
    MultiModelServer::new(
        vec![
            ModelSpec::new("premium", table.clone(), dist.clone()),
            ModelSpec::new("batch", table.clone(), dist),
        ],
        GpcBudget::new(gpus * 7, gpus),
        MultiModelConfig::new().with_detail(ReportDetail::Summary),
    )
    .expect("shard plan builds")
}

/// Two 2-GPU shards with brownout shedding on both classes.
fn small_cluster(table: &ProfileTable, policy: RouterPolicy) -> Cluster {
    Cluster::new(vec![shard(table, 2), shard(table, 2)], policy)
        .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.5))
}

/// Two equal-rate arrival streams (premium + batch) at `frac` of fleet
/// capacity combined, over `duration_s` simulated seconds.
fn arrivals(cluster: &Cluster, duration_s: f64, frac: f64, seed: u64) -> Vec<TaggedQuerySpec> {
    phased_arrivals(cluster, &[(duration_s, frac)], seed)
}

/// [`arrivals`] over consecutive `(duration_s, frac)` phases.
fn phased_arrivals(cluster: &Cluster, phases: &[(f64, f64)], seed: u64) -> Vec<TaggedQuerySpec> {
    let dist = BatchDistribution::paper_default();
    let fleet: f64 = cluster
        .shards()
        .iter()
        .map(MultiModelServer::capacity_hint_qps)
        .sum();
    let phases = phases
        .iter()
        .map(|&(duration_s, frac)| {
            let per_model = 0.5 * frac * fleet;
            PhaseSpec::new(
                duration_s,
                vec![(per_model, dist.clone()), (per_model, dist.clone())],
            )
        })
        .collect();
    MultiTraceGenerator::new(phases, seed).generate()
}

/// Runs `trace` (unpinned) through `cluster` under `plan`, the rest of
/// the run as `spec` says: the run's fault report, trace and registry.
fn run_plan(
    cluster: &Cluster,
    trace: &[TaggedQuerySpec],
    plan: &FaultPlan,
    spec: RunSpec,
) -> (FaultReport, Option<QueryTrace>, Option<MetricRegistry>) {
    let spec = spec.with_faults(plan.compile());
    let run = cluster.run_with(trace.iter().map(|&tq| (None, tq)), &spec);
    let report = FaultReport::new(cluster, plan, run.report);
    (report, run.trace, run.registry)
}

/// The unit suite's fixture: a mid-run rack outage on shard 0 under
/// moderate overload, traced at the given sync window, thread count and
/// report detail.
fn traced_outage_run(
    table: &ProfileTable,
    window: SyncWindow,
    threads: usize,
    detail: ReportDetail,
) -> (FaultReport, QueryTrace) {
    let cluster = small_cluster(table, RouterPolicy::JoinShortestQueue);
    let trace_in = arrivals(&cluster, 1.0, 0.8, 7);
    let topology = FaultTopology::racks(&[2, 2], 2);
    let plan = FaultPlan::new().with_domain_outage(&topology, "rack0", 0.3, 0.7);
    let spec = RunSpec::new(detail)
        .with_window(window, threads)
        .with_obs(ObsRequest::traced());
    let (report, trace, _) = run_plan(&cluster, &trace_in, &plan, spec);
    (report, trace.expect("tracing was requested"))
}

/// `(name, value bits)` of a registry's per-model SLA-violation series.
fn sla_series(registry: &MetricRegistry) -> Vec<(String, Vec<u64>)> {
    registry
        .series()
        .iter()
        .filter(|s| s.name.ends_with("/sla_violation_rate"))
        .map(|s| {
            (
                s.name.clone(),
                s.values.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Every `model{m}/sla_violation_rate` series computed directly from the
/// trace records, sharing no code with the online fold: a dense
/// `LatencyHistogram` of completion latencies per (model, bin), each
/// completion's model and SLA taken from the same lane's arrival, read out
/// with `violation_rate`. Assumes — and checks — one SLA per model, which
/// every cluster the repo builds satisfies, and that each completion names
/// its arrival's model.
fn sla_violation_oracle(trace: &QueryTrace, window_ns: u64) -> Vec<(String, Vec<u64>)> {
    let windows = (trace.horizon().as_nanos() / window_ns + 1) as usize;
    let mut in_flight: HashMap<(u32, u64), (usize, u64)> = HashMap::new();
    let mut models: BTreeMap<usize, (u64, Vec<LatencyHistogram>)> = BTreeMap::new();
    for r in trace.records() {
        match r.event {
            TraceEvent::Arrival {
                query,
                group,
                sla_ns,
                ..
            } => {
                in_flight.insert((r.lane, query), (group, sla_ns));
            }
            TraceEvent::Complete {
                query,
                group: completed_as,
                latency_ns,
                ..
            } => {
                let (group, sla_ns) = in_flight
                    .remove(&(r.lane, query))
                    .expect("a completion follows its arrival on the same lane");
                assert_eq!(
                    completed_as, group,
                    "lane {} query {query} completes in its arrival's group",
                    r.lane
                );
                let (sla, bins) = models
                    .entry(group)
                    .or_insert_with(|| (sla_ns, vec![LatencyHistogram::new(); windows]));
                assert_eq!(*sla, sla_ns, "model {group} carries one SLA");
                bins[(r.at.as_nanos() / window_ns) as usize].record(latency_ns);
            }
            _ => {}
        }
    }
    models
        .into_iter()
        .filter(|(_, (sla, _))| *sla > 0)
        .map(|(model, (sla, bins))| {
            let values = bins
                .iter()
                .map(|h| h.violation_rate(sla).to_bits())
                .collect();
            (format!("model{model}/sla_violation_rate"), values)
        })
        .collect()
}

/// The registry replayed from the trace's global `(time, key, lane, seq)`
/// order instead of each lane's append order. The two differ only in how
/// same-instant records of different queries interleave, which no
/// `OnlineLane` fold may notice.
fn registry_from_global_order(
    trace: &QueryTrace,
    window_ns: u64,
    lane_gpcs: &[u32],
) -> MetricRegistry {
    let mut lanes: BTreeMap<u32, OnlineLane> = BTreeMap::new();
    for r in trace.records() {
        lanes
            .entry(r.lane)
            .or_insert_with(|| OnlineLane::new(r.lane, window_ns))
            .record(r.at, r.key, r.event);
    }
    merge_online(window_ns, lanes.into_values(), lane_gpcs)
}

#[test]
fn flight_recorder_conserves_queries() {
    let table = mobilenet_table();
    let (report, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1, ReportDetail::Summary);
    assert!(!trace.is_empty(), "outage run must record events");

    let stats = check_conservation(&trace).expect("per-query lifecycle balances");
    assert_eq!(stats.offered, stats.routed + stats.shed, "admission ledger");
    assert_eq!(stats.arrivals, stats.completed, "lifecycle conservation");
    assert!(stats.shed > 0, "the outage must brown out some batch load");
    assert_eq!(
        stats.completed,
        report.cluster.completed(),
        "trace-counted completions match the report"
    );
}

#[test]
fn breakdown_components_sum_exactly() {
    let table = mobilenet_table();
    let (_, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1, ReportDetail::Summary);
    let analysis = analyze(&trace);
    assert_eq!(analysis.classes.len(), 2, "premium and batch rows");
    for class in &analysis.classes {
        assert!(
            class.completed > 0,
            "class {} completed nothing",
            class.group
        );
        assert_eq!(
            class.components_sum(),
            class.total_latency_ns as i128,
            "class {} breakdown must sum to end-to-end latency exactly",
            class.group
        );
    }
    let stats = check_conservation(&trace).expect("conserved");
    assert_eq!(
        analysis.classes.iter().map(|c| c.completed).sum::<u64>(),
        stats.completed,
        "per-class completions partition the total"
    );
}

/// An oracle for `analyze` that shares no code with its fold: each class's
/// completion count and total latency, read from the report's own
/// per-query records (`ReportDetail::Full`) — the records of the class's
/// model and their sum of `completed − arrival`.
#[test]
fn breakdown_totals_match_the_reports_per_query_records() {
    let table = mobilenet_table();
    for window in [
        SyncWindow::PerEvent,
        SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000)),
    ] {
        for threads in [1usize, 4] {
            let (report, trace) = traced_outage_run(&table, window, threads, ReportDetail::Full);
            let mut expected: BTreeMap<usize, (u64, u128)> = BTreeMap::new();
            for shard in &report.cluster.per_shard {
                assert_eq!(shard.records.len(), shard.record_models.len());
                for (record, &model) in shard.records.iter().zip(&shard.record_models) {
                    let class = expected.entry(model).or_default();
                    class.0 += 1;
                    class.1 += u128::from((record.completed - record.arrival).as_nanos());
                }
            }
            assert_eq!(expected.len(), 2, "both classes complete queries");
            let analysed: BTreeMap<usize, (u64, u128)> = analyze(&trace)
                .classes
                .iter()
                .map(|c| (c.group, (c.completed, c.total_latency_ns)))
                .collect();
            assert_eq!(
                analysed, expected,
                "breakdown totals diverged from the report at {threads} threads ({window:?})"
            );
        }
    }
}

#[test]
fn trace_is_thread_count_invariant() {
    let table = mobilenet_table();
    for window in [
        SyncWindow::PerEvent,
        SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000)),
    ] {
        let (report1, trace1) = traced_outage_run(&table, window, 1, ReportDetail::Summary);
        let (report4, trace4) = traced_outage_run(&table, window, 4, ReportDetail::Summary);
        assert_eq!(
            format!("{report1:?}"),
            format!("{report4:?}"),
            "report diverged across thread counts ({window:?})"
        );
        assert_eq!(
            trace1, trace4,
            "trace diverged across thread counts ({window:?})"
        );
    }
}

#[test]
fn metric_registry_covers_the_run() {
    let table = mobilenet_table();
    let (_, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1, ReportDetail::Summary);
    let window_ns = 100_000_000;
    let registry = MetricRegistry::from_trace(&trace, window_ns, &[14, 14]);
    for s in 0..2 {
        let busy = registry
            .get(&format!("shard{s}/busy_gpc_fraction"))
            .unwrap_or_else(|| panic!("shard{s} busy series"));
        assert!(!busy.values.is_empty());
        assert!(
            busy.values.iter().all(|v| (0.0..=1.0).contains(v)),
            "busy-GPC fraction is a fraction"
        );
        assert!(
            registry.get(&format!("shard{s}/outstanding")).is_some(),
            "shard{s} outstanding series"
        );
    }
    let shed = registry.get("fleet/shed_rate").expect("fleet shed series");
    assert!(
        shed.values.iter().any(|&v| v > 0.0),
        "the outage window must show sheds on the grid"
    );
}

/// Alert annotations live on their own lane and hit no registry fold:
/// stamping a fired alert log back onto the trace must reproduce the
/// exact same registry (so `trace_report --slo` can annotate freely).
#[test]
fn alert_annotations_are_registry_neutral() {
    let table = mobilenet_table();
    let (_, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1, ReportDetail::Summary);
    let window_ns = 100_000_000;
    let registry = MetricRegistry::from_trace(&trace, window_ns, &[14, 14]);
    let specs = [
        SloSpec::new("premium-avail", 0, 0.9).with_windows(2, 6),
        SloSpec::new("batch-avail", 1, 0.5).with_windows(2, 6),
    ];
    let alerts = evaluate_slos(&registry, &specs);
    assert!(
        !alerts.is_empty(),
        "a rack outage under overload must burn an error budget"
    );
    let annotated = trace.annotated(alert_records(&alerts, window_ns).into_records());
    assert!(annotated.len() > trace.len(), "annotations were merged");
    let replayed = MetricRegistry::from_trace(&annotated, window_ns, &[14, 14]);
    assert_eq!(registry, replayed, "alert rows changed the registry");
}

/// The golden fault plan: shard 0's GPU 0 is dark from 20 to 40 ms and
/// shard 1's GPU 1 runs 1.5× slow from 10 to 50 ms.
fn golden_plan() -> FaultPlan {
    FaultPlan::new()
        .with_gpu_outage(0, 0, 0.02, 0.04)
        .with_gpu_degrade(1, 1, 1.5, 0.01, 0.05)
}

/// The golden fixture: `small_cluster` with a 2-GPU loan pool deciding on
/// 20 ms windows, 30 ms at 0.8× fleet capacity and then a 30 ms surge at
/// 2×, under `plan`. Under [`golden_plan`] it is small enough to check
/// in, rich enough to record every lifecycle exception (enqueue, stash,
/// abort, requeue, shed) beside faults, degrade-inflated executions on
/// the slowed GPU, a recovery reconfig and the surge's loans.
fn golden_trace(window: SyncWindow, plan: &FaultPlan) -> QueryTrace {
    let table = mobilenet_table();
    let cluster =
        small_cluster(&table, RouterPolicy::JoinShortestQueue).with_loan(LoanPolicy::new(2, 0.02));
    let trace_in = phased_arrivals(&cluster, &[(0.03, 0.8), (0.03, 2.0)], 11);
    let spec = RunSpec::new(ReportDetail::Summary)
        .with_window(window, 1)
        .with_obs(ObsRequest::traced());
    let (_, trace, _) = run_plan(&cluster, &trace_in, plan, spec);
    trace.expect("tracing was requested")
}

/// The JSONL export of [`golden_trace`] under [`golden_plan`] is pinned
/// byte for byte under `tests/golden/`, at per-event and at lookahead
/// windowing, so a change to how the recorder stores a trace cannot
/// change what it reads back. Each export must hold a loan and an
/// execution inflated by the degrade, so the files pin both paths.
/// Only a change to simulated behaviour may move these files: on a
/// mismatch the new export is written under the target directory, and a
/// change that moves behaviour on purpose copies it over the golden file
/// and says why.
#[test]
fn golden_jsonl_exports_are_reproduced_byte_for_byte() {
    for (window, file) in [
        (SyncWindow::PerEvent, "trace_per_event.jsonl"),
        (
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000)),
            "trace_lookahead.jsonl",
        ),
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(file);
        let trace = golden_trace(window, &golden_plan());
        let records = trace.records();
        assert!(
            records
                .iter()
                .any(|r| matches!(r.event, TraceEvent::Loan { gpus_delta, .. } if gpus_delta > 0)),
            "{file}: the surge must borrow a pool GPU"
        );
        assert!(
            records.iter().any(|r| matches!(
                r.event,
                TraceEvent::ServiceStart { clean_ns, base_ns, .. } if base_ns > clean_ns
            )),
            "{file}: some execution must run on the degraded GPU"
        );
        let got = jsonl(&trace);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        if got != want {
            let moved = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
            std::fs::write(&moved, &got).expect("write the new export");
            panic!(
                "{file}: the JSONL export moved; the new export is at {}",
                moved.display()
            );
        }
    }
}

/// The serving engine draws no random numbers: every execution runs for
/// exactly its degrade-scaled profiled latency, so each `Complete` lands
/// exactly its latest `ServiceStart`'s `base_ns` after that start, and each
/// class's `degrade_inflation_ns` is the sum of `base_ns − clean_ns` over
/// its completing starts. Checked on the golden fixture (a GPU outage, a
/// 1.5× degrade, a recovery re-plan, loans) and on a variant that also
/// slows shard 1's other GPU, so that no placement can avoid the degrade;
/// in both, some `base_ns` must exceed its `clean_ns`.
#[test]
fn engine_traces_carry_no_service_noise() {
    for window in [
        SyncWindow::PerEvent,
        SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000)),
    ] {
        let whole_shard_slow = golden_plan().with_gpu_degrade(1, 0, 1.5, 0.01, 0.05);
        for plan in [golden_plan(), whole_shard_slow] {
            let trace = golden_trace(window, &plan);
            // (lane, query) → (stamp, base, clean) of its latest start.
            let mut latest: HashMap<(u32, u64), (u64, u64, u64)> = HashMap::new();
            let mut inflation: BTreeMap<usize, i128> = BTreeMap::new();
            let (mut starts, mut inflated) = (0usize, 0usize);
            for r in trace.records() {
                let at = r.at.as_nanos();
                match r.event {
                    TraceEvent::ServiceStart {
                        query,
                        clean_ns,
                        base_ns,
                        ..
                    } => {
                        starts += 1;
                        inflated += usize::from(base_ns > clean_ns);
                        latest.insert((r.lane, query), (at, base_ns, clean_ns));
                    }
                    TraceEvent::Complete { query, group, .. } => {
                        let (start, base, clean) = latest
                            .remove(&(r.lane, query))
                            .expect("a completion follows its start on the same lane");
                        assert_eq!(
                            at,
                            start + base,
                            "a service time left its profiled latency ({window:?})"
                        );
                        *inflation.entry(group).or_default() +=
                            i128::from(base) - i128::from(clean);
                    }
                    _ => {}
                }
            }
            assert!(starts > 0, "the fixture serves queries ({window:?})");
            assert!(
                inflated > 0,
                "the 1.5x degrade must inflate some executions ({window:?})"
            );
            let analysed: BTreeMap<usize, i128> = analyze(&trace)
                .classes
                .iter()
                .map(|c| (c.group, c.degrade_inflation_ns))
                .collect();
            assert_eq!(analysed, inflation, "per-class inflation ({window:?})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 12 (ARCHITECTURE.md): attaching the flight recorder is a
    /// pure observation — for ANY router policy, fault plan, sync-window
    /// mode and lane thread count, the traced run's report is byte-identical
    /// (full `Debug` rendering) to the untraced run's, and the trace itself
    /// is identical across thread counts.
    #[test]
    fn tracing_is_zero_observer_effect(
        seed in 0u64..8,
        router in 0u64..2,
        fault_kind in 0u64..4,
        mode in 0u64..2,
        degrade_factor in 1.5f64..4.0,
    ) {
        let table = mobilenet_table();
        let policy = match router {
            0 => RouterPolicy::StaticHash,
            _ => RouterPolicy::JoinShortestQueue,
        };
        let cluster = small_cluster(&table, policy);
        let trace_in = arrivals(&cluster, 0.4, 0.7, seed);
        let plan = match fault_kind {
            0 => FaultPlan::new(),
            1 => FaultPlan::new().with_gpu_degrade(1, 0, degrade_factor, 0.1, 0.3),
            2 => FaultPlan::new().with_domain_outage(
                &FaultTopology::racks(&[2, 2], 2),
                "rack0",
                0.1,
                0.3,
            ),
            _ => FaultPlan::sample_gpu_mttf(&[2, 2], 0.9, 0.2, 0.4, seed),
        };
        let window = if mode == 0 {
            SyncWindow::PerEvent
        } else {
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000))
        };

        let mut traces: Vec<QueryTrace> = Vec::new();
        for threads in [1usize, 4] {
            let spec = RunSpec::new(ReportDetail::Full).with_window(window, threads);
            let (untraced, ..) = run_plan(&cluster, &trace_in, &plan, spec.clone());
            let traced_spec = spec.with_obs(ObsRequest::traced());
            let (traced, trace, _) = run_plan(&cluster, &trace_in, &plan, traced_spec);
            let trace = trace.expect("tracing was requested");
            prop_assert_eq!(
                format!("{untraced:?}"),
                format!("{traced:?}"),
                "observer effect at {} threads ({:?})",
                threads,
                window
            );
            prop_assert!(!trace.is_empty(), "a loaded run must record events");
            traces.push(trace);
        }
        prop_assert!(
            traces[0] == traces[1],
            "trace diverged between 1 and 4 threads ({:?})",
            window
        );
    }

    /// Invariant 13 (ARCHITECTURE.md): the online telemetry plane — per-lane
    /// streaming aggregates merged in lane order, no trace retention — must
    /// equal `MetricRegistry::from_trace` of the same run **byte for byte**,
    /// for any router policy, fault plan, sync-window mode and thread count,
    /// and the registry itself must be identical across thread counts.
    /// Because `from_trace` replays the same fold in the same per-lane
    /// order, the per-model SLA-violation series of both are also checked
    /// bit for bit against [`sla_violation_oracle`], which recomputes them
    /// from the raw trace, and the whole registry against
    /// [`registry_from_global_order`], which replays the fold with
    /// same-instant records reordered.
    #[test]
    fn online_registry_matches_from_trace_oracle(
        seed in 0u64..8,
        router in 0u64..2,
        fault_kind in 0u64..4,
        mode in 0u64..2,
    ) {
        let table = mobilenet_table();
        let policy = match router {
            0 => RouterPolicy::StaticHash,
            _ => RouterPolicy::JoinShortestQueue,
        };
        let cluster = small_cluster(&table, policy);
        let trace_in = arrivals(&cluster, 0.4, 0.7, seed);
        let plan = match fault_kind {
            0 => FaultPlan::new(),
            1 => FaultPlan::new().with_gpu_degrade(1, 0, 2.5, 0.1, 0.3),
            2 => FaultPlan::new().with_domain_outage(
                &FaultTopology::racks(&[2, 2], 2),
                "rack0",
                0.1,
                0.3,
            ),
            _ => FaultPlan::sample_gpu_mttf(&[2, 2], 0.9, 0.2, 0.4, seed),
        };
        let window = if mode == 0 {
            SyncWindow::PerEvent
        } else {
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000))
        };
        let window_ns = 50_000_000u64;

        let mut registries: Vec<MetricRegistry> = Vec::new();
        for threads in [1usize, 4] {
            let spec = RunSpec::new(ReportDetail::Summary)
                .with_window(window, threads)
                .with_obs(ObsRequest::instrumented(window_ns));
            let (_, trace, registry) = run_plan(&cluster, &trace_in, &plan, spec);
            let (trace, registry) = (trace.expect("traced"), registry.expect("online"));
            let oracle = MetricRegistry::from_trace(&trace, window_ns, &[14, 14]);
            prop_assert_eq!(
                &registry,
                &oracle,
                "online registry diverged from the trace oracle at {} threads ({:?})",
                threads,
                window
            );
            let direct = sla_violation_oracle(&trace, window_ns);
            prop_assert_eq!(direct.len(), 2, "both models complete queries");
            prop_assert_eq!(
                &sla_series(&registry),
                &direct,
                "live SLA series diverged from the direct oracle at {} threads ({:?})",
                threads,
                window
            );
            prop_assert_eq!(
                &sla_series(&oracle),
                &direct,
                "replayed SLA series diverged from the direct oracle at {} threads ({:?})",
                threads,
                window
            );
            prop_assert_eq!(
                &registry,
                &registry_from_global_order(&trace, window_ns, &[14, 14]),
                "global-order replay diverged from the live registry at {} threads ({:?})",
                threads,
                window
            );
            registries.push(registry);
        }
        prop_assert_eq!(
            &registries[0],
            &registries[1],
            "online registry diverged between 1 and 4 threads ({:?})",
            window
        );
    }

    /// The SLO engine is a pure function of the registry, which is a pure
    /// function of the run: the alert log (fire bins, resolve bins, burn
    /// rates — full `Debug` rendering) must be identical across thread
    /// counts for any scenario.
    #[test]
    fn alert_log_is_thread_count_invariant(
        seed in 0u64..8,
        fault_kind in 0u64..3,
        mode in 0u64..2,
    ) {
        let table = mobilenet_table();
        let cluster = small_cluster(&table, RouterPolicy::JoinShortestQueue);
        let trace_in = arrivals(&cluster, 0.4, 0.8, seed);
        let plan = match fault_kind {
            0 => FaultPlan::new().with_domain_outage(
                &FaultTopology::racks(&[2, 2], 2),
                "rack0",
                0.1,
                0.3,
            ),
            1 => FaultPlan::new().with_gpu_degrade(0, 0, 3.0, 0.1, 0.3),
            _ => FaultPlan::sample_gpu_mttf(&[2, 2], 0.9, 0.2, 0.4, seed),
        };
        let window = if mode == 0 {
            SyncWindow::PerEvent
        } else {
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000))
        };
        let specs = [
            SloSpec::new("premium-avail", 0, 0.9).with_windows(2, 6),
            SloSpec::new("batch-avail", 1, 0.5).with_windows(2, 6),
        ];
        let mut logs: Vec<String> = Vec::new();
        for threads in [1usize, 4] {
            let spec = RunSpec::new(ReportDetail::Summary)
                .with_window(window, threads)
                .with_obs(ObsRequest::online(50_000_000));
            let (_, _, registry) = run_plan(&cluster, &trace_in, &plan, spec);
            let registry = registry.expect("online telemetry was requested");
            logs.push(format!("{:?}", evaluate_slos(&registry, &specs)));
        }
        prop_assert_eq!(
            &logs[0],
            &logs[1],
            "alert log diverged between 1 and 4 threads ({:?})",
            window
        );
    }
}
