//! `bench_cluster` — static sharding vs load-aware routing vs capacity
//! loaning, behind `BENCH_cluster.json`.
//!
//! Hosts MobileNet on two heterogeneous serving shards (4 GPUs + 2 GPUs)
//! with a 2-GPU low-priority batch pool, and drives a drifting
//! calm → surge → calm trace. Three cluster configurations are searched
//! for the largest load scale at which the whole fleet's p95 stays within
//! the SLA (the cluster analogue of the paper's latency-bounded
//! throughput, via the shared parallel doubling search):
//!
//! * `static`  — static-hash partitioning, fixed budgets (the baseline
//!   every gateway starts from);
//! * `jsq`     — join-shortest-queue on per-shard outstanding load;
//! * `jsq_loan`— JSQ plus Aryl-style loaning: the batch pool lends whole
//!   GPUs to overloaded shards during the surge and reclaims them after,
//!   paying MIG reslice + handover downtime on every transfer.
//!
//! Usage: `cargo run --release --bin bench_cluster [--quick] [--smoke] [--seed N]`
//!
//! `--smoke` runs a tiny trace with a shallow search — CI uses it to catch
//! bench regressions without paying for a real measurement; the numbers it
//! writes are not comparable.

use std::fmt::Write as _;

use paris_bench::print_table;
use paris_elsa::cluster::{Cluster, LoanPolicy, RouterPolicy};
use paris_elsa::dnn::ModelKind;
use paris_elsa::paris::ReconfigMode;
use paris_elsa::prelude::*;

/// The SLA-attainment target: the worst shard × model p95 must stay
/// within its SLA.
const P95_TARGET_RATIO: f64 = 1.0;

struct Scenario {
    phase_secs: f64,
    seed: u64,
    shard_gpus: Vec<usize>,
    pool_gpus: usize,
    table: ProfileTable,
    dist: BatchDistribution,
    /// Nominal calm-phase rate (the surge doubles it), queries/second.
    calm_qps: f64,
}

impl Scenario {
    fn new(phase_secs: f64, seed: u64) -> Self {
        let perf = PerfModel::new(DeviceSpec::a100());
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let dist = BatchDistribution::paper_default();
        let shard_gpus = vec![4, 2];
        // Calm at ~35 % of the serving fleet's planned capacity; the surge
        // doubles that to ~70 %, so the binding constraint at high scales
        // is the surge — exactly where loaned GPUs pay off.
        let fleet_capacity: f64 = shard_gpus
            .iter()
            .map(|&g| {
                Self::shard(&table, &dist, g)
                    .expect("shard plan builds")
                    .capacity_hint_qps()
            })
            .sum();
        Scenario {
            phase_secs,
            seed,
            shard_gpus,
            pool_gpus: 2,
            table,
            dist,
            calm_qps: 0.35 * fleet_capacity,
        }
    }

    fn shard(
        table: &ProfileTable,
        dist: &BatchDistribution,
        gpus: usize,
    ) -> Result<MultiModelServer, paris_elsa::paris::PlanError> {
        MultiModelServer::new(
            vec![ModelSpec::new("mobilenet_v1", table.clone(), dist.clone())],
            GpcBudget::new(gpus * 7, gpus),
            MultiModelConfig::new().with_detail(ReportDetail::Summary),
        )
    }

    fn cluster(&self, router: RouterPolicy, loaning: Option<ReconfigMode>) -> Cluster {
        let shards = self
            .shard_gpus
            .iter()
            .map(|&g| Self::shard(&self.table, &self.dist, g).expect("shard plan builds"))
            .collect();
        let cluster = Cluster::new(shards, router);
        if let Some(mode) = loaning {
            // Decide on half-second windows: several decisions fit into
            // each phase, and a window holds plenty of arrivals at every
            // scale the search probes.
            cluster.with_loan(LoanPolicy::new(self.pool_gpus, 0.5).with_mode(mode))
        } else {
            cluster
        }
    }

    /// The calm → surge → calm schedule at load scale `scale`.
    fn trace(&self, scale: f64) -> MultiTraceGenerator {
        let d = &self.dist;
        MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(self.phase_secs, vec![(self.calm_qps, d.clone())]),
                PhaseSpec::new(self.phase_secs, vec![(2.0 * self.calm_qps, d.clone())]),
                PhaseSpec::new(self.phase_secs, vec![(self.calm_qps, d.clone())]),
            ],
            self.seed,
        )
        .with_rate_scale(scale)
    }
}

#[derive(Clone, Copy)]
struct Point {
    scale: f64,
    worst_p95_ratio: f64,
    worst_violation: f64,
    achieved_qps: f64,
    loans: usize,
    reconfigs: usize,
    loaned_gpu_seconds: f64,
}

fn measure(cluster: &Cluster, scenario: &Scenario, scale: f64) -> Point {
    let arrivals = scenario.trace(scale).stream().map(|tq| (None, tq));
    let report = cluster
        .run_with(arrivals, &RunSpec::new(ReportDetail::Summary))
        .report;
    Point {
        scale,
        worst_p95_ratio: report.worst_p95_sla_ratio(),
        worst_violation: report.worst_violation_rate(),
        achieved_qps: report.achieved_qps,
        loans: report.loans.len(),
        reconfigs: report.total_reconfigs(),
        loaned_gpu_seconds: report.loaned_gpu_seconds,
    }
}

/// The largest load scale at which the fleet's worst p95/SLA stays within
/// [`P95_TARGET_RATIO`] — the shared scale search
/// (`paris_bench::max_scale_search`) over whole cluster runs — plus the
/// nominal (scale 1.0) point the search probed on the way.
fn search(cluster: &Cluster, scenario: &Scenario, steps: usize) -> paris_bench::ScaleSearch<Point> {
    paris_bench::max_scale_search(
        steps,
        |scale| measure(cluster, scenario, scale),
        |p: &Point| p.worst_p95_ratio <= P95_TARGET_RATIO,
        Point {
            scale: 0.0,
            worst_p95_ratio: f64::INFINITY,
            worst_violation: 1.0,
            achieved_qps: 0.0,
            loans: 0,
            reconfigs: 0,
            loaned_gpu_seconds: 0.0,
        },
    )
}

fn main() {
    let opts = paris_bench::TrajectoryOpts::from_args(29);
    // Phases must fit several loan-decision windows plus the reslice
    // outage, or loaning has no runway; smoke mode only proves the
    // pipeline runs.
    let phase_secs = opts.pick(8.0, 4.0, 2.0);
    let steps = if opts.smoke { 2 } else { 6 };
    let seed = opts.seed;
    let scenario = Scenario::new(phase_secs, seed);

    let configs: [(&str, RouterPolicy, Option<ReconfigMode>); 3] = [
        ("static", RouterPolicy::StaticHash, None),
        ("jsq", RouterPolicy::JoinShortestQueue, None),
        (
            "jsq_loan",
            RouterPolicy::JoinShortestQueue,
            // Workspace-default staging (Rolling since PR 6); the dip
            // comparison below still pins both modes.
            Some(ReconfigMode::default()),
        ),
    ];
    let mut results: Vec<(&str, Point, Point)> = Vec::new();
    for &(name, router, loaning) in &configs {
        let cluster = scenario.cluster(router, loaning);
        let found = search(&cluster, &scenario, steps);
        results.push((name, found.best, found.nominal));
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, best, nominal)| {
            vec![
                (*name).to_owned(),
                format!("{:.3}", best.scale),
                format!("{:.0}", best.achieved_qps),
                format!("{:.3}", best.worst_p95_ratio),
                format!("{:.4}", nominal.worst_violation),
                best.loans.to_string(),
                best.reconfigs.to_string(),
                format!("{:.2}", best.loaned_gpu_seconds),
            ]
        })
        .collect();
    print_table(
        &format!(
            "cluster sharding, {}+{} GPU shards + {} GPU pool, {}s/phase calm-surge-calm",
            scenario.shard_gpus[0], scenario.shard_gpus[1], scenario.pool_gpus, phase_secs
        ),
        &[
            "policy",
            "max scale",
            "qps @ max",
            "p95/sla @ max",
            "viol @ 1.0",
            "loans @ max",
            "reconfigs @ max",
            "gpu·s lent @ max",
        ],
        &rows,
    );

    let static_qps = results[0].1.achieved_qps;
    let jsq_qps = results[1].1.achieved_qps;
    let loan_qps = results[2].1.achieved_qps;
    let loan_vs_static = loan_qps / static_qps.max(1e-9);
    let jsq_vs_static = jsq_qps / static_qps.max(1e-9);
    println!("\njsq vs static latency-bounded throughput:      {jsq_vs_static:.2}x");
    println!("jsq+loan vs static latency-bounded throughput: {loan_vs_static:.2}x");

    // Transition-dip comparison: worst tumbling-window p99 across the
    // fleet over the queries completing *during a reconfiguration*
    // (loan-triggered re-plans included), measured at the loaning config's
    // own latency-bounded max scale — where capacity is binding and the
    // handover outage is visible. Rolling staging bounds how much of the
    // borrowing shard is offline at once.
    let dip_window_ms = 250.0_f64;
    let dip_scale = results[2].1.scale.max(0.25);
    let dip = |mode: ReconfigMode| {
        let cluster = scenario.cluster(RouterPolicy::JoinShortestQueue, Some(mode));
        let arrivals = scenario.trace(dip_scale).stream().map(|tq| (None, tq));
        let report = cluster
            .run_with(arrivals, &RunSpec::new(ReportDetail::Full))
            .report;
        // Transition intervals are fleet-wide: while one shard reslices,
        // the JSQ router shifts its load onto the others, so the spike
        // can materialize on a shard that is not itself reconfiguring.
        let transitions: Vec<(u64, u64)> = report
            .per_shard
            .iter()
            .flat_map(|s| &s.reconfigs)
            .map(|rc| (rc.triggered_at.as_nanos(), rc.completed_at.as_nanos()))
            .collect();
        paris_bench::transition_dip_p99_ms(
            (dip_window_ms * 1e6) as u64,
            &transitions,
            report
                .per_shard
                .iter()
                .flat_map(|s| &s.records)
                .map(|r| (r.completed.as_nanos(), r.latency().as_nanos())),
        )
    };
    let dip_all_at_once = dip(ReconfigMode::AllAtOnce);
    let dip_rolling = dip(ReconfigMode::Rolling);
    let dip_fallback = dip_all_at_once.fallback_whole_run || dip_rolling.fallback_whole_run;
    let dip_ratio = dip_rolling.worst_p99_ms / dip_all_at_once.worst_p99_ms.max(1e-9);
    println!(
        "reconfig dip (worst {dip_window_ms:.0} ms-window p99 during re-plans @ {dip_scale:.2}x): \
         all-at-once {:.2} ms, rolling {:.2} ms ({dip_ratio:.2}x{})",
        dip_all_at_once.worst_p99_ms,
        dip_rolling.worst_p99_ms,
        if dip_fallback {
            ", whole-run fallback"
        } else {
            ""
        }
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_cluster/v2\",\n");
    json.push_str("  \"model\": \"mobilenet_v1\",\n");
    let _ = writeln!(
        json,
        "  \"shard_gpus\": [{}, {}],",
        scenario.shard_gpus[0], scenario.shard_gpus[1]
    );
    let _ = writeln!(json, "  \"pool_gpus\": {},", scenario.pool_gpus);
    let _ = writeln!(json, "  \"phase_secs\": {phase_secs},");
    let _ = writeln!(json, "  \"calm_qps\": {:.1},", scenario.calm_qps);
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"p95_target_ratio\": {P95_TARGET_RATIO},");
    json.push_str("  \"configs\": [\n");
    for (i, (name, best, nominal)) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"policy\": \"{name}\", \"max_scale\": {:.4}, \
             \"latency_bounded_qps\": {:.1}, \"worst_p95_sla_ratio_at_max\": {:.4}, \
             \"worst_violation_at_nominal\": {:.5}, \"loans_at_max\": {}, \
             \"reconfigs_at_max\": {}, \"loaned_gpu_seconds_at_max\": {:.3}}}",
            best.scale,
            best.achieved_qps,
            best.worst_p95_ratio,
            nominal.worst_violation,
            best.loans,
            best.reconfigs,
            best.loaned_gpu_seconds
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"jsq_vs_static_speedup\": {jsq_vs_static:.3},");
    let _ = writeln!(
        json,
        "  \"jsq_loan_vs_static_speedup\": {loan_vs_static:.3},"
    );
    let _ = writeln!(
        json,
        "  \"reconfig_dip\": {{\"window_ms\": {dip_window_ms}, \"scale\": {dip_scale:.4}, \
         \"all_at_once_worst_p99_ms\": {:.3}, \
         \"rolling_worst_p99_ms\": {:.3}, \
         \"rolling_vs_all_at_once\": {dip_ratio:.4}, \
         \"fallback_whole_run\": {dip_fallback}}}",
        dip_all_at_once.worst_p99_ms, dip_rolling.worst_p99_ms
    );
    json.push_str("}\n");
    std::fs::write("BENCH_cluster.json", &json).expect("write BENCH_cluster.json");
    println!("\nwrote BENCH_cluster.json");
}
