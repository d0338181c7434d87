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

use paris_bench::json::{fixed, Json, Obj};
use paris_bench::scenarios::{mobilenet_fleet, mobilenet_table, reconfig_dip};
use paris_bench::{max_scale_search, print_table, ScalePoint, P95_TARGET_RATIO};
use paris_elsa::cluster::{Cluster, LoanPolicy, RouterPolicy};
use paris_elsa::paris::ReconfigMode;
use paris_elsa::prelude::*;

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
        let table = mobilenet_table();
        let shard_gpus = vec![4, 2];
        // Calm at ~35 % of the serving fleet's planned capacity; the surge
        // doubles that to ~70 %, so the binding constraint at high scales
        // is the surge — exactly where loaned GPUs pay off.
        let fleet_capacity: f64 = mobilenet_fleet(&table, &["mobilenet_v1"], &shard_gpus)
            .iter()
            .map(MultiModelServer::capacity_hint_qps)
            .sum();
        Scenario {
            phase_secs,
            seed,
            shard_gpus,
            pool_gpus: 2,
            table,
            dist: BatchDistribution::paper_default(),
            calm_qps: 0.35 * fleet_capacity,
        }
    }

    fn cluster(&self, router: RouterPolicy, loaning: Option<ReconfigMode>) -> Cluster {
        let shards = mobilenet_fleet(&self.table, &["mobilenet_v1"], &self.shard_gpus);
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

fn measure(cluster: &Cluster, scenario: &Scenario, scale: f64) -> ScalePoint {
    let arrivals = scenario.trace(scale).stream().map(|tq| (None, tq));
    let report = cluster
        .run_with(arrivals, &RunSpec::new(ReportDetail::Summary))
        .report;
    ScalePoint {
        scale,
        worst_p95_ratio: report.worst_p95_sla_ratio(),
        worst_violation: report.worst_violation_rate(),
        achieved_qps: report.achieved_qps,
        loans: report.loans.len(),
        reconfigs: report.total_reconfigs(),
        loaned_gpu_seconds: report.loaned_gpu_seconds,
    }
}

fn main() {
    let opts = paris_bench::Opts::from_args(29, &[]);
    // Phases must fit several loan-decision windows plus the reslice
    // outage, or loaning has no runway; smoke mode only proves the
    // pipeline runs.
    let phase_secs = opts.pick(8.0, 4.0, 2.0);
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
    // The largest load scale at which the fleet's worst p95 stays within
    // the SLA, over whole cluster runs.
    let mut results = Vec::new();
    for &(name, router, loaning) in &configs {
        let cluster = scenario.cluster(router, loaning);
        let found = max_scale_search(&opts, |scale| measure(&cluster, &scenario, scale));
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

    // Transition-dip comparison across the fleet, loan-triggered re-plans
    // included, at the loaning config's own latency-bounded max scale.
    // Rolling staging bounds how much of the borrowing shard is offline at
    // once.
    let reconfig_dip = reconfig_dip(results[2].1.scale, |mode, scale| {
        let cluster = scenario.cluster(RouterPolicy::JoinShortestQueue, Some(mode));
        let arrivals = scenario.trace(scale).stream().map(|tq| (None, tq));
        let report = cluster
            .run_with(arrivals, &RunSpec::new(ReportDetail::Full))
            .report;
        // Transition intervals are fleet-wide: while one shard reslices,
        // the JSQ router shifts its load onto the others, so the spike
        // can materialize on a shard that is not itself reconfiguring.
        let shards = &report.per_shard;
        (
            shards
                .iter()
                .flat_map(|s| &s.reconfigs)
                .map(|rc| (rc.triggered_at.as_nanos(), rc.completed_at.as_nanos()))
                .collect(),
            shards
                .iter()
                .flat_map(|s| &s.records)
                .map(|r| (r.completed.as_nanos(), r.latency().as_nanos()))
                .collect(),
        )
    });

    let configs = results.iter().map(|(name, best, nominal)| {
        Obj::new()
            .field("policy", *name)
            .field("max_scale", fixed(best.scale, 4))
            .field("latency_bounded_qps", fixed(best.achieved_qps, 1))
            .field("worst_p95_sla_ratio_at_max", fixed(best.worst_p95_ratio, 4))
            .field(
                "worst_violation_at_nominal",
                fixed(nominal.worst_violation, 5),
            )
            .field("loans_at_max", best.loans)
            .field("reconfigs_at_max", best.reconfigs)
            .field(
                "loaned_gpu_seconds_at_max",
                fixed(best.loaned_gpu_seconds, 3),
            )
    });
    let json = Obj::new()
        .field("schema", "bench_cluster/v2")
        .field("model", "mobilenet_v1")
        .field(
            "shard_gpus",
            Json::list(scenario.shard_gpus.iter().copied()),
        )
        .field("pool_gpus", scenario.pool_gpus)
        .field("phase_secs", phase_secs)
        .field("calm_qps", fixed(scenario.calm_qps, 1))
        .field("seed", seed)
        .field("p95_target_ratio", P95_TARGET_RATIO)
        .field("configs", Json::rows(configs))
        .field("jsq_vs_static_speedup", fixed(jsq_vs_static, 3))
        .field("jsq_loan_vs_static_speedup", fixed(loan_vs_static, 3))
        .field("reconfig_dip", reconfig_dip)
        .render();
    std::fs::write("BENCH_cluster.json", json).expect("write BENCH_cluster.json");
    println!("\nwrote BENCH_cluster.json");
}
