//! `bench_faults` — availability and SLA attainment under GPU failures,
//! behind `BENCH_faults.json`.
//!
//! Hosts MobileNet on two heterogeneous serving shards (4 GPUs + 2 GPUs)
//! with a 2-GPU low-priority batch pool, drives a steady trace at a fixed
//! fraction of fleet capacity, and injects a seeded **GPU-MTTF scenario**
//! (exponential up/down times per GPU lane, `FaultPlan::sample_gpu_mttf`).
//! Three configurations run the identical trace and faults:
//!
//! * `nofault_jsq` — JSQ routing, empty fault plan (the healthy baseline;
//!   also asserts the empty plan reproduces the plain run bit-for-bit);
//! * `jsq`        — JSQ under the fault plan, no loaning: failures kill
//!   instances, work requeues, PARIS re-plans the survivors;
//! * `jsq_loan`   — same faults plus Aryl-style loaning: every fault
//!   triggers an immediate rebalance, so the batch pool backfills lost
//!   capacity (paying reslice + handover downtime per transfer).
//!
//! Headline: loan-assisted recovery beats no-loan on **effective
//! availability** (GPU-time online, crediting backfill) and on **SLA
//! violations under failure**; `recovery_p99_ms` is the worst 250 ms
//! window p99 inside the outage + recovery intervals.
//!
//! Usage: `cargo run --release --bin bench_faults [--quick] [--smoke] [--seed N]`
//!
//! `--smoke` runs a tiny trace — CI uses it to catch bench regressions;
//! the numbers it writes are not comparable.

use paris_bench::json::{fixed, Json, Obj};
use paris_bench::print_table;
use paris_bench::scenarios::{
    empty_plan_run, mobilenet_fleet, mobilenet_table, run_plan, steady_trace,
};
use paris_elsa::cluster::{Cluster, LoanPolicy, RouterPolicy};
use paris_elsa::faults::{FaultPlan, FaultReport};
use paris_elsa::prelude::*;
use paris_elsa::workload::DriftDetectorConfig;

struct Scenario {
    duration_s: f64,
    seed: u64,
    shard_gpus: Vec<usize>,
    pool_gpus: usize,
    table: ProfileTable,
    rate_qps: f64,
    mttf_s: f64,
    mttr_s: f64,
}

impl Scenario {
    fn new(duration_s: f64, seed: u64) -> Self {
        let table = mobilenet_table();
        let shard_gpus = vec![4, 2];
        let fleet_capacity: f64 = mobilenet_fleet(&table, &["mobilenet_v1"], &shard_gpus)
            .iter()
            .map(MultiModelServer::capacity_hint_qps)
            .sum();
        Scenario {
            duration_s,
            seed,
            shard_gpus,
            pool_gpus: 2,
            table,
            // 60 % of fleet capacity: healthy runs have headroom, a lost
            // GPU pushes the survivors to ~72 % — degraded but
            // survivable, which is where backfill loans earn their keep.
            rate_qps: 0.6 * fleet_capacity,
            // ~2.4 expected failures over the run, each out for ~1/6 of
            // it — a realistic "bad day" compressed into one trace.
            mttf_s: 2.5 * duration_s,
            mttr_s: duration_s / 6.0,
        }
    }

    fn cluster(&self, loaning: bool) -> Cluster {
        let shards = mobilenet_fleet(&self.table, &["mobilenet_v1"], &self.shard_gpus);
        let cluster = Cluster::new(shards, RouterPolicy::JoinShortestQueue);
        if loaning {
            // Half-second decision windows with a lower trust floor: the
            // fault-triggered rebalance reads the freshest closed window,
            // so the detector mostly just has to keep estimates warm.
            cluster.with_loan(
                LoanPolicy::new(self.pool_gpus, 0.5)
                    .with_detector(DriftDetectorConfig::new(0.5).with_min_observations(20)),
            )
        } else {
            cluster
        }
    }

    /// The seeded GPU-MTTF plan; a seed whose draw happens to be empty
    /// falls back to one explicit mid-run outage so the bench always
    /// exercises a failure.
    fn plan(&self) -> FaultPlan {
        let plan = FaultPlan::sample_gpu_mttf(
            &self.shard_gpus,
            self.mttf_s,
            self.mttr_s,
            self.duration_s,
            self.seed,
        );
        if plan.is_empty() {
            FaultPlan::new().with_gpu_outage(0, 0, 0.25 * self.duration_s, 0.6 * self.duration_s)
        } else {
            plan
        }
    }
}

/// One configuration's table cells and its `configs` entry.
fn row(policy: &str, report: &FaultReport) -> (Vec<String>, Obj) {
    let cluster = &report.cluster;
    let recovery_p99_ms = report.degraded_p99_ms.unwrap_or(0.0);
    let healthy_p99_ms = report.healthy_p99_ms.unwrap_or(0.0);
    let cells = vec![
        policy.to_owned(),
        format!("{:.4}", report.effective_availability),
        format!("{:.4}", report.base_availability),
        format!("{:.4}", report.worst_violation_rate()),
        report.requeued.to_string(),
        cluster.loans.len().to_string(),
        cluster.total_reconfigs().to_string(),
        format!("{recovery_p99_ms:.1}"),
        format!("{healthy_p99_ms:.1}"),
        format!("{:.0}", cluster.achieved_qps),
    ];
    let config = Obj::new()
        .field("policy", policy)
        .field("availability", fixed(report.effective_availability, 5))
        .field("base_availability", fixed(report.base_availability, 5))
        .field("worst_violation", fixed(report.worst_violation_rate(), 5))
        .field("requeued", report.requeued)
        .field("loans", cluster.loans.len())
        .field("reconfigs", cluster.total_reconfigs())
        .field("recovery_p99_ms", fixed(recovery_p99_ms, 3))
        .field("healthy_p99_ms", fixed(healthy_p99_ms, 3))
        .field("achieved_qps", fixed(cluster.achieved_qps, 1));
    (cells, config)
}

fn main() {
    let opts = paris_bench::Opts::from_args(37, &[]);
    let duration_s = opts.pick(12.0, 6.0, 2.0);
    let scenario = Scenario::new(duration_s, opts.seed);
    let plan = scenario.plan();
    let trace = steady_trace(duration_s, scenario.rate_qps, 1, opts.seed);
    let full = || RunSpec::new(ReportDetail::Full);

    // The empty-plan degeneration check: the no-fault run through the
    // fault path must be bit-for-bit the plain run.
    let nofault = empty_plan_run(&scenario.cluster(false), &trace);
    let (bare, ..) = run_plan(&scenario.cluster(false), &trace, &plan, full());
    let (loaned, ..) = run_plan(&scenario.cluster(true), &trace, &plan, full());
    let runs = [
        ("nofault_jsq", &nofault),
        ("jsq", &bare),
        ("jsq_loan", &loaned),
    ];
    let (cells, configs): (Vec<_>, Vec<_>) = runs.iter().map(|&(p, r)| row(p, r)).unzip();
    print_table(
        &format!(
            "fault injection, {}+{} GPU shards + {} GPU pool, {}s @ {:.0} q/s, \
             {} sampled GPU outages (mttf {:.1}s, mttr {:.1}s)",
            scenario.shard_gpus[0],
            scenario.shard_gpus[1],
            scenario.pool_gpus,
            duration_s,
            scenario.rate_qps,
            plan.gpu_outages().len(),
            scenario.mttf_s,
            scenario.mttr_s,
        ),
        &[
            "policy",
            "avail (eff)",
            "avail (base)",
            "worst viol",
            "requeued",
            "loans",
            "reconfigs",
            "recovery p99",
            "healthy p99",
            "qps",
        ],
        &cells,
    );

    let availability_gain = loaned.effective_availability - bare.effective_availability;
    let violation_ratio = loaned.worst_violation_rate() / bare.worst_violation_rate().max(1e-9);
    println!(
        "\nloan backfill availability gain:      {availability_gain:+.4} \
         ({:.4} -> {:.4})",
        bare.effective_availability, loaned.effective_availability
    );
    println!(
        "loan vs bare violations under faults: {violation_ratio:.2}x \
         ({:.4} -> {:.4})",
        bare.worst_violation_rate(),
        loaned.worst_violation_rate()
    );

    let json = Obj::new()
        .field("schema", "bench_faults/v1")
        .field("model", "mobilenet_v1")
        .field(
            "shard_gpus",
            Json::list(scenario.shard_gpus.iter().copied()),
        )
        .field("pool_gpus", scenario.pool_gpus)
        .field("duration_secs", duration_s)
        .field("rate_qps", fixed(scenario.rate_qps, 1))
        .field("seed", scenario.seed)
        .field("mttf_s", fixed(scenario.mttf_s, 2))
        .field("mttr_s", fixed(scenario.mttr_s, 2))
        .field("gpu_outages", plan.gpu_outages().len())
        .field("outage_gpu_seconds", fixed(bare.outage_gpu_seconds, 3))
        // `empty_plan_run` asserted it.
        .field("empty_plan_bit_identical", true)
        .field("configs", Json::rows(configs))
        .field("loan_availability_gain", fixed(availability_gain, 5))
        .field("loan_vs_bare_violation_ratio", fixed(violation_ratio, 4))
        .render();
    std::fs::write("BENCH_faults.json", json).expect("write BENCH_faults.json");
    println!("\nwrote BENCH_faults.json");
}
