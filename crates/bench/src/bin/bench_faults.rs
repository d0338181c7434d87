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

use std::fmt::Write as _;

use paris_bench::print_table;
use paris_bench::scenarios::run_plan;
use paris_elsa::cluster::{Cluster, LoanPolicy, RouterPolicy};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::{FaultPlan, FaultReport};
use paris_elsa::prelude::*;
use paris_elsa::workload::DriftDetectorConfig;

struct Scenario {
    duration_s: f64,
    seed: u64,
    shard_gpus: Vec<usize>,
    pool_gpus: usize,
    table: ProfileTable,
    dist: BatchDistribution,
    rate_qps: f64,
    mttf_s: f64,
    mttr_s: f64,
}

impl Scenario {
    fn new(duration_s: f64, seed: u64) -> Self {
        let perf = PerfModel::new(DeviceSpec::a100());
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let dist = BatchDistribution::paper_default();
        let shard_gpus = vec![4, 2];
        let fleet_capacity: f64 = shard_gpus
            .iter()
            .map(|&g| {
                Self::shard(&table, &dist, g)
                    .expect("shard plan builds")
                    .capacity_hint_qps()
            })
            .sum();
        Scenario {
            duration_s,
            seed,
            shard_gpus,
            pool_gpus: 2,
            table,
            dist,
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

    fn cluster(&self, loaning: bool) -> Cluster {
        let shards = self
            .shard_gpus
            .iter()
            .map(|&g| Self::shard(&self.table, &self.dist, g).expect("shard plan builds"))
            .collect();
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

    fn trace(&self) -> MultiTraceGenerator {
        MultiTraceGenerator::new(
            vec![PhaseSpec::new(
                self.duration_s,
                vec![(self.rate_qps, self.dist.clone())],
            )],
            self.seed,
        )
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

struct Row {
    policy: &'static str,
    availability: f64,
    base_availability: f64,
    worst_violation: f64,
    requeued: u64,
    loans: usize,
    reconfigs: usize,
    recovery_p99_ms: f64,
    healthy_p99_ms: f64,
    achieved_qps: f64,
}

fn row(policy: &'static str, report: &FaultReport) -> Row {
    Row {
        policy,
        availability: report.effective_availability,
        base_availability: report.base_availability,
        worst_violation: report.worst_violation_rate(),
        requeued: report.requeued,
        loans: report.cluster.loans.len(),
        reconfigs: report.cluster.total_reconfigs(),
        recovery_p99_ms: report.degraded_p99_ms.unwrap_or(0.0),
        healthy_p99_ms: report.healthy_p99_ms.unwrap_or(0.0),
        achieved_qps: report.cluster.achieved_qps,
    }
}

fn main() {
    let opts = paris_bench::TrajectoryOpts::from_args(37);
    let duration_s = opts.pick(12.0, 6.0, 2.0);
    let scenario = Scenario::new(duration_s, opts.seed);
    let plan = scenario.plan();
    let trace: Vec<_> = scenario.trace().generate();
    let full = || RunSpec::new(ReportDetail::Full);

    // The empty-plan degeneration check: the no-fault run through the
    // fault path must be bit-for-bit the plain run.
    let baseline_cluster = scenario.cluster(false);
    let plain = baseline_cluster
        .run_with(trace.iter().map(|&tq| (None, tq)), &full())
        .report;
    let (nofault, ..) = run_plan(&baseline_cluster, &trace, &FaultPlan::new(), full());
    let bit_identical = plain
        .per_shard
        .iter()
        .zip(&nofault.cluster.per_shard)
        .all(|(a, b)| {
            a.records == b.records
                && a.makespan == b.makespan
                && a.partition_sizes == b.partition_sizes
        })
        && plain.routed == nofault.cluster.routed;
    assert!(
        bit_identical,
        "empty FaultPlan must reproduce the plain run bit-for-bit"
    );

    let (bare, ..) = run_plan(&scenario.cluster(false), &trace, &plan, full());
    let (loaned, ..) = run_plan(&scenario.cluster(true), &trace, &plan, full());
    let rows = [
        row("nofault_jsq", &nofault),
        row("jsq", &bare),
        row("jsq_loan", &loaned),
    ];

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_owned(),
                format!("{:.4}", r.availability),
                format!("{:.4}", r.base_availability),
                format!("{:.4}", r.worst_violation),
                r.requeued.to_string(),
                r.loans.to_string(),
                r.reconfigs.to_string(),
                format!("{:.1}", r.recovery_p99_ms),
                format!("{:.1}", r.healthy_p99_ms),
                format!("{:.0}", r.achieved_qps),
            ]
        })
        .collect();
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

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_faults/v1\",\n");
    json.push_str("  \"model\": \"mobilenet_v1\",\n");
    let _ = writeln!(
        json,
        "  \"shard_gpus\": [{}, {}],",
        scenario.shard_gpus[0], scenario.shard_gpus[1]
    );
    let _ = writeln!(json, "  \"pool_gpus\": {},", scenario.pool_gpus);
    let _ = writeln!(json, "  \"duration_secs\": {duration_s},");
    let _ = writeln!(json, "  \"rate_qps\": {:.1},", scenario.rate_qps);
    let _ = writeln!(json, "  \"seed\": {},", scenario.seed);
    let _ = writeln!(json, "  \"mttf_s\": {:.2},", scenario.mttf_s);
    let _ = writeln!(json, "  \"mttr_s\": {:.2},", scenario.mttr_s);
    let _ = writeln!(json, "  \"gpu_outages\": {},", plan.gpu_outages().len());
    let _ = writeln!(
        json,
        "  \"outage_gpu_seconds\": {:.3},",
        bare.outage_gpu_seconds
    );
    let _ = writeln!(json, "  \"empty_plan_bit_identical\": {bit_identical},");
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"policy\": \"{}\", \"availability\": {:.5}, \
             \"base_availability\": {:.5}, \"worst_violation\": {:.5}, \
             \"requeued\": {}, \"loans\": {}, \"reconfigs\": {}, \
             \"recovery_p99_ms\": {:.3}, \"healthy_p99_ms\": {:.3}, \
             \"achieved_qps\": {:.1}}}",
            r.policy,
            r.availability,
            r.base_availability,
            r.worst_violation,
            r.requeued,
            r.loans,
            r.reconfigs,
            r.recovery_p99_ms,
            r.healthy_p99_ms,
            r.achieved_qps
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"loan_availability_gain\": {availability_gain:.5},"
    );
    let _ = writeln!(
        json,
        "  \"loan_vs_bare_violation_ratio\": {violation_ratio:.4}"
    );
    json.push_str("}\n");
    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    println!("\nwrote BENCH_faults.json");
}
