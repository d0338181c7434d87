//! `bench_resilience` — graceful degradation under correlated and partial
//! failures, behind `BENCH_resilience.json`.
//!
//! Two scenarios, each running identical traces and fault schedules across
//! its configurations:
//!
//! 1. **Correlated rack outage + surge, brownout admission control.** Two
//!    3-GPU shards each serve a premium (class 0) and a batch (class 1)
//!    model; GPU lanes are racked pairwise ([`FaultTopology::racks`]) and
//!    `rack0` — two of shard 0's GPUs — goes out in the middle of a load
//!    surge. `noshed` admits everything and converts the capacity hole
//!    into fleet-wide SLA death; `shed` adds a [`ShedPolicy`] that rejects
//!    batch queries at admission when the picked shard's projected delay
//!    exhausts the SLA budget, concentrating survivor capacity on premium
//!    traffic. Invariant 10 is asserted: offered = served + shed, exactly,
//!    and premium is never shed.
//!
//! 2. **Slow-GPU (partial degradation), placement-aware vs blind.** One
//!    3-GPU shard; thermal throttling slows GPU 0 by 4× for half the run
//!    ([`FaultPlan::with_gpu_degrade`]). `aware` (the default) lets
//!    ELSA see the inflated service estimates and steer queries around the
//!    sick hardware; `blind` ([`MultiModelConfig::with_degrade_blind`])
//!    schedules on clean profiles while physical service times stretch.
//!
//! Headlines: shedding must hold the premium tail where `noshed` violates,
//! and degradation-aware placement must beat degradation-blind on the
//! degraded-window tail. The empty-plan degeneration check (an empty
//! [`FaultPlan`] is bit-for-bit the fault-free run) guards the whole fault
//! path.
//!
//! Usage: `cargo run --release --bin bench_resilience [--quick] [--smoke] [--seed N]`
//!
//! `--smoke` runs a tiny trace — CI uses it to catch bench regressions;
//! the numbers it writes are not comparable.

use paris_bench::json::{fixed, Json, Obj};
use paris_bench::print_table;
use paris_bench::scenarios::{
    empty_plan_run, mobilenet_table, run_plan, RackScenario, SlowScenario,
};
use paris_elsa::faults::FaultReport;
use paris_elsa::metrics::LatencyHistogram;
use paris_elsa::prelude::*;

/// One model's fleet-wide latency histogram, exact SLA violation rate and
/// completions, over every shard.
fn model_stats(report: &FaultReport, model: usize) -> (LatencyHistogram, f64, u64) {
    let per_shard = || report.cluster.per_shard.iter().map(|s| &s.per_model[model]);
    let completed: u64 = per_shard().map(|m| m.completed).sum();
    let violations: u64 = per_shard().map(|m| m.sla_violations).sum();
    let rate = if completed == 0 {
        0.0
    } else {
        violations as f64 / completed as f64
    };
    let histogram = LatencyHistogram::merged(per_shard().map(|m| &m.histogram));
    (histogram, rate, completed)
}

/// One rack-scenario configuration's table cells and its `configs`
/// entry. Model 0 = premium, model 1 = batch throughout the scenario.
fn rack_row(policy: &str, report: &FaultReport) -> (Vec<String>, Obj) {
    let shed = |c: usize| report.shed_per_class.get(c).copied().unwrap_or(0);
    // Served counts come from per-model completions so the no-policy
    // baseline row is populated too (served_per_class is empty without a
    // ShedPolicy).
    let (premium, premium_violation, served_premium) = model_stats(report, 0);
    let (batch, _, served_batch) = model_stats(report, 1);
    let premium_p99_ms = premium.percentile_ms(0.99);
    let batch_p99_ms = batch.percentile_ms(0.99);
    let cells = vec![
        policy.to_owned(),
        format!("{premium_p99_ms:.1}"),
        format!("{premium_violation:.4}"),
        format!("{batch_p99_ms:.1}"),
        shed(0).to_string(),
        shed(1).to_string(),
        served_premium.to_string(),
        served_batch.to_string(),
        format!("{:.0}", report.goodput_qps()),
        format!("{:.4}", report.effective_availability),
    ];
    let config = Obj::new()
        .field("policy", policy)
        .field("premium_p99_ms", fixed(premium_p99_ms, 3))
        .field("premium_violation", fixed(premium_violation, 5))
        .field("batch_p99_ms", fixed(batch_p99_ms, 3))
        .field("shed_premium", shed(0))
        .field("shed_batch", shed(1))
        .field("served_premium", served_premium)
        .field("served_batch", served_batch)
        .field("goodput_qps", fixed(report.goodput_qps(), 1))
        .field("availability", fixed(report.effective_availability, 5));
    (cells, config)
}

// ---------------------------------------------------------------------------
// Scenario 2: slow-GPU partial degradation, placement-aware vs blind.
// ---------------------------------------------------------------------------

/// One slow-GPU configuration's table cells and its `configs` entry.
fn slow_row(policy: &str, report: &FaultReport) -> (Vec<String>, Obj) {
    let p99_ms = report.cluster.histogram.percentile_ms(0.99);
    let degraded_p99_ms = report.degraded_p99_ms.unwrap_or(0.0);
    let healthy_p99_ms = report.healthy_p99_ms.unwrap_or(0.0);
    let violation = report.worst_violation_rate();
    let cells = vec![
        policy.to_owned(),
        format!("{p99_ms:.1}"),
        format!("{degraded_p99_ms:.1}"),
        format!("{healthy_p99_ms:.1}"),
        format!("{violation:.4}"),
        format!("{:.0}", report.cluster.achieved_qps),
    ];
    let config = Obj::new()
        .field("policy", policy)
        .field("p99_ms", fixed(p99_ms, 3))
        .field("degraded_p99_ms", fixed(degraded_p99_ms, 3))
        .field("healthy_p99_ms", fixed(healthy_p99_ms, 3))
        .field("worst_violation", fixed(violation, 5))
        .field("achieved_qps", fixed(report.cluster.achieved_qps, 1));
    (cells, config)
}

fn main() {
    let opts = paris_bench::Opts::from_args(41, &[]);
    let duration_s = opts.pick(12.0, 6.0, 2.0);
    let table = mobilenet_table();

    // -- Scenario 1: rack outage + surge, noshed vs shed -------------------
    let rack = RackScenario::new(duration_s, opts.seed, &table);
    let rack_trace = rack.trace();
    let rack_plan = rack.plan();
    let full = || RunSpec::new(ReportDetail::Full);

    // Empty-plan degeneration guard: the fault path must cost nothing
    // until an event fires.
    let _ = empty_plan_run(&rack.cluster(false), &rack_trace);

    let (noshed, ..) = run_plan(&rack.cluster(false), &rack_trace, &rack_plan, full());
    let (shed, ..) = run_plan(&rack.cluster(true), &rack_trace, &rack_plan, full());
    // Invariant 10: every offered query is exactly served-or-shed.
    for (name, report) in [("noshed", &noshed), ("shed", &shed)] {
        let completed: u64 = report
            .cluster
            .per_shard
            .iter()
            .map(|s| s.records.len() as u64)
            .sum();
        assert_eq!(
            completed + report.shed_total,
            rack_trace.len() as u64,
            "{name}: offered must equal served + shed"
        );
    }
    assert_eq!(
        shed.shed_per_class.first().copied().unwrap_or(0),
        0,
        "premium (class 0) is never shed"
    );

    let (cells, rack_configs): (Vec<_>, Vec<_>) = [("noshed", &noshed), ("shed", &shed)]
        .into_iter()
        .map(|(policy, report)| rack_row(policy, report))
        .unzip();
    print_table(
        &format!(
            "rack outage + surge: {:?} GPU shards racked by {}, rack0 out [{:.1}s, {:.1}s], \
             surge {:.0} q/s per class",
            rack.shard_gpus, rack.gpus_per_rack, rack.outage.0, rack.outage.1, rack.surge_qps,
        ),
        &[
            "policy",
            "prem p99",
            "prem viol",
            "batch p99",
            "shed prem",
            "shed batch",
            "served prem",
            "served batch",
            "goodput",
            "avail (eff)",
        ],
        &cells,
    );
    // -- Scenario 2: slow GPU, aware vs blind ------------------------------
    let slow = SlowScenario::new(duration_s, opts.seed, &table);
    let slow_trace = slow.trace();
    let slow_plan = slow.plan();
    let (blind, ..) = run_plan(&slow.cluster(false), &slow_trace, &slow_plan, full());
    let (aware, ..) = run_plan(&slow.cluster(true), &slow_trace, &slow_plan, full());
    for (name, report) in [("blind", &blind), ("aware", &aware)] {
        let completed: usize = report
            .cluster
            .per_shard
            .iter()
            .map(|s| s.records.len())
            .sum();
        assert_eq!(
            completed,
            slow_trace.len(),
            "{name}: degradation never drops a query"
        );
        assert_eq!(report.shed_total, 0, "{name}: no shed policy, no shedding");
    }
    let (cells, slow_configs): (Vec<_>, Vec<_>) = [("blind", &blind), ("aware", &aware)]
        .into_iter()
        .map(|(policy, report)| slow_row(policy, report))
        .unzip();
    print_table(
        &format!(
            "slow GPU: 1 of {} GPUs at {:.0}x service time over [{:.1}s, {:.1}s]",
            slow.gpus, slow.factor, slow.window.0, slow.window.1,
        ),
        &[
            "placement",
            "p99",
            "degraded p99",
            "healthy p99",
            "worst viol",
            "qps",
        ],
        &cells,
    );

    let (noshed_violation, shed_violation) = (model_stats(&noshed, 0).1, model_stats(&shed, 0).1);
    let violation_cut = shed_violation / noshed_violation.max(1e-9);
    println!(
        "\nshed vs noshed premium violations:   {violation_cut:.3}x \
         ({noshed_violation:.4} -> {shed_violation:.4})"
    );
    let p99_ms = |r: &FaultReport| r.cluster.histogram.percentile_ms(0.99);
    let (blind_p99_ms, aware_p99_ms) = (p99_ms(&blind), p99_ms(&aware));
    let aware_ratio = aware_p99_ms / blind_p99_ms.max(1e-9);
    println!(
        "aware vs blind p99 under slow GPU:   {aware_ratio:.3}x \
         ({blind_p99_ms:.1} ms -> {aware_p99_ms:.1} ms)"
    );

    let secs = |(a, b): (f64, f64)| Json::List(vec![fixed(a, 3), fixed(b, 3)]);
    let json = Obj::new()
        .field("schema", "bench_resilience/v1")
        .field("model", "mobilenet_v1")
        .field("duration_secs", duration_s)
        .field("seed", opts.seed)
        // `empty_plan_run` asserted it.
        .field("empty_plan_bit_identical", true)
        .field(
            "rack_outage",
            Json::Block(
                Obj::new()
                    .field("shard_gpus", Json::list(rack.shard_gpus.iter().copied()))
                    .field("gpus_per_rack", rack.gpus_per_rack)
                    .field("outage_secs", secs(rack.outage))
                    .line([
                        ("calm_qps", fixed(rack.calm_qps, 1)),
                        ("surge_qps", fixed(rack.surge_qps, 1)),
                    ])
                    .field("configs", Json::rows(rack_configs))
                    .field(
                        "shed_vs_noshed_premium_violation_ratio",
                        fixed(violation_cut, 4),
                    ),
            ),
        )
        .field(
            "slow_gpu",
            Json::Block(
                Obj::new()
                    .field("gpus", slow.gpus)
                    .field("factor", fixed(slow.factor, 1))
                    .field("window_secs", secs(slow.window))
                    .field("degrade_gpu_seconds", fixed(aware.degrade_gpu_seconds, 3))
                    .field("configs", Json::rows(slow_configs))
                    .field("aware_vs_blind_p99_ratio", fixed(aware_ratio, 4)),
            ),
        )
        .render();
    std::fs::write("BENCH_resilience.json", json).expect("write BENCH_resilience.json");
    println!("\nwrote BENCH_resilience.json");
}
