//! `bench_multimodel` — static plan vs online re-planning under drift,
//! behind `BENCH_multimodel.json`.
//!
//! Hosts two models (MobileNet + ResNet-50) on a shared 48-GPC / 8-GPU
//! budget and drives a drifting two-phase trace: phase 1 is
//! MobileNet-heavy with small batches, phase 2 swaps the rates and shifts
//! ResNet's batch mix heavy. For the **static** server (initial PARIS plan
//! frozen) and the **re-planning** server (drift-triggered PARIS re-plans
//! with realistic MIG reslice downtime), the bench searches the largest
//! load scale at which every model's p95 tail latency stays within its
//! own SLA — the drifting-workload analogue of the paper's
//! latency-bounded throughput — and writes both operating points (plus
//! exact violation rates at the nominal load) to `BENCH_multimodel.json`.
//!
//! Usage: `cargo run --release --bin bench_multimodel [--quick] [--smoke] [--seed N]`
//!
//! `--smoke` runs a tiny trace with a shallow search — CI uses it to catch
//! bench regressions without paying for a real measurement; the numbers it
//! writes are not comparable.

use paris_bench::json::{fixed, Json, Obj};
use paris_bench::scenarios::reconfig_dip;
use paris_bench::{max_scale_search, print_table, ScalePoint, P95_TARGET_RATIO};
use paris_elsa::dnn::ModelKind;
use paris_elsa::paris::ReconfigMode;
use paris_elsa::prelude::*;
use paris_elsa::server::ModelReport;

struct Scenario {
    phase_secs: f64,
    seed: u64,
    budget: GpcBudget,
}

impl Scenario {
    /// The drifting two-model schedule at load scale `scale`.
    fn trace(&self, scale: f64) -> MultiTraceGenerator {
        let small = BatchDistribution::log_normal_with_median(32, 0.9, 2.0);
        let large = BatchDistribution::log_normal_with_median(32, 0.9, 12.0);
        MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(
                    self.phase_secs,
                    vec![(400.0, small.clone()), (40.0, small.clone())],
                ),
                PhaseSpec::new(self.phase_secs, vec![(40.0, small), (250.0, large)]),
            ],
            self.seed,
        )
        .with_rate_scale(scale)
    }

    fn server(&self, replan: Option<ReconfigMode>) -> MultiModelServer {
        let dist = BatchDistribution::paper_default();
        let perf = PerfModel::new(DeviceSpec::a100());
        let spec = |kind: ModelKind, name: &str| {
            let table = ProfileTable::profile(&kind.build(), &perf, &ProfileSize::ALL, 32);
            ModelSpec::new(name, table, dist.clone())
        };
        let mut config = MultiModelConfig::new().with_detail(ReportDetail::Summary);
        if let Some(mode) = replan {
            // A 0.5 s window keeps ~50+ arrivals per window down to ~0.4×
            // the nominal load (the detector's trust floor) while still
            // reacting well within one phase.
            config = config.with_replan(ReplanPolicy::new(0.5).with_mode(mode));
        }
        MultiModelServer::new(
            vec![
                spec(ModelKind::MobileNet, "mobilenet_v1"),
                spec(ModelKind::ResNet50, "resnet50"),
            ],
            self.budget,
            config,
        )
        .expect("initial plans build")
    }
}

fn measure(server: &MultiModelServer, scenario: &Scenario, scale: f64) -> ScalePoint {
    let report = server.run_stream(scenario.trace(scale).stream(), ReportDetail::Summary);
    let worst_p95_ratio = report
        .per_model
        .iter()
        .map(|m| {
            let sla_ms = m.sla_ns.expect("models carry SLAs") as f64 / 1e6;
            m.p95_ms() / sla_ms
        })
        .fold(0.0, f64::max);
    ScalePoint {
        scale,
        worst_p95_ratio,
        worst_violation: report.worst_violation_rate(),
        achieved_qps: report.achieved_qps,
        reconfigs: report.reconfigs.len(),
        ..ScalePoint::default()
    }
}

fn main() {
    let opts = paris_bench::Opts::from_args(13, &[]);
    // Quick mode still needs phases comfortably longer than the
    // detection window + reslice outage (~1 s), or re-planning has no
    // runway to pay for itself and the quick numbers are meaningless.
    // Smoke mode only proves the pipeline runs end to end.
    let scenario = Scenario {
        phase_secs: opts.pick(8.0, 4.0, 1.5),
        seed: opts.seed,
        budget: GpcBudget::new(48, 8),
    };
    let seed = opts.seed;

    let mut results = Vec::new();
    // The replan config runs at the workspace default staging (Rolling
    // since PR 6); the dip comparison below still pins both modes.
    for (name, replan) in [("static", None), ("replan", Some(ReconfigMode::default()))] {
        let server = scenario.server(replan);
        // The nominal point (scale 1.0) shows what drift does to each
        // policy at the nominal load; the search probed it first.
        let found = max_scale_search(&opts, |scale| measure(&server, &scenario, scale));
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
                format!("{:.3}", nominal.worst_p95_ratio),
                format!("{:.4}", nominal.worst_violation),
                nominal.reconfigs.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "multi-model drift, {}s/phase, per-model p95 <= SLA",
            scenario.phase_secs
        ),
        &[
            "policy",
            "max scale",
            "qps @ max",
            "p95/sla @ max",
            "p95/sla @ 1.0",
            "viol @ 1.0",
            "reconfigs @ 1.0",
        ],
        &rows,
    );

    let static_qps = results[0].1.achieved_qps;
    let replan_qps = results[1].1.achieved_qps;
    let speedup = replan_qps / static_qps.max(1e-9);
    println!("\nreplan vs static latency-bounded throughput: {speedup:.2}x");

    // Transition-dip comparison at the re-planning config's own
    // latency-bounded max scale; a reconfiguration's window runs from
    // trigger to completion plus one window of backlog drain. At light
    // load the kept instances absorb the outage. Rolling staging should
    // shrink the dip: only one GPU's worth of capacity is ever offline.
    let reconfig_dip = reconfig_dip(results[1].1.scale, |mode, scale| {
        let server = scenario.server(Some(mode));
        let report = server.run_stream(scenario.trace(scale).stream(), ReportDetail::Full);
        (
            report
                .reconfigs
                .iter()
                .map(|rc| (rc.triggered_at.as_nanos(), rc.completed_at.as_nanos()))
                .collect(),
            report
                .records
                .iter()
                .map(|r| (r.completed.as_nanos(), r.latency().as_nanos()))
                .collect(),
        )
    });

    // Per-model detail at the nominal load for the winning policy.
    let detail = scenario
        .server(Some(ReconfigMode::default()))
        .run_stream(scenario.trace(1.0).stream(), ReportDetail::Summary);
    for m in &detail.per_model {
        print_model(m);
    }

    let configs = results.iter().map(|(name, best, nominal)| {
        Obj::new()
            .field("policy", *name)
            .field("max_scale", fixed(best.scale, 4))
            .field("latency_bounded_qps", fixed(best.achieved_qps, 1))
            .field("worst_p95_sla_ratio_at_max", fixed(best.worst_p95_ratio, 4))
            .field(
                "worst_p95_sla_ratio_at_nominal",
                fixed(nominal.worst_p95_ratio, 4),
            )
            .field(
                "worst_violation_at_nominal",
                fixed(nominal.worst_violation, 5),
            )
            .field("reconfigs_at_nominal", nominal.reconfigs)
    });
    let budget = Obj::new()
        .field("total_gpcs", scenario.budget.total_gpcs)
        .field("num_gpus", scenario.budget.num_gpus);
    let json = Obj::new()
        .field("schema", "bench_multimodel/v2")
        .field("models", Json::list(["mobilenet_v1", "resnet50"]))
        .field("budget", budget)
        .field("phase_secs", scenario.phase_secs)
        .field("seed", seed)
        .field("p95_target_ratio", P95_TARGET_RATIO)
        .field("configs", Json::rows(configs))
        .field("replan_vs_static_speedup", fixed(speedup, 3))
        .field("reconfig_dip", reconfig_dip)
        .render();
    std::fs::write("BENCH_multimodel.json", json).expect("write BENCH_multimodel.json");
    println!("\nwrote BENCH_multimodel.json");
}

fn print_model(m: &ModelReport) {
    println!(
        "  {}: {} queries, p95 {:.2} ms, exact violation rate {:.4}",
        m.name,
        m.completed,
        m.p95_ms(),
        m.sla_violation_rate()
    );
}
