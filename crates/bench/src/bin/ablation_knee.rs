//! **Ablation D1** — knee-detection rule: latency-takeoff factor sweep vs
//! the paper's utilization-threshold rule (Algorithm 1 line 8), on ResNet
//! and MobileNet.
//!
//! ```text
//! cargo run -p paris-bench --release --bin ablation_knee [-- --quick]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::paris::KneeRule;
use paris_elsa::prelude::*;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let rules = [
        ("takeoff 1.10", KneeRule::LatencyTakeoff(1.10)),
        ("takeoff 1.25*", KneeRule::LatencyTakeoff(1.25)),
        ("takeoff 1.50", KneeRule::LatencyTakeoff(1.5)),
        ("takeoff 2.00", KneeRule::LatencyTakeoff(2.0)),
        ("util ≥ 0.6", KneeRule::UtilizationThreshold(0.6)),
        ("util ≥ 0.8", KneeRule::UtilizationThreshold(0.8)),
    ];
    let mut rows = Vec::new();
    for model in [ModelKind::MobileNet, ModelKind::ResNet50] {
        for (name, rule) in rules {
            let bed = Testbed::paper_default(model).with_knee_rule(rule);
            let sweep = opts.sweep(&bed);
            let plan = bed.plan(DesignPoint::ParisElsa).expect("plan builds");
            let qps = bed
                .latency_bounded_qps(DesignPoint::ParisElsa, &sweep)
                .expect("plan builds");
            rows.push(vec![
                model.to_string(),
                name.to_string(),
                format!("{qps:.0}"),
                plan.to_string(),
            ]);
        }
    }
    print_table(
        "Ablation D1 — knee rule (PARIS+ELSA latency-bounded throughput; * = default)",
        &["Model", "Knee rule", "Throughput (q/s)", "PARIS plan"],
        &rows,
    );
    println!(
        "\nReading: too-early knees over-provision large partitions (wasting \
         GPCs); too-late knees assign SLA-violating batches to small ones. \
         The utilization rule degenerates on overhead-bound models whose SM \
         utilization never crosses the threshold."
    );
}
