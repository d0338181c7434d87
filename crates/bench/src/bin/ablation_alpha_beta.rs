//! **Ablation D2** — ELSA's slack-predictor parameters α and β
//! (Equation 2) on ResNet: how conservative/optimistic slack estimation
//! shifts throughput and SLA violations.
//!
//! ```text
//! cargo run -p paris-bench --release --bin ablation_alpha_beta [-- --quick]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;
use paris_elsa::server::measure_point;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let bed = Testbed::paper_default(ModelKind::ResNet50);
    let sweep = opts.sweep(&bed);
    let plan = bed.plan(DesignPoint::ParisElsa).expect("plan builds");
    let sla = bed.sla_ns();

    let mut rows = Vec::new();
    for (alpha, beta) in [
        (0.5, 1.0),
        (0.8, 1.0),
        (1.0, 1.0), // the default
        (1.5, 1.0),
        (2.0, 1.0),
        (1.0, 0.5),
        (1.0, 1.5),
        (1.0, 2.0),
    ] {
        let cfg = ElsaConfig::new(sla).with_alpha(alpha).with_beta(beta);
        let server = InferenceServer::from_plan(
            &plan,
            bed.table().clone(),
            ServerConfig::new(SchedulerKind::Elsa(cfg)),
        );
        let (hint, search) = bed.latency_bounded_search(&server, &sweep);
        // Also measure violation behaviour at a fixed 60%-of-capacity load.
        let probe = measure_point(&server, bed.distribution(), hint * 0.6, &sweep);
        rows.push(vec![
            format!("{alpha:.1}"),
            format!("{beta:.1}"),
            format!("{:.0}", search.latency_bounded_qps),
            format!("{:.2}", probe.p95_ms),
            format!("{:.2}", probe.sla_violation_rate * 100.0),
        ]);
    }
    print_table(
        "Ablation D2 — ELSA α/β on ResNet (PARIS plan)",
        &[
            "alpha",
            "beta",
            "LBT (q/s)",
            "p95@60% (ms)",
            "violations@60% (%)",
        ],
        &rows,
    );
    println!(
        "\nReading: α,β > 1 make the predictor conservative (queries spill \
         to larger partitions earlier — fewer violations, some throughput \
         loss); α,β < 1 overcommit small partitions. α=β=1 is the paper's \
         setting."
    );
}
