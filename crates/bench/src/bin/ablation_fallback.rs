//! **Ablation D3** — ELSA's Step B fallback when no partition can meet SLA:
//! the paper's fastest-service rule vs always-smallest / always-largest.
//!
//! ```text
//! cargo run -p paris-bench --release --bin ablation_fallback [-- --quick]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::paris::FallbackPolicy;
use paris_elsa::prelude::*;
use paris_elsa::server::measure_point;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let mut rows = Vec::new();
    for model in [ModelKind::MobileNet, ModelKind::BertBase] {
        let bed = Testbed::paper_default(model);
        let sweep = opts.sweep(&bed);
        let plan = bed.plan(DesignPoint::ParisElsa).expect("plan builds");
        for (name, fallback) in [
            ("fastest service*", FallbackPolicy::FastestService),
            ("smallest partition", FallbackPolicy::SmallestPartition),
            ("largest partition", FallbackPolicy::LargestPartition),
        ] {
            let cfg = ElsaConfig::new(bed.sla_ns()).with_fallback(fallback);
            let server = InferenceServer::from_plan(
                &plan,
                bed.table().clone(),
                ServerConfig::new(SchedulerKind::Elsa(cfg)),
            );
            let (hint, search) = bed.latency_bounded_search(&server, &sweep);
            // Overload probe: 120% of capacity, where Step B actually fires.
            let probe = measure_point(&server, bed.distribution(), hint * 1.2, &sweep);
            rows.push(vec![
                model.to_string(),
                name.to_string(),
                format!("{:.0}", search.latency_bounded_qps),
                format!("{:.1}", probe.p95_ms),
                format!("{:.1}", probe.sla_violation_rate * 100.0),
            ]);
        }
    }
    print_table(
        "Ablation D3 — ELSA Step-B fallback (* = paper's rule)",
        &[
            "Model",
            "Fallback",
            "LBT (q/s)",
            "p95@120% (ms)",
            "violations@120% (%)",
        ],
        &rows,
    );
    println!(
        "\nReading: servicing doomed queries as fast as possible (the \
         paper's rule) minimizes their damage to queries that can still \
         meet SLA; dumping them on the smallest partitions compounds the \
         backlog exactly where slack is scarcest."
    );
}
