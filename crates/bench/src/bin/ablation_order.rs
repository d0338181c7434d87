//! **Ablation D4** — ELSA Step A scan order: smallest-first (the paper's
//! utilization-maximizing choice, Algorithm 2 line 3) vs largest-first.
//!
//! ```text
//! cargo run -p paris-bench --release --bin ablation_order [-- --quick]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::paris::ScanOrder;
use paris_elsa::prelude::*;
use paris_elsa::server::measure_point;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let mut rows = Vec::new();
    for model in [
        ModelKind::MobileNet,
        ModelKind::ResNet50,
        ModelKind::BertBase,
    ] {
        let bed = Testbed::paper_default(model);
        let sweep = opts.sweep(&bed);
        let plan = bed.plan(DesignPoint::ParisElsa).expect("plan builds");
        for (name, order) in [
            ("smallest-first*", ScanOrder::SmallestFirst),
            ("largest-first", ScanOrder::LargestFirst),
        ] {
            let cfg = ElsaConfig::new(bed.sla_ns()).with_order(order);
            let server = InferenceServer::from_plan(
                &plan,
                bed.table().clone(),
                ServerConfig::new(SchedulerKind::Elsa(cfg)),
            );
            let (hint, search) = bed.latency_bounded_search(&server, &sweep);
            let probe = measure_point(&server, bed.distribution(), hint * 0.5, &sweep);
            rows.push(vec![
                model.to_string(),
                name.to_string(),
                format!("{:.0}", search.latency_bounded_qps),
                format!("{:.1}", probe.mean_utilization * 100.0),
            ]);
        }
    }
    print_table(
        "Ablation D4 — ELSA Step-A scan order (* = paper's rule)",
        &["Model", "Order", "LBT (q/s)", "mean util@50% (%)"],
        &rows,
    );
    println!(
        "\nReading: scanning small partitions first keeps big partitions \
         free for the large batches only they can serve within SLA; \
         largest-first burns big-partition headroom on small queries."
    );
}
