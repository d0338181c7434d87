//! **Figure 13(b)** — sensitivity to the distribution's maximum batch size
//! (16 / 32 / 64) for every model: GPU(max)+FIFS vs PARIS+FIFS vs
//! PARIS+ELSA, normalized to GPU(max)+FIFS.
//!
//! ```text
//! cargo run -p paris-bench --release --bin fig13b [-- --quick] [--seed N]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let mut rows = Vec::new();
    for model in ModelKind::ALL {
        for max_batch in [16usize, 32, 64] {
            let dist = BatchDistribution::log_normal(max_batch, 0.9);
            let bed = Testbed::with_distribution(model, dist);
            let sweep = opts.sweep(&bed);
            let (gpu_max, max_qps) = bed.gpu_max(&sweep).expect("homogeneous plans build");
            let fifs = bed
                .latency_bounded_qps(DesignPoint::ParisFifs, &sweep)
                .expect("PARIS plan builds");
            let elsa = bed
                .latency_bounded_qps(DesignPoint::ParisElsa, &sweep)
                .expect("PARIS plan builds");
            let base = max_qps.max(1e-9);
            rows.push(vec![
                model.to_string(),
                max_batch.to_string(),
                format!("GPU({})", gpu_max.gpcs()),
                "1.00".to_string(),
                format!("{:.2}", fifs / base),
                format!("{:.2}", elsa / base),
            ]);
        }
    }
    print_table(
        "Figure 13(b) — throughput vs max batch size (normalized to GPU(max)+FIFS)",
        &[
            "Model",
            "MaxBatch",
            "GPU(max)",
            "GPU(max)+FIFS",
            "PARIS+FIFS",
            "PARIS+ELSA",
        ],
        &rows,
    );
    println!(
        "\nPaper shape check: PARIS+ELSA stays at or above GPU(max)+FIFS \
         across all maximum batch sizes (robustness claim of §VI-C)."
    );
}
