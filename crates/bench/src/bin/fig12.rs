//! **Figure 12** — latency-bounded throughput of all eight designs across
//! the five benchmark models, normalized to GPU(7)+FIFS.
//!
//! ```text
//! cargo run -p paris-bench --release --bin fig12 [-- --quick] [--seed N]
//! ```

use paris_bench::{figure12_designs, measure_designs, print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let designs = figure12_designs(opts.seed);
    let headers: Vec<&str> = std::iter::once("Model")
        .chain(designs.iter().map(|&(name, _)| name))
        .collect();

    let mut raw_rows = Vec::new();
    let mut norm_rows = Vec::new();
    for model in ModelKind::ALL {
        let bed = Testbed::paper_default(model);
        let sweep = opts.sweep(&bed);
        let measured = measure_designs(&bed, &designs, &sweep);
        let baseline = measured[0].1.max(1e-9); // GPU(7)+FIFS
        raw_rows.push(
            std::iter::once(model.to_string())
                .chain(measured.iter().map(|&(_, qps)| format!("{qps:.0}")))
                .collect::<Vec<_>>(),
        );
        norm_rows.push(
            std::iter::once(model.to_string())
                .chain(
                    measured
                        .iter()
                        .map(|&(_, qps)| format!("{:.2}", qps / baseline)),
                )
                .collect::<Vec<_>>(),
        );
    }

    print_table(
        "Figure 12 — latency-bounded throughput (queries/sec)",
        &headers,
        &raw_rows,
    );
    print_table(
        "Figure 12 — normalized to GPU(7)+FIFS",
        &headers,
        &norm_rows,
    );
    println!(
        "\nPaper shape check: PARIS+ELSA should lead every row; the gray \
         homogeneous bars should trail; Random+ELSA should be competitive \
         with homogeneous designs (σ=0.9 log-normal, SLA = 1.5×)."
    );
}
