//! **Figure 13(a)** — sensitivity to the log-normal batch-size variance:
//! σ ∈ {0.3 (small), 0.9 (default), 1.8 (large)} on ResNet, six designs,
//! normalized to GPU(7)+FIFS.
//!
//! ```text
//! cargo run -p paris-bench --release --bin fig13a [-- --quick] [--seed N]
//! ```

use paris_bench::{measure_designs, print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let designs = [
        ("GPU(7)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G7)),
        ("GPU(3)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G3)),
        ("GPU(2)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G2)),
        ("GPU(1)+FIFS", DesignPoint::HomogeneousFifs(ProfileSize::G1)),
        ("PARIS+FIFS", DesignPoint::ParisFifs),
        ("PARIS+ELSA", DesignPoint::ParisElsa),
    ];
    let headers: Vec<&str> = std::iter::once("Variance")
        .chain(designs.iter().map(|&(n, _)| n))
        .collect();

    let mut rows = Vec::new();
    let mut gain_summary = Vec::new();
    for (label, sigma) in [
        ("small (σ=0.3)", 0.3),
        ("default (σ=0.9)", 0.9),
        ("large (σ=1.8)", 1.8),
    ] {
        let dist = BatchDistribution::log_normal(32, sigma);
        let bed = Testbed::with_distribution(ModelKind::ResNet50, dist);
        let sweep = opts.sweep(&bed);
        let measured = measure_designs(&bed, &designs, &sweep);
        let baseline = measured[0].1.max(1e-9);
        rows.push(
            std::iter::once(label.to_string())
                .chain(
                    measured
                        .iter()
                        .map(|&(_, q)| format!("{:.2}", q / baseline)),
                )
                .collect(),
        );
        let best_homog = measured[..4].iter().map(|&(_, q)| q).fold(0.0, f64::max);
        let paris_elsa = measured[5].1;
        gain_summary.push((label, paris_elsa / best_homog.max(1e-9)));
    }
    print_table(
        "Figure 13(a) — ResNet throughput vs log-normal variance (normalized to GPU(7)+FIFS)",
        &headers,
        &rows,
    );
    println!("\nPARIS+ELSA gain over the best homogeneous design:");
    for (label, gain) in gain_summary {
        println!("  {label:<16} {gain:.2}x");
    }
    println!(
        "\nPaper shape check: the heterogeneity advantage grows with the \
         distribution variance — small σ concentrates batches where one \
         homogeneous granularity suffices."
    );
}
