//! **Figure 11** — p95 tail latency versus achieved throughput for the four
//! headline designs on each of the five models, with the SLA line and the
//! latency-bounded throughput (the paper's vertical markers).
//!
//! ```text
//! cargo run -p paris-bench --release --bin fig11 [-- --quick] [--seed N]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;

fn main() {
    let opts = Opts::from_args(42, &[]);
    for model in ModelKind::ALL {
        let bed = Testbed::paper_default(model);
        let sweep_cfg = opts.sweep(&bed);
        let (gpu_max, _) = bed.gpu_max(&sweep_cfg).expect("homogeneous plans build");
        let designs = vec![
            (
                "GPU(7)+FIFS".to_string(),
                DesignPoint::HomogeneousFifs(ProfileSize::G7),
            ),
            (
                format!("GPU(max)=GPU({})+FIFS", gpu_max.gpcs()),
                DesignPoint::HomogeneousFifs(gpu_max),
            ),
            ("PARIS+FIFS".to_string(), DesignPoint::ParisFifs),
            ("PARIS+ELSA".to_string(), DesignPoint::ParisElsa),
        ];

        let mut rows = Vec::new();
        let mut bounded = Vec::new();
        for (name, design) in &designs {
            let server = bed.server(*design).expect("plan builds");
            let (_, search) = bed.latency_bounded_search(&server, &sweep_cfg);
            let mut points = search.points.clone();
            points.sort_by(|a, b| a.achieved_qps.total_cmp(&b.achieved_qps));
            for p in points.iter().filter(|p| p.p95_ms.is_finite()) {
                rows.push(vec![
                    name.clone(),
                    format!("{:.0}", p.achieved_qps),
                    format!("{:.2}", p.p95_ms),
                    if p.meets_target(sweep_cfg.sla_ms()) {
                        "yes"
                    } else {
                        "no"
                    }
                    .to_string(),
                ]);
            }
            bounded.push((name.clone(), search.latency_bounded_qps));
        }
        print_table(
            &format!(
                "Figure 11 — {model}: p95 vs throughput (SLA target {:.2} ms)",
                sweep_cfg.sla_ms()
            ),
            &["Design", "Throughput (q/s)", "p95 (ms)", "within SLA"],
            &rows,
        );
        println!("Latency-bounded throughput (vertical markers):");
        for (name, qps) in bounded {
            println!("  {name:<24} {qps:>8.0} q/s");
        }
    }
    println!(
        "\nPaper shape check: every curve bends upward as load approaches \
         saturation; PARIS+ELSA crosses the SLA line at the highest \
         throughput on every model."
    );
}
