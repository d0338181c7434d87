//! **§VI-C (text)** — SLA-target sensitivity: with N = 2.0× (vs the 1.5×
//! default), the paper reports PARIS+ELSA averaging 1.19× lower tail
//! latency, and 1.7×/1.1× higher latency-bounded throughput than GPU(7) and
//! GPU(max) respectively.
//!
//! ```text
//! cargo run -p paris-bench --release --bin sla_sensitivity [-- --quick]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;

fn main() {
    let opts = Opts::from_args(42, &[]);
    for n in [1.5f64, 2.0] {
        let mut rows = Vec::new();
        let mut geo_gpu7 = 1.0f64;
        let mut geo_max = 1.0f64;
        let mut count = 0usize;
        for model in ModelKind::ALL {
            let bed = Testbed::paper_default(model).with_sla_multiplier(n);
            let sweep = opts.sweep(&bed);
            let gpu7 = bed
                .latency_bounded_qps(DesignPoint::HomogeneousFifs(ProfileSize::G7), &sweep)
                .expect("plan builds");
            let (max_size, max_qps) = bed.gpu_max(&sweep).expect("plan builds");
            let elsa = bed
                .latency_bounded_qps(DesignPoint::ParisElsa, &sweep)
                .expect("plan builds");
            let vs7 = elsa / gpu7.max(1e-9);
            let vsmax = elsa / max_qps.max(1e-9);
            geo_gpu7 *= vs7;
            geo_max *= vsmax;
            count += 1;
            rows.push(vec![
                model.to_string(),
                format!("GPU({})", max_size.gpcs()),
                format!("{gpu7:.0}"),
                format!("{max_qps:.0}"),
                format!("{elsa:.0}"),
                format!("{vs7:.2}x"),
                format!("{vsmax:.2}x"),
            ]);
        }
        print_table(
            &format!("SLA sensitivity — N = {n}× (latency-bounded throughput, q/s)"),
            &[
                "Model",
                "GPU(max)",
                "GPU(7)+FIFS",
                "GPU(max)+FIFS",
                "PARIS+ELSA",
                "vs GPU(7)",
                "vs GPU(max)",
            ],
            &rows,
        );
        println!(
            "Geometric-mean PARIS+ELSA improvement: {:.2}x vs GPU(7), {:.2}x vs GPU(max)",
            geo_gpu7.powf(1.0 / count as f64),
            geo_max.powf(1.0 / count as f64)
        );
    }
    println!(
        "\nPaper reference (N=2.0): 1.7x vs GPU(7) and 1.1x vs GPU(max) on \
         average; gains persist under the looser SLA."
    );
}
