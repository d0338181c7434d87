//! **Table I** — the homogeneous and heterogeneous server configurations
//! per model: instances and GPCs for GPU(1)/GPU(2)/GPU(3)/GPU(7), Random
//! and PARIS, plus the physical per-GPU MIG layouts PARIS packs.
//!
//! ```text
//! cargo run -p paris-bench --release --bin table1 [-- --seed N]
//! ```

use paris_bench::{print_table, Opts};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;

fn main() {
    let opts = Opts::from_args(42, &[]);
    let mut rows = Vec::new();
    let mut paris_layouts = Vec::new();
    for model in ModelKind::ALL {
        let bed = Testbed::paper_default(model);
        let designs = [
            ("GPU(1)", DesignPoint::HomogeneousFifs(ProfileSize::G1)),
            ("GPU(2)", DesignPoint::HomogeneousFifs(ProfileSize::G2)),
            ("GPU(3)", DesignPoint::HomogeneousFifs(ProfileSize::G3)),
            ("GPU(7)", DesignPoint::HomogeneousFifs(ProfileSize::G7)),
            ("Random", DesignPoint::RandomFifs { seed: opts.seed }),
            ("PARIS", DesignPoint::ParisFifs),
        ];
        for (name, design) in designs {
            let plan = bed.plan(design).expect("plan builds");
            let budget = bed.budget_for(design);
            rows.push(vec![
                model.to_string(),
                name.to_string(),
                plan.instance_count().to_string(),
                plan.total_gpcs_used().to_string(),
                budget.num_gpus.to_string(),
                plan.to_string(),
            ]);
            if name == "PARIS" {
                let layouts: Vec<String> = plan.layouts().iter().map(|l| l.to_string()).collect();
                paris_layouts.push((model, layouts.join(" ")));
            }
        }
    }
    print_table(
        "Table I — server configurations (instances / GPCs per design)",
        &[
            "Model",
            "Design",
            "#instances",
            "#GPCs",
            "#A100",
            "Composition",
        ],
        &rows,
    );
    println!("\nPARIS physical MIG packing (per A100):");
    for (model, layouts) in paris_layouts {
        println!("  {model:<11} {layouts}");
    }
    println!(
        "\nDeviations from the paper's Table I (see README, Deviations from the paper): \
         BERT GPU(2)=18 and GPU(3)=12 instances (paper lists 21/14, which \
         exceed real A100 MIG placement limits of 3×2g and 2×3g per GPU)."
    );
}
