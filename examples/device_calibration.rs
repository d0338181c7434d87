//! Device-calibration tour: print the analytical model's latency,
//! utilization, knees and PARIS plans per model — the numbers behind the
//! Figure 3/4 shapes and the deviations README records ("Deviations from
//! the paper").
//!
//! ```text
//! cargo run --release --example device_calibration
//! ```

use paris_elsa::paris::find_knees;
use paris_elsa::prelude::*;

fn main() {
    let dist = BatchDistribution::paper_default();
    for kind in ModelKind::ALL {
        let m = kind.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        let table = ProfileTable::profile(&m, &perf, &ProfileSize::ALL, 32);
        let knees = find_knees(&table, Default::default());
        let kstr: Vec<String> = knees
            .iter()
            .map(|k| format!("{}:{}", k.size.gpcs(), k.batch))
            .collect();
        let (budget, _) = inference_server::paper_budgets(kind);
        let plan = Paris::new(&table, &dist).plan(budget).unwrap();
        let sla = table.sla_target_ns(1.5) as f64 / 1e6;
        let r = |s: ProfileSize, b: usize| table.latency_ns(s, b) as f64 / 1e6;
        println!("{kind:>10}: knees[{}] plan={plan}", kstr.join(" "));
        println!("            SLA {sla:.1}ms | G1@26 {:.1} G2@26 {:.1} G3@26 {:.1} G7@32 {:.1} | util G1: b1 {:.0}% b4 {:.0}% b8 {:.0}%  G7: b8 {:.0}% b16 {:.0}% b32 {:.0}%",
            r(ProfileSize::G1,26), r(ProfileSize::G2,26), r(ProfileSize::G3,26), r(ProfileSize::G7,32),
            table.utilization(ProfileSize::G1,1)*100.0, table.utilization(ProfileSize::G1,4)*100.0, table.utilization(ProfileSize::G1,8)*100.0,
            table.utilization(ProfileSize::G7,8)*100.0, table.utilization(ProfileSize::G7,16)*100.0, table.utilization(ProfileSize::G7,32)*100.0);
    }
}
