//! Scheduler comparison: replay the paper's Figure 5/10 scenario — a
//! heterogeneous server under FIFS vs ELSA — and print each query's
//! partition, start and end, showing FIFS sending a large query to a small
//! idle partition (SLA violation) while ELSA waits for a big partition.
//!
//! ```text
//! cargo run --release --example scheduler_comparison
//! ```

use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;
use paris_elsa::workload::QuerySpec;

fn main() {
    // A small heterogeneous server: two large partitions and one small,
    // exactly the Figure 5(b) setup. FIFS breaks idle ties by longest idle,
    // then lowest index, so the two fillers take the large partitions.
    let model = ModelKind::BertBase.build();
    let perf = PerfModel::new(DeviceSpec::a100());
    let table = ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32);
    let partitions = vec![ProfileSize::G7, ProfileSize::G7, ProfileSize::G1];
    let sla_ns = table.sla_target_ns(1.5);

    // The large partitions are busy when a big query A arrives; a small
    // query B follows shortly after.
    let trace = vec![
        QuerySpec {
            arrival_ns: 0,
            batch: 16,
        }, // occupies large #1
        QuerySpec {
            arrival_ns: 1_000,
            batch: 16,
        }, // occupies large #2
        QuerySpec {
            arrival_ns: 2_000_000,
            batch: 24,
        }, // query A: big
        QuerySpec {
            arrival_ns: 3_000_000,
            batch: 2,
        }, // query B: small
    ];

    for (name, scheduler) in [
        ("FIFS", SchedulerKind::Fifs),
        ("ELSA", SchedulerKind::Elsa(ElsaConfig::new(sla_ns))),
    ] {
        let server = InferenceServer::new(
            partitions.clone(),
            table.clone(),
            ServerConfig::new(scheduler.clone()),
        );
        let report = server.run(&trace);
        println!("=== {name} ===");
        for r in &report.records {
            let verdict = if r.latency().as_nanos() > sla_ns {
                "SLA VIOLATION"
            } else {
                "ok"
            };
            println!(
                "  {} (batch {:>2}) → partition {} ({}), runs {:>6.2}–{:>6.2} ms, \
                 latency {:>6.2} ms  [{verdict}]",
                r.id,
                r.batch,
                r.partition,
                partitions[r.partition],
                r.started.as_millis_f64(),
                r.completed.as_millis_f64(),
                r.latency().as_millis_f64(),
            );
        }
        // The story: FIFS sends query A (q2) to the small partition and
        // that is its only violation; ELSA meets the SLA for every query.
        let violators: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.latency().as_nanos() > sla_ns)
            .map(|r| (r.id.0, partitions[r.partition]))
            .collect();
        match scheduler {
            SchedulerKind::Fifs => assert_eq!(violators, [(2, ProfileSize::G1)]),
            SchedulerKind::Elsa(_) => assert!(violators.is_empty(), "{violators:?}"),
        }
        println!(
            "  p95 {:.2} ms vs SLA {:.2} ms, violations: {}\n",
            report.p95_ms(),
            sla_ns as f64 / 1e6,
            report.latency.violations(sla_ns)
        );
    }
    println!(
        "Reading: FIFS hands the big query A to the only idle (small) \
         partition and blows the SLA; ELSA's slack predictor keeps A for a \
         large partition and slots B wherever it still fits (Figure 10)."
    );
}
