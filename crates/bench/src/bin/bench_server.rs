//! `bench_server` — the perf-trajectory benchmark behind `BENCH_server.json`.
//!
//! Pushes a dispatch-heavy trace through the server's **fast path**
//! (streamed arrivals + incremental ELSA state, `Summary` detail) and the
//! pre-rearchitecture **reference path** (`run_reference`: trace pre-loaded
//! into the event queue, fresh snapshots + pure `Elsa::place` per query)
//! for FIFS and ELSA at 8/56/224 partitions, then writes wall time,
//! events/sec and the fast-vs-reference speedup to `BENCH_server.json`.
//!
//! Usage: `cargo run --release --bin bench_server [--quick] [--smoke] [--queries N] [--seed N]`
//!
//! `--seed` picks the trace (default 7).
//!
//! `--smoke` runs a tiny trace (5 k queries) — CI uses it to catch bench
//! regressions (panics, schema drift, broken paths) without paying for a
//! real measurement; the numbers it writes are not comparable.

use std::time::Instant;

use paris_bench::json::{fixed, Json, Obj};
use paris_bench::print_table;
use paris_elsa::prelude::*;

struct Measurement {
    scheduler: &'static str,
    partitions: usize,
    path: &'static str,
    wall_s: f64,
    events_per_sec: f64,
    wall_per_1m_queries_s: f64,
}

fn measure(
    label: (&'static str, &'static str),
    server: &InferenceServer,
    trace: &[QuerySpec],
    reference: bool,
    reps: usize,
) -> Measurement {
    // Best-of-N: the run is deterministic, so the fastest repetition is the
    // one least perturbed by scheduler/frequency noise. The extra warmup
    // iteration (untimed, discarded) pays the cold-cache and page-fault
    // cost so the timed repetitions start from a steady state.
    let warmup = usize::from(reps > 1);
    let mut wall_s = f64::INFINITY;
    for rep in 0..reps.max(1) + warmup {
        let start = Instant::now();
        let report = if reference {
            server.run_reference(trace)
        } else {
            server.run_stream_sla(
                trace.iter().copied(),
                ReportDetail::Summary,
                server.config().sla_ns,
            )
        };
        if rep >= warmup {
            wall_s = wall_s.min(start.elapsed().as_secs_f64());
        }
        assert_eq!(report.completed(), trace.len() as u64, "all queries served");
    }
    // Two DES events per query: one dispatch, one completion.
    let events = 2.0 * trace.len() as f64;
    Measurement {
        scheduler: label.0,
        partitions: server.partitions().len(),
        path: label.1,
        wall_s,
        events_per_sec: events / wall_s,
        wall_per_1m_queries_s: wall_s * 1e6 / trace.len() as f64,
    }
}

fn main() {
    let opts = paris_bench::Opts::from_args(7, &["--queries <n>"]);
    let queries: usize =
        paris_bench::flag("queries").unwrap_or_else(|| opts.pick(1_000_000, 100_000, 5_000));
    if queries == 0 {
        eprintln!("error: --queries must be at least 1");
        std::process::exit(2);
    }

    // The fast path is cheap to repeat, so it gets more best-of samples
    // than the (up to 50× slower) reference path.
    let fast_reps: usize = opts.pick(9, 3, 1);
    let ref_reps: usize = opts.pick(3, 2, 1);
    let mut results: Vec<Measurement> = Vec::new();
    for n in paris_bench::DISPATCH_BENCH_PARTITIONS {
        let (fifs, elsa, trace) = paris_bench::dispatch_workload(n, queries, opts.seed);
        for (scheduler, server) in [("fifs", &fifs), ("elsa", &elsa)] {
            results.push(measure(
                (scheduler, "fast"),
                server,
                &trace,
                false,
                fast_reps,
            ));
            results.push(measure(
                (scheduler, "reference"),
                server,
                &trace,
                true,
                ref_reps,
            ));
        }
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.scheduler.to_owned(),
                m.partitions.to_string(),
                m.path.to_owned(),
                format!("{:.3}", m.wall_s),
                format!("{:.2e}", m.events_per_sec),
                format!("{:.2}", m.wall_per_1m_queries_s),
            ]
        })
        .collect();
    print_table(
        &format!("server dispatch path, {queries} queries/config"),
        &[
            "sched",
            "parts",
            "path",
            "wall s",
            "events/s",
            "s per 1M queries",
        ],
        &rows,
    );

    // Speedup summary: fast vs reference per (scheduler, partitions).
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for pair in results.chunks(2) {
        let [fast, reference] = pair else { continue };
        speedups.push((
            format!("{}_{}", fast.scheduler, fast.partitions),
            fast.events_per_sec / reference.events_per_sec,
        ));
    }
    println!();
    for (name, s) in &speedups {
        println!("speedup {name}: {s:.2}x");
    }

    let configs = results.iter().map(|m| {
        Obj::new()
            .field("scheduler", m.scheduler)
            .field("partitions", m.partitions)
            .field("path", m.path)
            .field("wall_s", fixed(m.wall_s, 4))
            .field("events_per_sec", fixed(m.events_per_sec, 1))
            .field("wall_per_1m_queries_s", fixed(m.wall_per_1m_queries_s, 3))
    });
    let speedups = speedups
        .iter()
        .fold(Obj::new(), |o, (name, s)| o.field(name, fixed(*s, 2)));
    let json = Obj::new()
        .field("schema", "bench_server/v2")
        .field("queries_per_config", queries)
        .field("model", "mobilenet_v1")
        .field("configs", Json::rows(configs))
        .field("fast_vs_reference_speedup", Json::Block(speedups))
        .render();
    std::fs::write("BENCH_server.json", json).expect("write BENCH_server.json");
    println!("\nwrote BENCH_server.json");
}
