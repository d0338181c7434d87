//! `bench_des` — event-queue microbenchmarks behind `BENCH_des.json`.
//!
//! Times the three primitive operations of [`paris_elsa::des::EventQueue`]
//! — `push`, `pop` and the fused `pop_push` — at pending depths 1e2, 1e4
//! and 1e6, plus classic *hold model* access patterns at steady depth
//! (pop the earliest event, reschedule it a random increment into the
//! future — the canonical priority-queue workload and exactly the shape of
//! the simulator's dispatch/complete cycle):
//!
//! * `hold_uniform` — increments uniform in one calendar bucket width, so
//!   nearly every reschedule stays in the near-future calendar.
//! * `hold_burst`   — mostly small increments with a 1-in-64 far-future
//!   spike, forcing far-heap traffic and calendar re-slides.
//! * `hold_passthrough` — `push_pop` with an increment below the front
//!   gap, exercising the zero-insertion passthrough path.
//!
//! The `push` and `pop` rows preload their queue with one `push_batch`,
//! which leaves every event in the far heap. The hold models build theirs
//! with `push_keyed`, which arms the near-future calendar at depth 8 as
//! every engine queue does, so they time the calendar.
//!
//! Measurement uses the workspace criterion shim (wall-clock budgeted
//! batches; `CRITERION_BUDGET_MS` shortens runs). Each line reports
//! per-op nanoseconds; the JSON artifact records ops/sec per
//! `(op, depth, pattern)` under schema `bench_des/v1`.
//!
//! Usage: `cargo run --release --bin bench_des [--quick] [--smoke] [--seed N]`
//!
//! `--smoke` shrinks the timing budget and the deepest queue — CI uses it
//! to catch regressions; the numbers it writes are not comparable.

use criterion::{BatchSize, Criterion};
use paris_bench::json::{fixed, Json, Obj};
use paris_elsa::des::{EventQueue, SimTime};

/// Events timed per batched iteration of `push`/`pop` (the queue is
/// rebuilt outside the timed region between batches).
const BATCH: usize = 1024;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A queue holding `depth` events with uniformly random times in
/// `[0, depth × mean_gap_ns)` — the steady-state shape of a DES heap. A
/// preload goes in as one `push_batch` and leaves the calendar unarmed;
/// otherwise each event goes in through `push_keyed`, which arms it.
fn filled(depth: usize, mean_gap_ns: u64, seed: u64, preload: bool) -> (EventQueue<u64>, Rng) {
    let mut rng = Rng(seed | 1);
    let mut q = EventQueue::with_capacity(depth + BATCH);
    let horizon = (depth as u64 * mean_gap_ns).max(1);
    let events = (0..depth as u64).map(|i| (SimTime::from_nanos(rng.next() % horizon), i, i));
    if preload {
        q.push_batch(events);
    } else {
        for (t, key, v) in events {
            q.push_keyed(t, key, v);
        }
    }
    (q, rng)
}

fn main() {
    let opts = paris_bench::Opts::from_args(11, &[]);
    if std::env::var("CRITERION_BUDGET_MS").is_err() {
        let ms = opts.pick(300u64, 100, 20);
        std::env::set_var("CRITERION_BUDGET_MS", ms.to_string());
    }
    let budget_ms: u64 = std::env::var("CRITERION_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let depths: &[usize] = if opts.smoke {
        &[100, 10_000]
    } else {
        &[100, 10_000, 1_000_000]
    };
    // Mean inter-event gap: wide enough that a filled queue spans many
    // calendar buckets, small enough to keep times in-range at 1e6 depth.
    const GAP_NS: u64 = 4096;

    let mut c = Criterion::default();
    // (json name, depth, pattern, ops per measured iteration)
    let mut plan: Vec<(String, usize, &str, u64)> = Vec::new();

    for &depth in depths {
        let seed = opts.seed.wrapping_mul(depth as u64 + 1);

        c.bench_function(&format!("push/depth_{depth}"), |b| {
            b.iter_batched(
                || filled(depth, GAP_NS, seed, true),
                |(mut q, mut rng)| {
                    let horizon = depth as u64 * GAP_NS;
                    for i in 0..BATCH {
                        q.push(SimTime::from_nanos(rng.next() % horizon), i as u64);
                    }
                    q
                },
                BatchSize::LargeInput,
            );
        });
        plan.push((
            format!("push/depth_{depth}"),
            depth,
            "uniform",
            BATCH as u64,
        ));

        c.bench_function(&format!("pop/depth_{depth}"), |b| {
            b.iter_batched(
                || filled(depth, GAP_NS, seed, true).0,
                |mut q| {
                    for _ in 0..BATCH.min(depth) {
                        std::hint::black_box(q.pop());
                    }
                    q
                },
                BatchSize::LargeInput,
            );
        });
        plan.push((
            format!("pop/depth_{depth}"),
            depth,
            "uniform",
            BATCH.min(depth) as u64,
        ));

        // Hold models: steady depth, one fused reschedule per iteration.
        // The new event fires a random increment after the last *popped*
        // time, so the clock advances like a real simulation's.
        let (mut q, mut rng) = filled(depth, GAP_NS, seed, false);
        let mut last_ns = 0u64;
        c.bench_function(&format!("pop_push/depth_{depth}/hold_uniform"), |b| {
            b.iter(|| {
                let dt = rng.next() % (2 * GAP_NS);
                let (t, v) = q
                    .pop_push(SimTime::from_nanos(last_ns + dt), dt, 0)
                    .expect("steady depth");
                last_ns = t.as_nanos();
                v
            });
        });
        plan.push((
            format!("pop_push/depth_{depth}/hold_uniform"),
            depth,
            "hold_uniform",
            1,
        ));

        let (mut q, mut rng) = filled(depth, GAP_NS, seed, false);
        let mut last_ns = 0u64;
        c.bench_function(&format!("pop_push/depth_{depth}/hold_burst"), |b| {
            b.iter(|| {
                let r = rng.next();
                let dt = if r % 64 == 0 {
                    // Far-future spike: past the armed calendar window.
                    GAP_NS * depth as u64 * 4
                } else {
                    r % GAP_NS
                };
                let (t, v) = q
                    .pop_push(SimTime::from_nanos(last_ns + dt), r % 8, 0)
                    .expect("steady depth");
                last_ns = t.as_nanos();
                v
            });
        });
        plan.push((
            format!("pop_push/depth_{depth}/hold_burst"),
            depth,
            "hold_burst",
            1,
        ));

        let (mut q, mut rng) = filled(depth, GAP_NS, seed, false);
        c.bench_function(&format!("push_pop/depth_{depth}/hold_passthrough"), |b| {
            b.iter(|| {
                // An increment of at most one gap rarely clears the front,
                // so most calls take the zero-insertion passthrough.
                let t = q.peek_time().expect("steady depth");
                let dt = rng.next() % GAP_NS;
                std::hint::black_box(q.push_pop(
                    SimTime::from_nanos(t.as_nanos().saturating_sub(dt)),
                    0,
                    0,
                ))
            });
        });
        plan.push((
            format!("push_pop/depth_{depth}/hold_passthrough"),
            depth,
            "hold_passthrough",
            1,
        ));
    }

    let mode = opts.pick("full", "quick", "smoke");
    let results = c.results();
    assert_eq!(results.len(), plan.len(), "every planned bench must report");
    let ops = plan
        .iter()
        .zip(results)
        .map(|((name, depth, pattern, ops), res)| {
            assert_eq!(&res.name, name, "results out of order");
            let op = name.split('/').next().expect("name has op prefix");
            let ns_per_op = res.mean_ns / *ops as f64;
            Obj::new()
                .field("op", op)
                .field("depth", *depth)
                .field("pattern", *pattern)
                .field("ns_per_op", fixed(ns_per_op, 2))
                .field("ops_per_sec", fixed(1e9 / ns_per_op, 0))
                .field("iters", res.iters)
        });
    let json = Obj::new()
        .field("schema", "bench_des/v1")
        .field("mode", mode)
        .field("seed", opts.seed)
        .field("budget_ms", budget_ms)
        .field("batch_ops", BATCH)
        .field("ops", Json::rows(ops))
        .render();
    std::fs::write("BENCH_des.json", json).expect("write BENCH_des.json");
    println!("wrote BENCH_des.json ({mode})");
}
