//! `bench_megacluster` — the shard-parallel cluster engine at fleet scale,
//! behind `BENCH_megacluster.json`.
//!
//! Hosts MobileNet on 32 identical 4-GPU shards (128 serving GPUs) with an
//! 8-GPU batch pool behind a JSQ router, drives a 100k+ qps trace with a
//! mid-run GPU failure and a shard outage, and pins ARCHITECTURE.md
//! invariant 11 **in the bench itself**:
//!
//! * **bit-for-bit determinism** — for each [`SyncWindow`] mode, the run
//!   is repeated at 1, 2, 4 and 8 lane threads and every report must be
//!   byte-identical (`Debug`-string equality over the full
//!   `ClusterReport`, histograms included). The bench aborts if any
//!   thread count diverges, and records the verdict as
//!   `parallel_bit_identical`.
//! * **measured scaling** — the headline is the wall-clock speedup of each
//!   thread count over one thread on the benchmarking host (best of
//!   several runs each, with `host_cores` recorded beside it and the
//!   spread between the runs beside each point). At lookahead thread
//!   counts up to the host's cores, a run must take at most 1.1× the
//!   single-thread wall time. The conservative-window critical-path model
//!   (per window, lane-event deltas bucketed by the pool's contiguous
//!   chunks) is listed next to it as `modeled_speedup`, a model of what
//!   more cores could give, never the headline.
//!
//! Per-event windows always advance their lanes on the calling thread (a
//! window holds a couple of lane events), so their curve is flat by
//! design and only its bit-identity is asserted; lookahead windows batch
//! a full route-hop's worth of decisions per edge and carry the scaling.
//!
//! Usage: `cargo run --release --bin bench_megacluster [--quick] [--smoke] [--seed N]`

use std::time::Instant;

use paris_bench::json::{fixed, Json, Obj};
use paris_bench::scenarios::{mobilenet_shard, mobilenet_table, steady_trace};
use paris_elsa::cluster::{Cluster, ClusterReport, LoanPolicy, RouterPolicy, WindowProfile};
use paris_elsa::prelude::*;

/// Lane worker thread counts every mode is verified at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The lookahead window: the modeled cross-shard information latency (a
/// route hop plus the decision grid). One millisecond holds ~160 arrivals
/// of coordinator work per window at the bench's offered rate.
const LOOKAHEAD_MS: f64 = 1.0;

struct Scenario {
    cluster: Cluster,
    faults: FaultTimeline,
    trace: Vec<TaggedQuerySpec>,
    shards: usize,
    gpus_per_shard: usize,
    pool_gpus: usize,
    offered_qps: f64,
    duration_secs: f64,
    seed: u64,
}

impl Scenario {
    fn new(duration_secs: f64, seed: u64) -> Self {
        let (shards, gpus_per_shard, pool_gpus) = (32usize, 4usize, 8usize);
        // All shards are identical: plan once, clone 32×.
        let shard = mobilenet_shard(
            &mobilenet_table(),
            &["mobilenet_v1"],
            gpus_per_shard,
            MultiModelConfig::new(),
        );
        let fleet_qps: f64 = shard.capacity_hint_qps() * shards as f64;
        // 80 % of planned fleet capacity: comfortably past the 100k qps
        // bar at 128 GPUs, with headroom for the injected faults.
        let offered_qps = 0.8 * fleet_qps;
        let trace = steady_trace(duration_secs, offered_qps, 1, seed);
        let cluster = Cluster::new(vec![shard; shards], RouterPolicy::JoinShortestQueue)
            .with_loan(LoanPolicy::new(pool_gpus, 0.25))
            .with_lane_capacity(offered_qps);
        // A GPU dies on shard 3 and a whole shard drops out of rotation
        // mid-run; both repair before the end, so the run exercises kill +
        // requeue + recovery re-plan + drain/rejoin at fleet scale.
        let t = |frac: f64| SimTime::from_nanos((frac * duration_secs * 1e9) as u64);
        let faults = FaultTimeline::new(vec![
            (t(0.30), FaultEvent::GpuFail { shard: 3, gpu: 0 }),
            (t(0.40), FaultEvent::ShardFail { shard: 17 }),
            (t(0.60), FaultEvent::GpuRepair { shard: 3, gpu: 0 }),
            (t(0.70), FaultEvent::ShardRepair { shard: 17 }),
        ]);
        Scenario {
            cluster,
            faults,
            trace,
            shards,
            gpus_per_shard,
            pool_gpus,
            offered_qps,
            duration_secs,
            seed,
        }
    }

    fn spec(&self, window: SyncWindow, threads: usize) -> RunSpec {
        RunSpec::new(ReportDetail::Summary)
            .with_faults(self.faults.clone())
            .with_window(window, threads)
    }

    /// One full run: report plus wall-clock seconds.
    fn run(&self, window: SyncWindow, threads: usize) -> (ClusterReport, f64) {
        let spec = self.spec(window, threads);
        let start = Instant::now();
        let run = self
            .cluster
            .run_with(self.trace.iter().map(|&tq| (None, tq)), &spec);
        (run.report, start.elapsed().as_secs_f64())
    }

    fn profile(&self, window: SyncWindow) -> (ClusterReport, WindowProfile) {
        let spec = self.spec(window, 1).with_profile(&THREADS);
        let run = self
            .cluster
            .run_with(self.trace.iter().map(|&tq| (None, tq)), &spec);
        (run.report, run.profile.expect("profiling was requested"))
    }
}

struct ModeResult {
    reference: ClusterReport,
    /// Every rep's wall-clock seconds, per entry of [`THREADS`].
    wall_secs: Vec<Vec<f64>>,
    bit_identical: bool,
    profile: WindowProfile,
}

/// Runs one sync mode `reps` times at every thread count (interleaved and
/// rotated, so a slow stretch of the host hits every count alike), checks
/// byte equality against the single-thread run, and measures the window
/// profile.
fn verify_mode(
    scenario: &Scenario,
    name: &'static str,
    window: SyncWindow,
    reps: usize,
) -> ModeResult {
    let (reference, _) = scenario.run(window, 1);
    let reference_bytes = format!("{reference:?}");
    let mut wall_secs = vec![Vec::with_capacity(reps); THREADS.len()];
    let mut bit_identical = true;
    for rep in 0..reps {
        // Each rep starts at a different thread count, so no count always
        // runs first (or right after the oversubscribed 8-thread run).
        for i in (0..THREADS.len()).map(|j| (j + rep) % THREADS.len()) {
            let threads = THREADS[i];
            let (report, wall) = scenario.run(window, threads);
            wall_secs[i].push(wall);
            if format!("{report:?}") != reference_bytes {
                eprintln!("DIVERGENCE: {name} at {threads} threads differs from 1 thread");
                bit_identical = false;
            }
        }
    }
    let (profiled, profile) = scenario.profile(window);
    // The profiling pass re-runs the exact same simulation; it must land
    // on the same bytes too (profiling only reads event counters).
    if format!("{profiled:?}") != reference_bytes {
        eprintln!("DIVERGENCE: {name} profiled run differs from plain run");
        bit_identical = false;
    }
    ModeResult {
        reference,
        wall_secs,
        bit_identical,
        profile,
    }
}

/// One thread count's point: best-of-reps wall time and the spread
/// between its reps, measured speedup and events/sec, and the
/// critical-path model.
struct Point {
    threads: usize,
    wall_secs: f64,
    /// `(slowest − fastest) / fastest` over the reps: how far this host
    /// moved while the point was measured.
    wall_spread: f64,
    measured_speedup: f64,
    events_per_sec: f64,
    modeled_speedup: f64,
}

fn curve_of(m: &ModeResult) -> Vec<Point> {
    let gateway_items = m.reference.events_processed - m.profile.lane_events;
    let best = |reps: &[f64]| reps.iter().copied().fold(f64::INFINITY, f64::min);
    let one_thread = best(&m.wall_secs[0]);
    THREADS
        .iter()
        .zip(&m.wall_secs)
        .map(|(&threads, reps)| {
            let wall_secs = best(reps);
            let worst = reps.iter().copied().fold(0.0, f64::max);
            Point {
                threads,
                wall_secs,
                wall_spread: (worst - wall_secs) / wall_secs,
                measured_speedup: one_thread / wall_secs,
                events_per_sec: m.reference.events_processed as f64 / wall_secs,
                modeled_speedup: m.profile.modeled_speedup(threads, gateway_items),
            }
        })
        .collect()
}

fn main() {
    let opts = paris_bench::Opts::from_args(67, &[]);
    let duration_secs = opts.pick(1.0, 0.4, 0.05);
    let reps = opts.pick(15, 9, 1);
    let scenario = Scenario::new(duration_secs, opts.seed);
    println!(
        "megacluster: {} shards x {} GPUs (+{} pool), {:.0} qps offered for {:.2} s ({} queries)",
        scenario.shards,
        scenario.gpus_per_shard,
        scenario.pool_gpus,
        scenario.offered_qps,
        scenario.duration_secs,
        scenario.trace.len(),
    );

    let per_event = verify_mode(&scenario, "per_event", SyncWindow::PerEvent, reps);
    let lookahead_width = SimDuration::from_nanos((LOOKAHEAD_MS * 1e6) as u64);
    let lookahead = verify_mode(
        &scenario,
        "lookahead",
        SyncWindow::Lookahead(lookahead_width),
        reps,
    );

    let parallel_bit_identical = per_event.bit_identical && lookahead.bit_identical;
    assert!(
        parallel_bit_identical,
        "invariant 11 violated: thread count changed a report"
    );

    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let pe_curve = curve_of(&per_event);
    let la_curve = curve_of(&lookahead);
    // The headline: measured lookahead speedup at the largest profiled
    // thread count the host has cores for.
    let headline = la_curve
        .iter()
        .rfind(|p| p.threads <= host_cores)
        .expect("the 1-thread point always qualifies");

    let rows: Vec<Vec<String>> = pe_curve
        .iter()
        .zip(&la_curve)
        .map(|(pe, la)| {
            vec![
                pe.threads.to_string(),
                format!("{:.1}", pe.wall_secs * 1e3),
                format!("{:.2}x", pe.measured_speedup),
                format!("{:.1}", la.wall_secs * 1e3),
                format!("{:.0}%", la.wall_spread * 1e2),
                format!("{:.2}x", la.measured_speedup),
                format!("{:.2}x", la.modeled_speedup),
            ]
        })
        .collect();
    paris_bench::print_table(
        &format!(
            "measured wall clock vs lane threads (best of {reps}; host has {host_cores} core(s))"
        ),
        &[
            "threads",
            "per-event ms",
            "per-event speedup",
            "lookahead ms",
            "lookahead spread",
            "lookahead speedup",
            "lookahead modeled",
        ],
        &rows,
    );
    println!(
        "\nbit-identical across threads {{1,2,4,8}}: {parallel_bit_identical} \
         (per-event and lookahead modes, Debug-byte equality)"
    );
    println!(
        "lookahead measured speedup at {} thread(s): {:.2}x \
         ({} windows, {} lane events, {} gateway items)",
        headline.threads,
        headline.measured_speedup,
        lookahead.profile.windows,
        lookahead.profile.lane_events,
        lookahead.reference.events_processed - lookahead.profile.lane_events,
    );
    if !opts.smoke {
        assert!(
            scenario.offered_qps >= 100_000.0,
            "megacluster scenario must offer 100k+ qps, got {:.0}",
            scenario.offered_qps
        );
        // Only lookahead spreads lanes over threads; the per-event curve
        // runs the same serial code at every count.
        let one = &la_curve[0];
        for p in la_curve.iter().filter(|p| p.threads <= host_cores) {
            assert!(
                p.wall_secs <= 1.1 * one.wall_secs,
                "lookahead at {} threads took {:.4} s (rep spread {:.0}%), more than 1.1x \
                 the 1-thread {:.4} s (rep spread {:.0}%)",
                p.threads,
                p.wall_secs,
                p.wall_spread * 1e2,
                one.wall_secs,
                one.wall_spread * 1e2,
            );
        }
    }

    let mode_json = |m: &ModeResult, curve: &[Point]| {
        let points = curve.iter().map(|p| {
            Obj::new()
                .field("threads", p.threads)
                .field("wall_secs", fixed(p.wall_secs, 4))
                .field("wall_spread", fixed(p.wall_spread, 4))
                .field("measured_speedup", fixed(p.measured_speedup, 4))
                .field("events_per_sec", fixed(p.events_per_sec, 0))
                .field("modeled_speedup", fixed(p.modeled_speedup, 4))
        });
        Obj::new()
            .field("bit_identical", m.bit_identical)
            .field("completed", m.reference.completed())
            .field("achieved_qps", fixed(m.reference.achieved_qps, 1))
            .field("events_processed", m.reference.events_processed)
            .field("windows", m.profile.windows)
            .field("lane_events", m.profile.lane_events)
            .field("curve", Json::list(points))
    };
    let headline = Obj::new()
        .field("threads", headline.threads)
        .field("speedup", fixed(headline.measured_speedup, 4));
    let json = Obj::new()
        .field("schema", "bench_megacluster/v3")
        .field("model", "mobilenet_v1")
        .field("shards", scenario.shards)
        .field("gpus_per_shard", scenario.gpus_per_shard)
        .field("serving_gpus", scenario.shards * scenario.gpus_per_shard)
        .field("pool_gpus", scenario.pool_gpus)
        .field("seed", scenario.seed)
        .field("duration_secs", scenario.duration_secs)
        .field("offered_qps", fixed(scenario.offered_qps, 1))
        .field("queries", scenario.trace.len())
        .field("faults", scenario.faults.events().len())
        .field("lookahead_ms", LOOKAHEAD_MS)
        .field("thread_counts", Json::list(THREADS))
        .field("host_cores", host_cores)
        .field("reps", reps)
        .field(
            "timing_basis",
            "wall clock on this host, best of reps per thread count (interleaved, rotating \
             which count runs first); wall_spread = (slowest - fastest) / fastest rep; \
             measured_speedup = 1-thread wall / wall; modeled_speedup is the \
             conservative-window critical-path model (lane events per window bucketed by \
             the pool's contiguous chunks), listed for reference",
        )
        .field("parallel_bit_identical", parallel_bit_identical)
        .field("lookahead_measured_speedup", headline)
        .field("per_event", mode_json(&per_event, &pe_curve))
        .field("lookahead", mode_json(&lookahead, &la_curve))
        .render();
    std::fs::write("BENCH_megacluster.json", json).expect("write BENCH_megacluster.json");
    println!("\nwrote BENCH_megacluster.json");
}
