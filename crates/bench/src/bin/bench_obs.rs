//! `bench_obs` — observability overhead and invariant-12/13 enforcement,
//! behind `BENCH_obs.json`.
//!
//! Runs the resilience rack scenario (surge + correlated rack outage, with
//! brownout shedding — the workload richest in trace event kinds: sheds,
//! faults, loans, reconfig steps) and checks, in order:
//!
//! 1. **Zero observer effect (invariant 12).** The traced run's
//!    [`FaultReport`] must be identical — compared through `Debug`, which
//!    covers every field including per-query records — to the untraced
//!    run's, at 1 and 4 worker threads.
//! 2. **Trace thread-invariance.** The merged trace's JSONL rendering is
//!    byte-identical at 1, 2 and 4 threads (the trace inherits
//!    invariant 11).
//! 3. **Disabled path is allocation-free.** A counting global allocator
//!    watches a million disabled-hook iterations (`Option::None` guard,
//!    exactly the engine's untraced path) allocate nothing, and two
//!    untraced engine runs allocate the exact same count.
//! 4. **Recorder and online-plane overhead.** Untraced vs traced vs
//!    online wall time — the median ratio over many back-to-back rep
//!    triples — as events/sec over the recorded event count. Measured on
//!    a 32-shard megacluster-density fleet under `Lookahead` windowing
//!    (the sharded engine's production mode), fault-free so the number
//!    isolates observability from recovery work. At this density the
//!    retained trace outgrows the cache hierarchy and the recorder pays
//!    its real memory cost; the enforced relation is that the streaming
//!    plane stays cheaper — `online_overhead_pct ≤ traced_overhead_pct`
//!    (CI guards it). The recorder itself has two bounds: the retained
//!    trace's bytes per served query, from the counting allocator, at
//!    most [`TRACE_BYTES_PER_QUERY_BOUND`] in every mode (deterministic;
//!    CI re-checks it from the artifact), and a wall-clock overhead
//!    target, [`TRACED_OVERHEAD_TARGET_PCT`], asserted in full mode only.
//! 5. **Exact breakdown.** Per-class components from
//!    [`paris_elsa::obs::analyze()`] must sum to the measured end-to-end
//!    latency with no residual, and the lifecycle must conserve
//!    (`offered = routed + shed`, every arrival completes exactly once).
//! 6. **Online plane ≡ trace oracle (invariant 13).** The live
//!    [`MetricRegistry`] streamed by the instrumented rack run equals
//!    `MetricRegistry::from_trace` of the same run's trace byte for byte,
//!    at 1 and 4 threads, and the registry itself is thread-invariant.
//!    Peak live allocator bytes under the online plane must stay strictly
//!    below trace retention's and within 5 % of the untraced run's.
//! 7. **SLO alerts + causal attribution.** The rack outage must fire at
//!    least one deterministic burn-rate alert (identical log at 1 and 4
//!    threads), and each alert's worst window attributes its p99 excess
//!    to ranked causes that sum with **zero residual**.
//!
//! Also writes the merged trace as `BENCH_obs.trace.json` (Chrome
//! `trace_event` JSON, including SLO alert rows — load it in
//! `chrome://tracing` or Perfetto).
//!
//! Usage: `cargo run --release --bin bench_obs [--quick] [--smoke] [--seed N]`
//!
//! `--smoke` runs a tiny trace — CI uses it to catch bench regressions;
//! the numbers it writes are not comparable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use paris_bench::json::{fixed, Json, Obj};
use paris_bench::print_table;
use paris_bench::scenarios::{
    alert_trace_json, mobilenet_fleet, mobilenet_table, print_attributions, run_plan, steady_trace,
    RackScenario,
};
use paris_elsa::cluster::Cluster;
use paris_elsa::faults::{FaultPlan, FaultReport};
use paris_elsa::obs::{
    analyze, attribute_alerts, check_conservation, evaluate_slos, jsonl, MetricRegistry, QueryTrace,
};
use paris_elsa::prelude::*;

/// Counts every allocation, and tracks live/peak heap bytes, so the
/// disabled tracing path can be asserted allocation-free and the online
/// plane's peak footprint compared against trace retention's.
/// Deallocations only shrink the live counter — the checks need "how many
/// allocations happened" and "how high did live bytes get" between two
/// points.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Resets the peak-bytes watermark to the current live bytes and returns
/// the live level — call before a run whose peak is being measured.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// A million iterations of the exact shape of an engine tracing hook with
/// the recorder detached; returns how many allocations they performed.
fn disabled_hook_allocs() -> u64 {
    use paris_elsa::obs::{TraceEvent, TraceSink};
    let mut sink: Option<FlightRecorder> = std::hint::black_box(None);
    let before = allocs();
    for i in 0..1_000_000u64 {
        if let Some(tr) = sink.as_mut() {
            tr.record(SimTime::from_nanos(i), i, TraceEvent::Requeue { query: i });
        }
    }
    std::hint::black_box(&sink);
    allocs() - before
}

/// The overhead workload: a 32-shard, 4-GPU-each, two-model JSQ fleet at
/// 40 % of capacity — megacluster density, so a retained trace outgrows
/// the last-level cache and the recorder pays its real memory cost, the
/// regime the online-vs-traced comparison is about.
fn dense_fleet(
    table: &ProfileTable,
    duration_s: f64,
    seed: u64,
) -> (Cluster, Vec<TaggedQuerySpec>) {
    use paris_elsa::cluster::RouterPolicy;
    let fleet = mobilenet_fleet(table, &["m0", "m1"], &[4; 32]);
    let capacity: f64 = fleet.iter().map(MultiModelServer::capacity_hint_qps).sum();
    let cluster = Cluster::new(fleet, RouterPolicy::JoinShortestQueue);
    (cluster, steady_trace(duration_s, 0.4 * capacity, 2, seed))
}

/// The retained trace's bytes per served query on the dense fleet, from
/// the counting allocator: deterministic, so asserted in every mode. With
/// 48-byte spans it reads about 84 in every mode (99 with 64-byte ones).
const TRACE_BYTES_PER_QUERY_BOUND: f64 = 92.0;

/// Ceiling on `traced_overhead_pct`, asserted in full mode only: a wall
/// clock ratio. Ten full runs on a 2-vCPU host read 47.1–52.8 % (median
/// 48.4 %); the target leaves about seven points for host noise.
const TRACED_OVERHEAD_TARGET_PCT: f64 = 60.0;

fn main() {
    let opts = paris_bench::Opts::from_args(41, &[]);
    let duration_s = opts.pick(8.0, 4.0, 1.5);
    let table = mobilenet_table();
    let rack = RackScenario::new(duration_s, opts.seed, &table);
    let trace_in = rack.trace();
    let plan = rack.plan();
    let rack_run = |threads: usize, obs: ObsRequest| {
        let spec = RunSpec::new(ReportDetail::Full)
            .with_window(SyncWindow::PerEvent, threads)
            .with_obs(obs);
        run_plan(&rack.cluster(true), &trace_in, &plan, spec)
    };
    let untraced = |threads: usize| -> FaultReport { rack_run(threads, ObsRequest::OFF).0 };
    let traced = |threads: usize| -> (FaultReport, QueryTrace) {
        let (report, trace, _) = rack_run(threads, ObsRequest::traced());
        (report, trace.expect("tracing was requested"))
    };

    // -- 1. Zero observer effect (invariant 12), threads 1 and 4 ----------
    let alloc_mark = allocs();
    let base1 = untraced(1);
    let untraced_allocs_a = allocs() - alloc_mark;
    let (rep1, trace1) = traced(1);
    let zero_t1 = format!("{base1:?}") == format!("{rep1:?}");
    let base4 = untraced(4);
    let (rep4, trace4) = traced(4);
    let zero_t4 = format!("{base4:?}") == format!("{rep4:?}");
    let zero_observer = zero_t1 && zero_t4;
    assert!(
        zero_observer,
        "invariant 12 violated: traced report differs from untraced \
         (threads 1: {zero_t1}, threads 4: {zero_t4})"
    );

    // -- 2. Trace thread-invariance, threads {1, 2, 4} ---------------------
    let (_, trace2) = traced(2);
    let lines1 = jsonl(&trace1);
    let thread_invariant = lines1 == jsonl(&trace2) && lines1 == jsonl(&trace4);
    assert!(
        thread_invariant,
        "merged trace must be byte-identical at 1, 2 and 4 threads"
    );

    // -- 3. Disabled path allocation-free ----------------------------------
    let hook_allocs = disabled_hook_allocs();
    let alloc_mark = allocs();
    let base_again = untraced(1);
    let untraced_allocs_b = allocs() - alloc_mark;
    assert_eq!(
        format!("{base_again:?}"),
        format!("{base1:?}"),
        "untraced rerun must reproduce the same report"
    );
    let alloc_free = hook_allocs == 0 && untraced_allocs_a == untraced_allocs_b;
    assert!(
        alloc_free,
        "disabled tracing path must not allocate \
         (hook allocs {hook_allocs}, run allocs {untraced_allocs_a} vs {untraced_allocs_b})"
    );

    // -- 4. Observability overhead, median wall time on the dense fleet ----
    // One rep is only tens of milliseconds, so timing needs many reps to
    // shed scheduler noise on a shared host. Each rep times an untraced,
    // a traced, and an online run back to back; each overhead is the
    // **median rep's ratio against its own untraced half**: the grouping
    // cancels whole-process slowdowns (a background burst slows all
    // thirds of a rep), and the median ignores outlier reps without the
    // min's optimistic bias.
    let online_window_ns: u64 = 100_000_000;
    let dense_duration_s = opts.pick(2.0, 1.5, 0.5);
    let reps = opts.pick(41, 15, 7);
    let (fleet, fleet_trace) = dense_fleet(&table, dense_duration_s, opts.seed);
    let no_faults = FaultPlan::new();
    let window = SyncWindow::Lookahead(SimDuration::from_millis(2));
    let fleet_run = |obs: ObsRequest| {
        let spec = RunSpec::new(ReportDetail::Summary)
            .with_window(window, 1)
            .with_obs(obs);
        run_plan(&fleet, &fleet_trace, &no_faults, spec)
    };
    let mut triples: Vec<(f64, f64, f64)> = Vec::with_capacity(reps);
    let (mut events, mut served, mut trace_bytes) = (0, 0, 0);
    for _ in 0..reps {
        let t0 = Instant::now();
        let (report, ..) = fleet_run(ObsRequest::OFF);
        let rep_untraced = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (online_report, _, fleet_registry) = fleet_run(ObsRequest::online(online_window_ns));
        let rep_online = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (traced_report, fleet_recorded, _) = fleet_run(ObsRequest::traced());
        let fleet_recorded = fleet_recorded.expect("tracing was requested");
        let rep_traced = t0.elapsed().as_secs_f64();
        triples.push((rep_untraced, rep_traced, rep_online));
        events = fleet_recorded.len();
        served = traced_report.cluster.completed();
        let live = live_bytes();
        drop(fleet_recorded);
        trace_bytes = live - live_bytes();
        drop((report, traced_report, online_report, fleet_registry));
    }
    triples.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (untraced_secs, traced_secs, _) = triples[triples.len() / 2];
    let overhead_pct = (traced_secs / untraced_secs - 1.0).max(0.0) * 100.0;
    triples.sort_by(|a, b| (a.2 / a.0).total_cmp(&(b.2 / b.0)));
    let (online_base_secs, _, online_secs) = triples[triples.len() / 2];
    let online_overhead_pct = (online_secs / online_base_secs - 1.0).max(0.0) * 100.0;
    let events_per_sec_traced = events as f64 / traced_secs;
    let events_per_sec_untraced = events as f64 / untraced_secs;
    let online_cheaper_than_trace = online_overhead_pct <= overhead_pct;
    let trace_bytes_per_query = trace_bytes as f64 / served.max(1) as f64;
    assert!(
        trace_bytes_per_query <= TRACE_BYTES_PER_QUERY_BOUND,
        "the retained trace must cost at most {TRACE_BYTES_PER_QUERY_BOUND} bytes per served \
         query ({trace_bytes} bytes for {served} queries)"
    );
    let overhead_within_target = overhead_pct <= TRACED_OVERHEAD_TARGET_PCT;
    if opts.pick(true, false, false) {
        assert!(
            overhead_within_target,
            "recorder overhead {overhead_pct:.1}% exceeds its \
             {TRACED_OVERHEAD_TARGET_PCT}% target"
        );
    }

    // Peak live-heap comparison, one dedicated run each so the watermark
    // isolates a single run type: the online plane keeps a few words per
    // (series, window) while the recorder retains every event, so its
    // peak must sit strictly below trace retention's and barely above the
    // untraced run's.
    let live = reset_peak();
    let keep = untraced(1);
    let peak_untraced_bytes = peak_bytes() - live;
    drop(keep);
    let live = reset_peak();
    let keep = traced(1);
    let peak_traced_bytes = peak_bytes() - live;
    drop(keep);
    let live = reset_peak();
    let keep = rack_run(1, ObsRequest::online(online_window_ns));
    let peak_online_bytes = peak_bytes() - live;
    drop(keep);
    let online_peak_below_trace = peak_online_bytes < peak_traced_bytes;
    assert!(
        online_peak_below_trace,
        "online plane must peak strictly below trace retention \
         ({peak_online_bytes} vs {peak_traced_bytes} bytes)"
    );
    assert!(
        peak_online_bytes as f64 <= 1.05 * peak_untraced_bytes as f64,
        "online plane must peak within 5 % of the untraced run \
         ({peak_online_bytes} vs {peak_untraced_bytes} bytes)"
    );

    // -- 5. Exact breakdown + conservation ---------------------------------
    let analysis = analyze(&trace1);
    for c in &analysis.classes {
        assert_eq!(
            c.components_sum(),
            c.total_latency_ns as i128,
            "class {} breakdown must sum to end-to-end latency exactly",
            c.group
        );
    }
    let conservation = check_conservation(&trace1).expect("flight-recorder conservation");
    let breakdown = rep1.cluster.breakdown();

    // -- 6. Online plane ≡ trace oracle (invariant 13), threads {1, 4} -----
    let lane_gpcs = rack.cluster(true).lane_gpcs();
    let instrumented = |threads: usize| {
        let (report, trace, registry) =
            rack_run(threads, ObsRequest::instrumented(online_window_ns));
        (report, trace.expect("traced"), registry.expect("online"))
    };
    let (irep1, itrace1, ireg1) = instrumented(1);
    let (_, itrace4, ireg4) = instrumented(4);
    let online_zero_observer = format!("{irep1:?}") == format!("{base1:?}");
    assert!(
        online_zero_observer,
        "invariant 12 violated: instrumented report differs from untraced"
    );
    let oracle1 = MetricRegistry::from_trace(&itrace1, online_window_ns, &lane_gpcs);
    let oracle4 = MetricRegistry::from_trace(&itrace4, online_window_ns, &lane_gpcs);
    let online_matches_oracle = ireg1 == oracle1 && ireg4 == oracle4 && ireg1 == ireg4;
    assert!(
        online_matches_oracle,
        "invariant 13 violated: online registry must equal MetricRegistry::from_trace \
         byte-for-byte at 1 and 4 threads \
         (t1 == oracle: {}, t4 == oracle: {}, t1 == t4: {})",
        ireg1 == oracle1,
        ireg4 == oracle4,
        ireg1 == ireg4,
    );

    // -- 7. SLO burn-rate alerts + causal tail attribution -----------------
    let slo_specs = RackScenario::slos();
    let alerts = evaluate_slos(&ireg1, &slo_specs);
    let alerts4 = evaluate_slos(&ireg4, &slo_specs);
    let alerts_deterministic = format!("{alerts:?}") == format!("{alerts4:?}");
    assert!(
        alerts_deterministic,
        "alert log diverged between 1 and 4 threads"
    );
    assert!(
        !alerts.is_empty(),
        "the rack outage must fire at least one burn-rate alert"
    );
    let attributions = attribute_alerts(&itrace1, online_window_ns, &alerts);
    assert!(
        !attributions.is_empty(),
        "fired alerts must have attributable windows"
    );
    let attribution_zero_residual = attributions.iter().all(|a| a.causes_sum() == a.excess_ns);
    assert!(
        attribution_zero_residual,
        "cause shares must sum to the window p99 excess exactly"
    );

    let rows: Vec<Vec<String>> = analysis
        .classes
        .iter()
        .map(|c| {
            let ms = |v: u128| format!("{:.1}", v as f64 / 1e6);
            vec![
                c.group.to_string(),
                c.completed.to_string(),
                ms(c.frontend_ns),
                ms(c.queue_ns),
                ms(c.reconfig_wait_ns),
                ms(c.service_clean_ns),
                format!("{:.1}", c.degrade_inflation_ns as f64 / 1e6),
                ms(c.total_latency_ns),
            ]
        })
        .collect();
    print_table(
        &format!(
            "exact latency breakdown (Σ ms per class), rack scenario {duration_s}s, \
             {} events",
            trace1.len()
        ),
        &[
            "class", "done", "frontend", "queue", "reconfig", "service", "inflate", "total",
        ],
        &rows,
    );
    print_attributions(
        "causal tail attribution (per fired alert's worst window)",
        &attributions,
    );
    println!(
        "\nzero observer effect:      {zero_observer} (threads 1 & 4)\n\
         trace thread-invariant:    {thread_invariant} (threads 1, 2, 4)\n\
         disabled path alloc-free:  {alloc_free}\n\
         recorder overhead:         {overhead_pct:.2}% on the dense fleet \
         ({events_per_sec_untraced:.0} -> {events_per_sec_traced:.0} events/s, {events} events)\n\
         recorder footprint:        {trace_bytes_per_query:.1} bytes per served query \
         (bound {TRACE_BYTES_PER_QUERY_BOUND})\n\
         online overhead:           {online_overhead_pct:.2}% — cheaper than trace retention: \
         {online_cheaper_than_trace} (peak heap {peak_online_bytes} \
         vs traced {peak_traced_bytes} bytes)\n\
         online matches oracle:     {online_matches_oracle} (invariant 13, threads 1 & 4)\n\
         alerts:                    {} fired, deterministic {alerts_deterministic}, \
         attribution residual 0: {attribution_zero_residual}\n\
         conservation:              offered {} = routed {} + shed {}, \
         arrivals {} = completed {}",
        alerts.len(),
        conservation.offered,
        conservation.routed,
        conservation.shed,
        conservation.arrivals,
        conservation.completed,
    );

    let online = Obj::new()
        .field("window_ns", online_window_ns)
        .field("online_matches_oracle", online_matches_oracle)
        .field("online_zero_observer", online_zero_observer)
        .field("online_overhead_pct", fixed(online_overhead_pct, 3))
        .field("online_cheaper_than_trace", online_cheaper_than_trace)
        .field("online_secs", fixed(online_secs, 6))
        .field("online_base_secs", fixed(online_base_secs, 6))
        .field("peak_bytes_untraced", peak_untraced_bytes)
        .field("peak_bytes_traced", peak_traced_bytes)
        .field("peak_bytes_online", peak_online_bytes)
        .field("online_peak_below_trace", online_peak_below_trace);
    let alert_rows = alerts.iter().zip(&attributions).map(|(a, attr)| {
        let causes = attr.causes.iter().filter(|c| c.share_ns != 0).map(|c| {
            Obj::new()
                .field("cause", c.cause.to_string().as_str())
                .field("share_ns", c.share_ns)
        });
        Obj::new()
            .field("slo", a.slo)
            .field("group", a.group)
            .field("fired_bin", a.fired_bin)
            .field("resolved_bin", a.resolved_bin.map_or(-1i64, |b| b as i64))
            .field("worst_bin", a.worst_bin)
            .field("burn_short", fixed(a.burn_short, 3))
            .field("p99_latency_ns", attr.p99_latency_ns)
            .field("excess_ns", attr.excess_ns)
            .field("causes", Json::list(causes))
    });
    let slo = Obj::new()
        .field("alerts_fired", alerts.len())
        .field("alerts_deterministic", alerts_deterministic)
        .field("attribution_zero_residual", attribution_zero_residual)
        .field("alerts", Json::rows(alert_rows));
    let recorder = Obj::new()
        .field("workload", "32x4gpu-jsq-lookahead2ms")
        .field("workload_secs", dense_duration_s)
        .field("events", events)
        .field("events_per_sec_traced", fixed(events_per_sec_traced, 0))
        .field("events_per_sec_untraced", fixed(events_per_sec_untraced, 0))
        .field("untraced_secs", fixed(untraced_secs, 6))
        .field("traced_secs", fixed(traced_secs, 6))
        .field("traced_overhead_pct", fixed(overhead_pct, 3))
        .field("overhead_target_pct", fixed(TRACED_OVERHEAD_TARGET_PCT, 1))
        .field("overhead_within_target", overhead_within_target)
        .field("served_queries", served)
        .field("trace_bytes", trace_bytes)
        .field("trace_bytes_per_query", fixed(trace_bytes_per_query, 2))
        .field(
            "trace_bytes_per_query_bound",
            fixed(TRACE_BYTES_PER_QUERY_BOUND, 1),
        );
    let breakdown = Obj::new()
        .field("queue_ns_p50", breakdown.queue_ns_p50)
        .field("queue_ns_p99", breakdown.queue_ns_p99)
        .field("service_ns_p50", breakdown.service_ns_p50)
        .field("service_ns_p99", breakdown.service_ns_p99)
        .field("reconfig_wait_ns_total", breakdown.reconfig_wait_ns_total);
    let classes = analysis.classes.iter().map(|c| {
        Obj::new()
            .field("group", c.group)
            .field("completed", c.completed)
            .field("frontend_ns", c.frontend_ns)
            .field("queue_ns", c.queue_ns)
            .field("reconfig_wait_ns", c.reconfig_wait_ns)
            .field("service_clean_ns", c.service_clean_ns)
            .field("degrade_inflation_ns", c.degrade_inflation_ns)
            .field("total_latency_ns", c.total_latency_ns)
            .field(
                "sum_exact",
                c.components_sum() == c.total_latency_ns as i128,
            )
    });
    let conservation = Obj::new()
        .field("offered", conservation.offered)
        .field("routed", conservation.routed)
        .field("shed", conservation.shed)
        .field("arrivals", conservation.arrivals)
        .field("completed", conservation.completed);
    let json = Obj::new()
        .field("schema", "bench_obs/v3")
        .field("model", "mobilenet_v1")
        .field("duration_secs", duration_s)
        .field("seed", opts.seed)
        .field("zero_observer_effect", zero_observer)
        .field("trace_thread_invariant", thread_invariant)
        .field("disabled_path_alloc_free", alloc_free)
        .field("online", Json::Block(online))
        .field("slo", Json::Block(slo))
        .field("recorder", Json::Block(recorder))
        .field("breakdown", Json::Block(breakdown))
        .field("classes", Json::rows(classes))
        .field("conservation", Json::Block(conservation))
        .render();
    std::fs::write("BENCH_obs.json", json).expect("write BENCH_obs.json");
    let chrome = alert_trace_json(&itrace1, &alerts, &slo_specs, online_window_ns);
    std::fs::write("BENCH_obs.trace.json", chrome).expect("write BENCH_obs.trace.json");
    println!("\nwrote BENCH_obs.json and BENCH_obs.trace.json");
}
