//! `trace_report` — the query-lifecycle flight-recorder analyzer.
//!
//! Re-runs the resilience rack scenario (surge + correlated rack outage,
//! brownout shedding) with the recorder attached and prints, from the
//! merged trace alone:
//!
//! - the **exact latency breakdown** per query class — frontend wait,
//!   plain queue wait, reconfig-downtime wait, clean service, degrade
//!   inflation, service noise — components that sum to the measured
//!   end-to-end latency in integer nanoseconds with no residual;
//! - **per-shard utilization timelines** on the metric registry's fixed
//!   grid: busy-GPC fraction and outstanding queries per 250 ms window,
//!   rendered as digit strips (`0`–`9` ≙ 0–100 %);
//! - the **admission ledger** (offered = routed + shed) and lifecycle
//!   conservation check.
//!
//! Optional sections and exports of the same trace:
//!
//! - `--slo` — evaluate the default burn-rate SLOs (premium 95 % /
//!   batch 50 % availability) on the registry, print the deterministic
//!   alert log plus each fired alert's causal tail attribution (ranked
//!   causes summing to the worst window's p99 excess with zero
//!   residual), and annotate the `--trace` export with alert rows;
//! - `--metrics <path>` — dump every registry series: `.csv` extension
//!   writes `series,bin,t_ns,value` rows, anything else one JSONL
//!   object per series;
//! - `--trace <path>` — Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto (with SLO alert rows under `--slo`);
//! - `--jsonl <path>` — one JSON record per line in global
//!   `(time, key, lane, seq)` order, for ad-hoc scripting.
//!
//! Usage: `cargo run --release --bin trace_report [--quick] [--smoke] \
//!          [--seed N] [--slo] [--metrics out.jsonl|out.csv] \
//!          [--trace out.trace.json] [--jsonl out.jsonl]`

use paris_bench::scenarios::{
    alert_trace_json, mobilenet_table, print_attributions, run_plan, RackScenario,
};
use paris_bench::{flag, print_table};
use paris_elsa::obs::{
    analyze, attribute_alerts, check_conservation, chrome_trace_json, evaluate_slos, jsonl,
    metrics_csv, metrics_jsonl, MetricRegistry,
};
use paris_elsa::prelude::*;

/// Grid width of the utilization timelines (matches the faults crate's
/// degraded-window and the trajectory benches' dip window).
const WINDOW_NS: u64 = 250_000_000;

/// Renders a `[0, 1]` series as one digit per window (`9` ≙ ≥ 90 %).
fn digit_strip(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| {
            let d = (v.clamp(0.0, 1.0) * 10.0) as u32;
            char::from_digit(d.min(9), 10).expect("single digit")
        })
        .collect()
}

fn main() {
    let opts = paris_bench::Opts::from_args(
        41,
        &[
            "--slo",
            "--metrics <path>",
            "--trace <path>",
            "--jsonl <path>",
        ],
    );
    let slo_on = std::env::args().any(|a| a == "--slo");
    let (metrics_path, trace_path, jsonl_path) = (
        flag::<String>("metrics"),
        flag::<String>("trace"),
        flag::<String>("jsonl"),
    );
    let duration_s = opts.pick(8.0, 4.0, 1.5);
    let table = mobilenet_table();
    let rack = RackScenario::new(duration_s, opts.seed, &table);
    let trace_in = rack.trace();
    let plan = rack.plan();
    let cluster = rack.cluster(true);

    let spec = RunSpec::new(ReportDetail::Summary).with_obs(ObsRequest::traced());
    let (report, trace, _) = run_plan(&cluster, &trace_in, &plan, spec);
    let trace = trace.expect("tracing was requested");

    // -- Exact per-class latency breakdown ---------------------------------
    let analysis = analyze(&trace);
    let rows: Vec<Vec<String>> = analysis
        .classes
        .iter()
        .map(|c| {
            let n = c.completed.max(1) as f64;
            let ms = |v: u128| format!("{:.2}", v as f64 / n / 1e6);
            vec![
                match c.group {
                    0 => "premium".to_string(),
                    1 => "batch".to_string(),
                    g => format!("class{g}"),
                },
                c.completed.to_string(),
                ms(c.frontend_ns),
                ms(c.queue_ns),
                ms(c.reconfig_wait_ns),
                ms(c.service_clean_ns),
                ms(c.degrade_inflation_ns),
                format!("{:.2}", c.noise_delta_ns as f64 / n / 1e6),
                ms(c.total_latency_ns),
                (c.components_sum() == c.total_latency_ns as i128).to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "mean latency breakdown (ms/query), rack outage [{:.1}s, {:.1}s] of {duration_s}s, \
             {} trace records",
            rack.outage.0,
            rack.outage.1,
            trace.len()
        ),
        &[
            "class", "done", "frontend", "queue", "reconfig", "service", "inflate", "noise",
            "total", "exact",
        ],
        &rows,
    );

    // -- Per-shard utilization timelines -----------------------------------
    let gpcs_per_shard: Vec<u32> = rack.shard_gpus.iter().map(|&g| (g * 7) as u32).collect();
    let registry = MetricRegistry::from_trace(&trace, WINDOW_NS, &gpcs_per_shard);
    println!(
        "\n=== utilization timelines ({} ms windows, one digit per window, 9 = >=90%) ===",
        WINDOW_NS / 1_000_000
    );
    for (s, &gpus) in rack.shard_gpus.iter().enumerate() {
        if let Some(busy) = registry.get(&format!("shard{s}/busy_gpc_fraction")) {
            println!(
                "shard{s} busy gpc ({gpus} GPUs):  {}",
                digit_strip(&busy.values)
            );
        }
    }
    let peak_outstanding = registry
        .series()
        .iter()
        .filter(|s| s.name.ends_with("/outstanding"))
        .flat_map(|s| s.values.iter().copied())
        .fold(0.0f64, f64::max)
        .max(1.0);
    for s in 0..rack.shard_gpus.len() {
        if let Some(out) = registry.get(&format!("shard{s}/outstanding")) {
            let scaled: Vec<f64> = out.values.iter().map(|v| v / peak_outstanding).collect();
            println!(
                "shard{s} outstanding/{peak_outstanding:<4.0}: {}",
                digit_strip(&scaled)
            );
        }
    }
    if let Some(shed) = registry.get("fleet/shed_rate") {
        println!("fleet shed rate:          {}", digit_strip(&shed.values));
    }

    // -- Admission ledger + conservation -----------------------------------
    let stats = check_conservation(&trace).expect("flight-recorder conservation");
    println!(
        "\nadmission: offered {} = routed {} + shed {}; \
         lifecycle: arrivals {} = completed {} (conserved)",
        stats.offered, stats.routed, stats.shed, stats.arrivals, stats.completed
    );
    println!(
        "availability: base {:.4} effective {:.4}; goodput {:.0} q/s",
        report.base_availability,
        report.effective_availability,
        report.goodput_qps()
    );

    // -- SLO burn-rate alerts + causal tail attribution (--slo) ------------
    let mut alerts = Vec::new();
    let specs = RackScenario::slos();
    if slo_on {
        alerts = evaluate_slos(&registry, &specs);
        let alert_rows: Vec<Vec<String>> = alerts
            .iter()
            .map(|a| {
                vec![
                    specs[a.slo].name.clone(),
                    a.group.to_string(),
                    a.fired_bin.to_string(),
                    a.resolved_bin
                        .map_or_else(|| "-".to_string(), |b| b.to_string()),
                    a.worst_bin.to_string(),
                    format!("{:.2}", a.burn_short),
                    format!("{:.2}", a.burn_long),
                ]
            })
            .collect();
        print_table(
            &format!(
                "SLO burn-rate alert log ({} ms bins, deterministic)",
                WINDOW_NS / 1_000_000
            ),
            &[
                "slo",
                "class",
                "fired",
                "resolved",
                "worst",
                "burn-short",
                "burn-long",
            ],
            &alert_rows,
        );
        let attributions = attribute_alerts(&trace, WINDOW_NS, &alerts);
        print_attributions(
            "causal tail attribution (per fired alert's worst window, zero residual)",
            &attributions,
        );
    }

    // -- Optional exports --------------------------------------------------
    if let Some(path) = metrics_path {
        let dump = if path.ends_with(".csv") {
            metrics_csv(&registry)
        } else {
            metrics_jsonl(&registry)
        };
        std::fs::write(&path, dump).expect("write metrics dump");
        println!("wrote {path}");
    }
    if let Some(path) = trace_path {
        let body = if slo_on {
            alert_trace_json(&trace, &alerts, &specs, WINDOW_NS)
        } else {
            chrome_trace_json(&trace)
        };
        std::fs::write(&path, body).expect("write chrome trace");
        println!("wrote {path}");
    }
    if let Some(path) = jsonl_path {
        std::fs::write(&path, jsonl(&trace)).expect("write jsonl");
        println!("wrote {path}");
    }
}
