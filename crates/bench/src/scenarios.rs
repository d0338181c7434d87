//! Scenario pieces the benches share: the MobileNet table and shard, the
//! empty-plan identity check, the reconfiguration-dip comparison, and the
//! resilience scenarios — the rack-outage-plus-surge and slow-GPU setups
//! used identically by `bench_resilience` (headline numbers), `bench_obs`
//! (recorder overhead + zero-observer check) and `trace_report` (latency
//! breakdown). One definition, or the binaries silently stop measuring
//! the same workload.
//!
//! Everything here is a pure function of its arguments: moving code in
//! here must not change a single byte of any `BENCH_*.json`.

use paris_elsa::cluster::{Cluster, RouterPolicy, ShedPolicy};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::{FaultPlan, FaultTopology};
use paris_elsa::obs::{
    alert_records, write_alert_rows, write_query_trace, Alert, ChromeTraceWriter, SloSpec,
    WindowAttribution,
};
use paris_elsa::paris::ReconfigMode;
use paris_elsa::prelude::*;

use crate::json::{fixed, Obj};
use crate::print_table;

/// Runs `trace` (unpinned) through `cluster` under `plan`, the rest of the
/// run as `spec` says: the run's availability accounting, plus the trace
/// and registry `spec` asked for.
pub fn run_plan(
    cluster: &Cluster,
    trace: &[TaggedQuerySpec],
    plan: &FaultPlan,
    spec: RunSpec,
) -> (FaultReport, Option<QueryTrace>, Option<MetricRegistry>) {
    let spec = spec.with_faults(plan.compile());
    let run = cluster.run_with(trace.iter().map(|&tq| (None, tq)), &spec);
    let report = FaultReport::new(cluster, plan, run.report);
    (report, run.trace, run.registry)
}

/// Shared model table: MobileNet on A100 MIG slices.
#[must_use]
pub fn mobilenet_table() -> ProfileTable {
    let perf = PerfModel::new(DeviceSpec::a100());
    ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32)
}

/// A shard of `gpus` A100s serving one model per name in `models`, each
/// MobileNet on the paper's batch mix, reporting at `Summary` detail
/// under `config`.
///
/// # Panics
///
/// Panics if the shard's initial plans do not build.
#[must_use]
pub fn mobilenet_shard(
    table: &ProfileTable,
    models: &[&str],
    gpus: usize,
    config: MultiModelConfig,
) -> MultiModelServer {
    let dist = BatchDistribution::paper_default();
    MultiModelServer::new(
        models
            .iter()
            .map(|&name| ModelSpec::new(name, table.clone(), dist.clone()))
            .collect(),
        GpcBudget::new(gpus * 7, gpus),
        config.with_detail(ReportDetail::Summary),
    )
    .expect("shard plan builds")
}

/// One [`mobilenet_shard`] per entry of `shard_gpus`, each serving
/// `models` under the default config.
#[must_use]
pub fn mobilenet_fleet(
    table: &ProfileTable,
    models: &[&str],
    shard_gpus: &[usize],
) -> Vec<MultiModelServer> {
    let shard = |&gpus: &usize| mobilenet_shard(table, models, gpus, MultiModelConfig::new());
    shard_gpus.iter().map(shard).collect()
}

/// One steady phase of `duration_s` seconds: `models` streams of the
/// paper's batch mix at `qps` each.
#[must_use]
pub fn steady_trace(duration_s: f64, qps: f64, models: usize, seed: u64) -> Vec<TaggedQuerySpec> {
    let streams = vec![(qps, BatchDistribution::paper_default()); models];
    MultiTraceGenerator::new(vec![PhaseSpec::new(duration_s, streams)], seed).generate()
}

/// The empty-plan degeneration check: `trace` through `cluster` under an
/// empty [`FaultPlan`] must reproduce the plain run bit for bit — the
/// whole [`ClusterReport`]'s `Debug` text, per-query records included.
/// Returns the no-fault run.
///
/// # Panics
///
/// Panics if the two runs differ.
#[must_use]
pub fn empty_plan_run(cluster: &Cluster, trace: &[TaggedQuerySpec]) -> FaultReport {
    let full = || RunSpec::new(ReportDetail::Full);
    let plain = cluster
        .run_with(trace.iter().map(|&tq| (None, tq)), &full())
        .report;
    let (nofault, ..) = run_plan(cluster, trace, &FaultPlan::new(), full());
    assert!(
        format!("{plain:?}") == format!("{:?}", nofault.cluster),
        "empty FaultPlan must reproduce the plain run bit-for-bit"
    );
    nofault
}

/// Tumbling-window width of the reconfiguration dip, milliseconds.
const DIP_WINDOW_MS: f64 = 250.0;

/// The reconfiguration-dip comparison `bench_multimodel` and
/// `bench_cluster` share: the worst 250 ms-window p99 over the
/// completions that land during a reconfiguration, under `AllAtOnce` and
/// under `Rolling` staging. Whole-run percentiles average the outage
/// away, so the dip is taken at the bench's latency-bounded `max_scale`
/// (at least 0.25), where capacity binds and the spike shows.
///
/// `run(mode, scale)` runs the bench's re-planning config and returns
/// each reconfiguration's `(triggered_ns, completed_ns)` and each
/// completion's `(completed_ns, latency_ns)`. Prints the comparison line
/// and returns the `reconfig_dip` object.
pub fn reconfig_dip<R>(max_scale: f64, run: R) -> Obj
where
    R: Fn(ReconfigMode, f64) -> (Vec<(u64, u64)>, Vec<(u64, u64)>),
{
    let scale = max_scale.max(0.25);
    let dip = |mode| {
        let (transitions, completions) = run(mode, scale);
        transition_dip_p99_ms((DIP_WINDOW_MS * 1e6) as u64, &transitions, &completions)
    };
    let all_at_once = dip(ReconfigMode::AllAtOnce);
    let rolling = dip(ReconfigMode::Rolling);
    let fallback = all_at_once.fallback_whole_run || rolling.fallback_whole_run;
    let ratio = rolling.worst_p99_ms / all_at_once.worst_p99_ms.max(1e-9);
    println!(
        "reconfig dip (worst {DIP_WINDOW_MS:.0} ms-window p99 during re-plans @ {scale:.2}x): \
         all-at-once {:.2} ms, rolling {:.2} ms ({ratio:.2}x{})",
        all_at_once.worst_p99_ms,
        rolling.worst_p99_ms,
        if fallback { ", whole-run fallback" } else { "" }
    );
    Obj::new()
        .field("window_ms", DIP_WINDOW_MS)
        .field("scale", fixed(scale, 4))
        .field(
            "all_at_once_worst_p99_ms",
            fixed(all_at_once.worst_p99_ms, 3),
        )
        .field("rolling_worst_p99_ms", fixed(rolling.worst_p99_ms, 3))
        .field("rolling_vs_all_at_once", fixed(ratio, 4))
        .field("fallback_whole_run", fallback)
}

/// One side of a transition-dip measurement.
struct TransitionDip {
    /// Worst tumbling-window p99, milliseconds.
    worst_p99_ms: f64,
    /// `true` when **no completion landed in a transition interval** (e.g.
    /// a smoke run that never reconfigured) and the statistic is the whole
    /// run's worst window instead: a ratio of one fallback side against
    /// one transition side compares incomparable statistics, so the
    /// `reconfig_dip` object flags it.
    fallback_whole_run: bool,
}

/// The worst `window_ns` tumbling-window p99 over the `completions` that
/// land inside any `[triggered_ns, completed_ns + window_ns]` interval of
/// `transitions`, so the spike a drain/reslice outage causes is not
/// averaged away by the calm rest of the run.
fn transition_dip_p99_ms(
    window_ns: u64,
    transitions: &[(u64, u64)],
    completions: &[(u64, u64)],
) -> TransitionDip {
    let mut tail = WindowedTail::new(window_ns);
    let mut whole_run = WindowedTail::new(window_ns);
    for &(done, latency_ns) in completions {
        whole_run.record(done, latency_ns);
        let in_transition = transitions
            .iter()
            .any(|&(start, end)| done >= start && done <= end + window_ns);
        if in_transition {
            tail.record(done, latency_ns);
        }
    }
    let fallback_whole_run = tail.windows() == 0;
    TransitionDip {
        worst_p99_ms: if fallback_whole_run { whole_run } else { tail }.worst_p99_ms(),
        fallback_whole_run,
    }
}

// ---------------------------------------------------------------------------
// Scenario 1: correlated rack outage + surge, with/without brownout shedding.
// ---------------------------------------------------------------------------

/// The rack scenario's models: premium (class 0) and batch (class 1).
const RACK_MODELS: [&str; 2] = ["premium", "batch"];

/// Correlated rack outage during a load surge: two 3-GPU shards serving a
/// premium (class 0) and a batch (class 1) model, GPU lanes racked
/// pairwise, `rack0` out in the middle of the surge.
pub struct RackScenario {
    pub duration_s: f64,
    pub seed: u64,
    pub shard_gpus: Vec<usize>,
    pub gpus_per_rack: usize,
    pub table: ProfileTable,
    pub dist: BatchDistribution,
    /// Per-model offered rate in the calm phases (premium and batch each).
    pub calm_qps: f64,
    /// Per-model offered rate in the surge phase.
    pub surge_qps: f64,
    pub outage: (f64, f64),
}

impl RackScenario {
    #[must_use]
    pub fn new(duration_s: f64, seed: u64, table: &ProfileTable) -> Self {
        let shard_gpus = vec![3, 3];
        let fleet: f64 = mobilenet_fleet(table, &RACK_MODELS, &shard_gpus)
            .iter()
            .map(MultiModelServer::capacity_hint_qps)
            .sum();
        RackScenario {
            duration_s,
            seed,
            shard_gpus,
            gpus_per_rack: 2,
            table: table.clone(),
            dist: BatchDistribution::paper_default(),
            // Calm: 50 % of fleet capacity across both models. Surge: 90 %
            // offered while the rack outage cuts capacity to 4/6 — ~1.35×
            // overload, where admitting everything drowns premium too.
            calm_qps: 0.25 * fleet,
            surge_qps: 0.45 * fleet,
            // The outage sits inside the surge window.
            outage: (0.3 * duration_s, 0.7 * duration_s),
        }
    }

    #[must_use]
    pub fn cluster(&self, shedding: bool) -> Cluster {
        let shards = mobilenet_fleet(&self.table, &RACK_MODELS, &self.shard_gpus);
        let cluster = Cluster::new(shards, RouterPolicy::JoinShortestQueue);
        if shedding {
            // Margin 0.5: batch browns out once its projected delay eats
            // half the SLA budget, keeping queues short enough that
            // premium's own slack survives the outage.
            cluster.with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.5))
        } else {
            cluster
        }
    }

    #[must_use]
    pub fn trace(&self) -> Vec<TaggedQuerySpec> {
        let both = |qps: f64| vec![(qps, self.dist.clone()), (qps, self.dist.clone())];
        MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(0.25 * self.duration_s, both(self.calm_qps)),
                PhaseSpec::new(0.5 * self.duration_s, both(self.surge_qps)),
                PhaseSpec::new(0.25 * self.duration_s, both(self.calm_qps)),
            ],
            self.seed,
        )
        .generate()
    }

    #[must_use]
    pub fn topology(&self) -> FaultTopology {
        FaultTopology::racks(&self.shard_gpus, self.gpus_per_rack)
    }

    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new().with_domain_outage(&self.topology(), "rack0", self.outage.0, self.outage.1)
    }

    /// The burn-rate SLOs the outage is watched with: premium 95 % and
    /// batch 50 % availability.
    #[must_use]
    pub fn slos() -> [SloSpec; 2] {
        [
            SloSpec::new("premium-avail", 0, 0.95).with_windows(2, 6),
            SloSpec::new("batch-avail", 1, 0.5).with_windows(2, 6),
        ]
    }
}

/// Prints each fired alert's causal tail attribution: one row per nonzero
/// cause, with the alert's class, bin, p99 and `excess_ms` text on its
/// first row only.
pub fn print_attributions(
    title: &str,
    attributions: &[WindowAttribution],
    excess_ms: fn(f64) -> String,
) {
    let mut rows = Vec::new();
    for a in attributions {
        for (i, c) in a.causes.iter().filter(|c| c.share_ns != 0).enumerate() {
            let mut row = if i == 0 {
                vec![
                    a.group.to_string(),
                    a.bin.to_string(),
                    format!("{:.1}", a.p99_latency_ns as f64 / 1e6),
                    excess_ms(a.excess_ns as f64 / 1e6),
                ]
            } else {
                vec![String::new(); 4]
            };
            row.push(c.cause.to_string());
            row.push(format!("{:.2}", c.share_ns as f64 / 1e6));
            rows.push(row);
        }
    }
    let headers = ["class", "bin", "p99 ms", "excess ms", "cause", "share ms"];
    print_table(title, &headers, &rows);
}

/// `trace` as Chrome `trace_event` JSON with the fired `alerts`: their
/// fire/resolve instants in the global event order, plus one slice per
/// alert spanning fire → resolve.
#[must_use]
pub fn alert_trace_json(
    trace: &QueryTrace,
    alerts: &[Alert],
    specs: &[SloSpec],
    window_ns: u64,
) -> String {
    let annotated = trace.annotated(alert_records(alerts, window_ns).into_records());
    let mut w = ChromeTraceWriter::new();
    write_query_trace(&mut w, &annotated);
    let horizon_ns = annotated.horizon().as_nanos();
    write_alert_rows(&mut w, alerts, specs, window_ns, horizon_ns);
    w.finish()
}

// ---------------------------------------------------------------------------
// Scenario 2: slow-GPU partial degradation, placement-aware vs blind.
// ---------------------------------------------------------------------------

/// Slow-GPU partial degradation: one 3-GPU shard, thermal throttling slows
/// GPU 0 by 4× for the middle half of the run.
pub struct SlowScenario {
    pub duration_s: f64,
    pub seed: u64,
    pub gpus: usize,
    pub factor: f64,
    pub window: (f64, f64),
    pub table: ProfileTable,
    pub rate_qps: f64,
}

impl SlowScenario {
    #[must_use]
    pub fn new(duration_s: f64, seed: u64, table: &ProfileTable) -> Self {
        let gpus = 3;
        let capacity = Self::shard(table, gpus, true).capacity_hint_qps();
        SlowScenario {
            duration_s,
            seed,
            gpus,
            // 4× throttling on one of three GPUs for the middle half of
            // the run: effective capacity ~75 % of nominal under the
            // window, against a 65 % offered load — tight enough that
            // placing onto the sick GPU visibly drags the tail.
            factor: 4.0,
            window: (0.25 * duration_s, 0.75 * duration_s),
            table: table.clone(),
            rate_qps: 0.65 * capacity,
        }
    }

    fn shard(table: &ProfileTable, gpus: usize, aware: bool) -> MultiModelServer {
        let config = if aware {
            MultiModelConfig::new()
        } else {
            MultiModelConfig::new().with_degrade_blind()
        };
        mobilenet_shard(table, &["mobilenet_v1"], gpus, config)
    }

    #[must_use]
    pub fn cluster(&self, aware: bool) -> Cluster {
        let shard = Self::shard(&self.table, self.gpus, aware);
        Cluster::new(vec![shard], RouterPolicy::JoinShortestQueue)
    }

    #[must_use]
    pub fn trace(&self) -> Vec<TaggedQuerySpec> {
        steady_trace(self.duration_s, self.rate_qps, 1, self.seed.wrapping_add(1))
    }

    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new().with_gpu_degrade(0, 0, self.factor, self.window.0, self.window.1)
    }
}
