//! Causal tail attribution: *why* was this window's p99 what it was?
//!
//! For a grid window and query class, [`attribute_window`] finds the
//! window's p99 completion (nearest-rank over the completions that landed
//! in the window, tie-broken by `(latency, lane, query)` so the pick is
//! deterministic) and splits its latency **excess** — everything above
//! frontend overhead plus clean service time — into ranked causes:
//!
//! - `reconfig:loan_handover` — queue time spent inside reconfig downtime
//!   whose latest trigger on that shard was a pool loan;
//! - `reconfig:fault_recovery` — downtime triggered by a fault action;
//! - `reconfig:drift` — downtime with no recorded trigger (planned
//!   re-sharding);
//! - `fault_outage_wait` — queue time inside a fail→repair window not
//!   already covered by reconfig downtime;
//! - `degrade_wait` — queue time inside a degrade window not covered above;
//! - `queue_growth` — the remaining queue time: ordinary load;
//! - `degrade_inflation` — service-time inflation from running degraded;
//! - `service_noise` — signed service-time noise around the degraded base.
//!
//! The wait-side causes are **incremental-union overlaps**: each cause is
//! the overlap of the wait span with the union of its interval set and all
//! sets before it, minus the previous cause's running total. Differences of
//! a telescoping sum add back to the full wait exactly, and the service
//! side is the analyzer's integer identity (`service = clean + inflation +
//! noise`), so [`WindowAttribution::causes_sum`] equals
//! [`WindowAttribution::excess_ns`] with **zero residual** — enforced by
//! `bench_obs` on a live fault scenario.
//!
//! Lifecycles come per lane from the span assembler the analyzer shares,
//! and only the completions of the requested windows are kept. The loan,
//! fault and reconfig annotations that relate lanes to each other are
//! replayed in global `(time, key, lane, seq)` order.

use crate::analyze::{overlap_ns, union_intervals};
use crate::event::{FaultKind, TraceEvent};
use crate::recorder::{QueryTrace, TraceRecord};
use crate::slo::Alert;
use crate::span::Completion;
use std::collections::HashMap;

/// One ranked cause share of a window's p99 excess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CauseRow {
    /// Stable cause label (see module docs).
    pub cause: &'static str,
    /// Signed share in integer nanoseconds (`service_noise` can be
    /// negative; everything else is non-negative).
    pub share_ns: i128,
}

/// The full attribution of one window's p99 completion.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAttribution {
    /// Query class attributed.
    pub group: usize,
    /// Grid bin attributed.
    pub bin: usize,
    /// Completions of `group` that landed in the bin.
    pub completions: usize,
    /// Lane of the p99 completion.
    pub p99_lane: u32,
    /// Per-lane query id of the p99 completion.
    pub p99_query: u64,
    /// Its end-to-end latency.
    pub p99_latency_ns: u64,
    /// Serialized frontend overhead (not part of the excess).
    pub frontend_ns: u64,
    /// Clean (undegraded profile-table) service time (not part of the
    /// excess).
    pub service_clean_ns: u64,
    /// `latency − frontend − clean`: the nanoseconds the causes explain.
    pub excess_ns: i128,
    /// Causes ranked by descending share (ties broken by label).
    pub causes: Vec<CauseRow>,
}

impl WindowAttribution {
    /// Sum of all cause shares — always exactly [`excess_ns`].
    ///
    /// [`excess_ns`]: WindowAttribution::excess_ns
    #[must_use]
    pub fn causes_sum(&self) -> i128 {
        self.causes.iter().map(|c| c.share_ns).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    Loan,
    Fault,
}

/// Everything attribution needs, extracted from the trace in one pass.
struct TailContext {
    /// Per shard lane: reconfig downtime split by trigger, then fault and
    /// degrade exposure windows — all unioned.
    reconfig_loan: HashMap<u32, Vec<(u64, u64)>>,
    reconfig_fault: HashMap<u32, Vec<(u64, u64)>>,
    reconfig_drift: HashMap<u32, Vec<(u64, u64)>>,
    fault_windows: HashMap<u32, Vec<(u64, u64)>>,
    degrade_windows: HashMap<u32, Vec<(u64, u64)>>,
    /// The completions the caller asked for, with full per-query state.
    completions: Vec<Completion>,
}

/// Builds the context, keeping only the completions `wanted(group,
/// complete_ns)` accepts.
fn build_context(trace: &QueryTrace, wanted: impl Fn(usize, u64) -> bool) -> TailContext {
    let horizon = trace.horizon().as_nanos();
    let mut ctx = TailContext {
        reconfig_loan: HashMap::new(),
        reconfig_fault: HashMap::new(),
        reconfig_drift: HashMap::new(),
        fault_windows: HashMap::new(),
        degrade_windows: HashMap::new(),
        completions: Vec::new(),
    };
    // Lifecycles fold per lane; the few records that relate lanes (a loan
    // or fault names a shard whose later reconfig it triggers) are set
    // aside and replayed below in global order.
    let mut annotations: Vec<TraceRecord> = Vec::new();
    for lane in trace.lanes() {
        annotations.extend(lane.annotations().filter(|r| {
            matches!(
                r.event,
                TraceEvent::Loan { .. }
                    | TraceEvent::Fault { .. }
                    | TraceEvent::ReconfigStep { .. }
            )
        }));
        lane.for_each_completion(|c| {
            if wanted(c.group, c.complete_ns) {
                ctx.completions.push(c);
            }
        });
    }
    annotations.sort_by_key(|r| (r.at, r.key, r.lane, r.seq));

    // Latest loan/fault annotation per shard, in global trace order — the
    // classifier for reconfig downtime that follows it.
    let mut last_trigger: HashMap<usize, Trigger> = HashMap::new();
    // Open fail→repair windows keyed by (shard, gpu, shard_level) and open
    // degrade windows keyed by (shard, gpu).
    let mut open_fail: HashMap<(usize, usize, bool), u64> = HashMap::new();
    let mut open_degrade: HashMap<(usize, usize), u64> = HashMap::new();
    for r in annotations {
        let at = r.at.as_nanos();
        match r.event {
            TraceEvent::Loan { shard, .. } => {
                last_trigger.insert(shard, Trigger::Loan);
            }
            TraceEvent::Fault {
                kind, shard, gpu, ..
            } => {
                last_trigger.insert(shard, Trigger::Fault);
                match kind {
                    FaultKind::GpuFail => {
                        open_fail.entry((shard, gpu, false)).or_insert(at);
                    }
                    FaultKind::ShardFail => {
                        open_fail.entry((shard, 0, true)).or_insert(at);
                    }
                    FaultKind::GpuRepair => {
                        if let Some(s) = open_fail.remove(&(shard, gpu, false)) {
                            ctx.fault_windows
                                .entry(shard as u32)
                                .or_default()
                                .push((s, at));
                        }
                    }
                    FaultKind::ShardRepair => {
                        if let Some(s) = open_fail.remove(&(shard, 0, true)) {
                            ctx.fault_windows
                                .entry(shard as u32)
                                .or_default()
                                .push((s, at));
                        }
                    }
                    FaultKind::GpuDegrade => {
                        open_degrade.entry((shard, gpu)).or_insert(at);
                    }
                    FaultKind::GpuRestore => {
                        if let Some(s) = open_degrade.remove(&(shard, gpu)) {
                            ctx.degrade_windows
                                .entry(shard as u32)
                                .or_default()
                                .push((s, at));
                        }
                    }
                }
            }
            TraceEvent::ReconfigStep { downtime_ns, .. } => {
                let set = match last_trigger.get(&(r.lane as usize)) {
                    Some(Trigger::Loan) => &mut ctx.reconfig_loan,
                    Some(Trigger::Fault) => &mut ctx.reconfig_fault,
                    None => &mut ctx.reconfig_drift,
                };
                set.entry(r.lane).or_default().push((at, at + downtime_ns));
            }
            _ => {}
        }
    }
    // Fail/degrade windows still open at end of run extend to the horizon.
    for ((shard, _, _), s) in open_fail {
        ctx.fault_windows
            .entry(shard as u32)
            .or_default()
            .push((s, horizon.max(s)));
    }
    for ((shard, _), s) in open_degrade {
        ctx.degrade_windows
            .entry(shard as u32)
            .or_default()
            .push((s, horizon.max(s)));
    }
    for set in [
        &mut ctx.reconfig_loan,
        &mut ctx.reconfig_fault,
        &mut ctx.reconfig_drift,
        &mut ctx.fault_windows,
        &mut ctx.degrade_windows,
    ] {
        for intervals in set.values_mut() {
            union_intervals(intervals);
        }
    }
    ctx
}

/// Nearest-rank p99 index for `n` sorted samples: `ceil(0.99 n) − 1`.
fn p99_index(n: usize) -> usize {
    (99 * n).div_ceil(100) - 1
}

/// The grid bin a completion at `complete_ns` lands in.
fn bin_of(complete_ns: u64, window_ns: u64) -> usize {
    (complete_ns / window_ns) as usize
}

fn attribute_completion(ctx: &TailContext, c: &Completion, bin: usize) -> WindowAttribution {
    let lane = c.lane;
    let empty: Vec<(u64, u64)> = Vec::new();
    let get = |set: &HashMap<u32, Vec<(u64, u64)>>| -> Vec<(u64, u64)> {
        set.get(&lane).unwrap_or(&empty).clone()
    };
    let (d, s) = (c.dispatched_ns, c.start_ns);
    let wait = c.wait_ns();

    // Telescoping unions: each cause = overlap(union so far) − previous
    // running total, so the six wait-side causes sum to `wait` exactly.
    let mut acc = get(&ctx.reconfig_loan);
    let o_loan = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.reconfig_fault));
    union_intervals(&mut acc);
    let o_lf = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.reconfig_drift));
    union_intervals(&mut acc);
    let o_reconfig = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.fault_windows));
    union_intervals(&mut acc);
    let o_fault = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.degrade_windows));
    union_intervals(&mut acc);
    let o_all = overlap_ns(&acc, d, s);

    let mut causes = vec![
        CauseRow {
            cause: "reconfig:loan_handover",
            share_ns: i128::from(o_loan),
        },
        CauseRow {
            cause: "reconfig:fault_recovery",
            share_ns: i128::from(o_lf - o_loan),
        },
        CauseRow {
            cause: "reconfig:drift",
            share_ns: i128::from(o_reconfig - o_lf),
        },
        CauseRow {
            cause: "fault_outage_wait",
            share_ns: i128::from(o_fault - o_reconfig),
        },
        CauseRow {
            cause: "degrade_wait",
            share_ns: i128::from(o_all - o_fault),
        },
        CauseRow {
            cause: "queue_growth",
            share_ns: i128::from(wait - o_all),
        },
        CauseRow {
            cause: "degrade_inflation",
            share_ns: i128::from(c.inflation_ns()),
        },
        CauseRow {
            cause: "service_noise",
            share_ns: c.noise_ns(),
        },
    ];
    causes.sort_by(|a, b| b.share_ns.cmp(&a.share_ns).then(a.cause.cmp(b.cause)));

    let frontend = c.frontend_ns();
    WindowAttribution {
        group: c.group,
        bin,
        completions: 0, // caller fills in
        p99_lane: lane,
        p99_query: c.query,
        p99_latency_ns: c.latency_ns,
        frontend_ns: frontend,
        service_clean_ns: c.clean_ns,
        excess_ns: i128::from(c.latency_ns) - i128::from(frontend) - i128::from(c.clean_ns),
        causes,
    }
}

/// Attributes the p99 completion of `group` in grid window `bin`. Returns
/// `None` when the window saw no completions of that class.
#[must_use]
pub fn attribute_window(
    trace: &QueryTrace,
    window_ns: u64,
    bin: usize,
    group: usize,
) -> Option<WindowAttribution> {
    assert!(window_ns > 0, "window must be positive");
    let ctx = build_context(trace, |g, at| g == group && bin_of(at, window_ns) == bin);
    attribute_window_in(&ctx, window_ns, bin, group)
}

fn attribute_window_in(
    ctx: &TailContext,
    window_ns: u64,
    bin: usize,
    group: usize,
) -> Option<WindowAttribution> {
    let mut rows: Vec<Completion> = ctx
        .completions
        .iter()
        .filter(|c| c.group == group && bin_of(c.complete_ns, window_ns) == bin)
        .copied()
        .collect();
    if rows.is_empty() {
        return None;
    }
    // `(latency, lane, query)` is unique, so the p99 pick does not depend
    // on the order completions were collected in.
    rows.sort_by_key(|c| (c.latency_ns, c.lane, c.query));
    let pick = &rows[p99_index(rows.len())];
    let mut out = attribute_completion(ctx, pick, bin);
    out.completions = rows.len();
    Some(out)
}

/// The grid bin where `group`'s windowed p99 latency peaks (earliest bin on
/// ties), or `None` if the class never completed a query.
#[must_use]
pub fn worst_window(trace: &QueryTrace, window_ns: u64, group: usize) -> Option<usize> {
    assert!(window_ns > 0, "window must be positive");
    let bin = |c: &Completion| bin_of(c.complete_ns, window_ns);
    let mut rows = build_context(trace, |g, _| g == group).completions;
    rows.sort_by_key(|c| (bin(c), c.latency_ns, c.lane, c.query));
    let mut best: Option<(u64, usize)> = None;
    for bin_rows in rows.chunk_by(|a, b| bin(a) == bin(b)) {
        let p99 = bin_rows[p99_index(bin_rows.len())].latency_ns;
        let bin = bin(&bin_rows[0]);
        match best {
            Some((b, _)) if p99 <= b => {}
            _ => best = Some((p99, bin)),
        }
    }
    best.map(|(_, bin)| bin)
}

/// Attributes each fired alert's worst violation window (the
/// [`Alert::worst_bin`] its burn computation identified), skipping alerts
/// whose worst window saw no completions of the class.
#[must_use]
pub fn attribute_alerts(
    trace: &QueryTrace,
    window_ns: u64,
    alerts: &[Alert],
) -> Vec<WindowAttribution> {
    assert!(window_ns > 0, "window must be positive");
    if alerts.is_empty() {
        return Vec::new();
    }
    let ctx = build_context(trace, |group, at| {
        let bin = bin_of(at, window_ns);
        alerts
            .iter()
            .any(|a| a.group == group && a.worst_bin == bin)
    });
    alerts
        .iter()
        .filter_map(|a| attribute_window_in(&ctx, window_ns, a.worst_bin, a.group))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, TraceSink, ANNOTATION_KEY};
    use des_engine::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Records one full lifecycle: arrive at `at` (dispatched same
    /// instant), start at `start`, complete at `start + actual`.
    #[allow(clippy::too_many_arguments)]
    fn query(
        r: &mut FlightRecorder,
        q: u64,
        group: usize,
        at: u64,
        start: u64,
        clean: u64,
        base: u64,
        actual: u64,
    ) {
        r.record(
            t(at),
            q,
            TraceEvent::Arrival {
                query: q,
                group,
                batch: 1,
                dispatched_ns: at,
                sla_ns: 0,
            },
        );
        r.record(
            t(start),
            q,
            TraceEvent::ServiceStart {
                query: q,
                worker: 0,
                gpcs: 7,
                clean_ns: clean,
                base_ns: base,
                actual_ns: actual,
            },
        );
        r.record(
            t(start + actual),
            q,
            TraceEvent::Complete {
                query: q,
                worker: 0,
                latency_ns: start + actual - at,
            },
        );
    }

    #[test]
    fn loan_triggered_reconfig_wait_is_attributed_with_zero_residual() {
        let mut r = FlightRecorder::new(0);
        // Loan arrives, then the reconfig it triggered takes the lane down
        // for 400 ns; the query waits out the downtime plus 100 ns of
        // ordinary queueing, then runs degraded (base 300 over clean 200)
        // with +50 noise.
        r.record(
            t(50),
            ANNOTATION_KEY,
            TraceEvent::Loan {
                shard: 0,
                gpus_delta: 2,
                pool_free_after: 1,
            },
        );
        r.record(
            t(100),
            ANNOTATION_KEY,
            TraceEvent::ReconfigStep {
                step: 0,
                downtime_ns: 400,
            },
        );
        query(&mut r, 0, 1, 100, 600, 200, 300, 350);
        let trace = crate::recorder::QueryTrace::merge([r]);
        let a = attribute_window(&trace, 1_000, 0, 1).expect("one completion");
        assert_eq!(a.completions, 1);
        assert_eq!((a.p99_lane, a.p99_query), (0, 0));
        assert_eq!(a.p99_latency_ns, 850);
        // excess = 850 − 0 frontend − 200 clean = 650.
        assert_eq!(a.excess_ns, 650);
        assert_eq!(a.causes_sum(), a.excess_ns, "zero residual");
        let share = |name: &str| {
            a.causes
                .iter()
                .find(|c| c.cause == name)
                .expect(name)
                .share_ns
        };
        assert_eq!(share("reconfig:loan_handover"), 400);
        assert_eq!(share("queue_growth"), 100);
        assert_eq!(share("degrade_inflation"), 100);
        assert_eq!(share("service_noise"), 50);
        assert_eq!(share("reconfig:fault_recovery"), 0);
        // Ranked descending.
        assert_eq!(a.causes[0].cause, "reconfig:loan_handover");
    }

    #[test]
    fn fault_windows_and_fault_triggered_reconfigs_split_apart() {
        let mut r = FlightRecorder::new(0);
        // Shard fails at 100, repaired at 300; the repair triggers a
        // reconfig with 200 ns downtime at 300. Query dispatched at 100
        // waits until 600: 100..300 is outage, 300..500 fault-triggered
        // reconfig, 500..600 plain queueing.
        r.record(
            t(100),
            ANNOTATION_KEY,
            TraceEvent::Fault {
                kind: FaultKind::ShardFail,
                shard: 0,
                gpu: 0,
                factor_milli: 0,
            },
        );
        r.record(
            t(300),
            ANNOTATION_KEY,
            TraceEvent::Fault {
                kind: FaultKind::ShardRepair,
                shard: 0,
                gpu: 0,
                factor_milli: 0,
            },
        );
        r.record(
            t(300),
            ANNOTATION_KEY,
            TraceEvent::ReconfigStep {
                step: 0,
                downtime_ns: 200,
            },
        );
        query(&mut r, 0, 0, 100, 600, 150, 150, 150);
        let trace = crate::recorder::QueryTrace::merge([r]);
        let a = attribute_window(&trace, 1_000, 0, 0).expect("completion");
        let share = |name: &str| a.causes.iter().find(|c| c.cause == name).unwrap().share_ns;
        assert_eq!(share("reconfig:fault_recovery"), 200);
        assert_eq!(share("fault_outage_wait"), 200);
        assert_eq!(share("queue_growth"), 100);
        assert_eq!(share("reconfig:loan_handover"), 0);
        assert_eq!(a.causes_sum(), a.excess_ns);
    }

    #[test]
    fn p99_pick_is_nearest_rank_and_deterministic() {
        let mut r = FlightRecorder::new(0);
        // Three completions in bin 0 with latencies 100 < 200 < 300:
        // nearest-rank p99 of n=3 is the max.
        for (q, start) in [(0u64, 100u64), (1, 200), (2, 300)] {
            query(&mut r, q, 0, 0, start, 50, 50, 50);
        }
        let trace = crate::recorder::QueryTrace::merge([r]);
        let a = attribute_window(&trace, 1_000, 0, 0).expect("completions");
        assert_eq!(a.completions, 3);
        assert_eq!(a.p99_query, 2, "nearest-rank p99 of 3 samples is the max");
        assert_eq!(a.p99_latency_ns, 350);
        assert_eq!(p99_index(100), 98);
        assert_eq!(p99_index(1), 0);
    }

    #[test]
    fn worst_window_finds_the_tail_spike() {
        let mut r = FlightRecorder::new(0);
        query(&mut r, 0, 0, 0, 100, 50, 50, 50); // bin 0, latency 150
        query(&mut r, 1, 0, 1_000, 1_900, 50, 50, 50); // bin 1, latency 950
        query(&mut r, 2, 0, 2_100, 2_200, 50, 50, 50); // bin 2, latency 150
        let trace = crate::recorder::QueryTrace::merge([r]);
        assert_eq!(worst_window(&trace, 1_000, 0), Some(1));
        assert_eq!(worst_window(&trace, 1_000, 9), None, "unknown class");
    }

    #[test]
    fn attribute_alerts_digs_into_each_worst_bin() {
        let mut r = FlightRecorder::new(0);
        query(&mut r, 0, 0, 0, 100, 50, 50, 50);
        query(&mut r, 1, 0, 1_000, 1_500, 50, 50, 50);
        let trace = crate::recorder::QueryTrace::merge([r]);
        let alerts = vec![Alert {
            slo: 0,
            group: 0,
            fired_bin: 1,
            resolved_bin: None,
            worst_bin: 1,
            burn_short: 2.0,
            burn_long: 1.5,
        }];
        let rows = attribute_alerts(&trace, 1_000, &alerts);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bin, 1);
        assert_eq!(rows[0].p99_query, 1);
        assert_eq!(rows[0].causes_sum(), rows[0].excess_ns);
    }
}
