//! The online telemetry plane: streaming per-lane metric accumulation.
//!
//! [`OnlineLane`] is a [`TraceSink`] that folds every observation into
//! windowed aggregates *as it is recorded*, instead of buffering the record
//! for post-hoc analysis the way [`FlightRecorder`] does. Memory is a few
//! words per (series, window) — growable per-bin vectors — and one SLA per
//! model, with nothing kept per query, so a lane can stream telemetry for
//! a long run without retaining the trace.
//!
//! **Invariant 13 (ARCHITECTURE.md): the online registry IS the oracle
//! registry.** [`MetricRegistry::from_trace`] builds these same per-lane
//! accumulators from a retained trace — from a lane's spans directly
//! (`OnlineLane::from_spans` computes the state this fold leaves behind),
//! or by replaying the lane's records in push order — so the registry an
//! instrumented run streams live is byte-for-byte the registry a retained
//! trace reproduces after the fact, at any thread count, because each lane
//! only ever folds its own records and [`merge_online`] combines the
//! per-lane partials with order-independent arithmetic:
//!
//! - counter/gauge bins sum exactly-representable integers in `f64`
//!   (magnitudes ≪ 2⁵³), so addition order cannot change a single bit;
//! - SLA violations are judged per completion, when it is folded, against
//!   the SLA of the model the completion names — the SLA the model's
//!   latest arrival on the lane carried
//!   ([`LatencyHistogram::exceeds`], the bucket rule of
//!   [`LatencyHistogram::violations`]), into integer completed/violated
//!   counters per (model, bin) that sum exactly in any order.
//!
//! Every engine lane gives each model one SLA, so that is the SLA each
//! completion's own arrival carried. Only a hand-built lane whose model
//! changes SLA mid-run can tell the two rules apart, and the recorder
//! keeps no such lane as spans: it folds record by record.
//!
//! Within one lane, the engine's push order and the trace's global
//! `(time, key, lane, seq)` order differ only in the ordering of
//! same-instant records of different queries, and every per-lane fold
//! above is invariant under that reordering (bin sums are commutative; a
//! gauge bin keeps only the net level; a completion always follows its own
//! arrival). `tests/observability.rs` checks it on every sampled run by
//! replaying the global order through the same fold.
//!
//! [`MetricRegistry::from_trace`]: crate::registry::MetricRegistry::from_trace

use crate::event::TraceEvent;
use crate::recorder::{FlightRecorder, TraceSink};
use crate::registry::{MetricRegistry, MetricSeries};
use des_engine::SimTime;
use server_metrics::LatencyHistogram;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a run should observe: a retained trace, a live metric plane, both,
/// or (the default) nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsRequest {
    /// Attach per-lane [`FlightRecorder`]s and merge a
    /// [`QueryTrace`](crate::QueryTrace) at the end of the run.
    pub trace: bool,
    /// Grid width of the online metric plane in nanoseconds; `0` disables
    /// it.
    pub online_window_ns: u64,
}

impl ObsRequest {
    /// Observe nothing (the zero-cost disabled path).
    pub const OFF: ObsRequest = ObsRequest {
        trace: false,
        online_window_ns: 0,
    };

    /// Retain the full trace only (the pre-existing traced mode).
    #[must_use]
    pub fn traced() -> Self {
        ObsRequest {
            trace: true,
            online_window_ns: 0,
        }
    }

    /// Stream online metrics on a `window_ns` grid, no trace retention.
    #[must_use]
    pub fn online(window_ns: u64) -> Self {
        ObsRequest {
            trace: false,
            online_window_ns: window_ns,
        }
    }

    /// Both: retain the trace *and* stream online metrics from one run —
    /// the configuration the invariant-13 identity checks drive.
    #[must_use]
    pub fn instrumented(window_ns: u64) -> Self {
        ObsRequest {
            trace: true,
            online_window_ns: window_ns,
        }
    }

    /// Whether this request observes anything at all.
    #[must_use]
    pub fn is_off(&self) -> bool {
        !self.trace && self.online_window_ns == 0
    }
}

/// A composite [`TraceSink`]: an optional retained-trace recorder plus an
/// optional online accumulator, fed from the same hook sites. Engines hold
/// `Option<ObsSink>`, so the fully disabled path is still one discriminant
/// test (invariant 12's zero-cost requirement).
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    /// Retained-trace half, when the run keeps the full trace.
    pub trace: Option<FlightRecorder>,
    /// Streaming half, when the run wants live metrics.
    pub online: Option<OnlineLane>,
}

impl ObsSink {
    /// Builds the sink a lane needs for `request` (`None` parts for the
    /// disabled halves). `capacity_gpcs` is the lane's total GPC budget —
    /// a hint that lets the online half skip peak-concurrency tracking.
    #[must_use]
    pub fn for_request(request: ObsRequest, lane: u32, capacity_gpcs: u32) -> ObsSink {
        ObsSink {
            trace: request.trace.then(|| FlightRecorder::new(lane)),
            online: (request.online_window_ns > 0).then(|| {
                OnlineLane::with_capacity_hint(lane, request.online_window_ns, capacity_gpcs)
            }),
        }
    }

    /// Whether both halves are disabled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_none() && self.online.is_none()
    }
}

impl TraceSink for ObsSink {
    #[inline]
    fn record(&mut self, at: SimTime, key: u64, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(at, key, event);
        }
        if let Some(online) = &mut self.online {
            online.record(at, key, event);
        }
    }
}

/// One lane's streaming metric accumulator.
///
/// Feed it records through [`TraceSink::record`] in non-decreasing stamp
/// order (what every engine lane and every merged trace guarantees), then
/// hand all lanes to [`merge_online`]. State per lane: one `f64` per
/// touched (series, bin), two integer SLA counters per (model, bin), and
/// one SLA per model.
#[derive(Debug, Clone)]
pub struct OnlineLane {
    lane: u32,
    window_ns: u64,
    /// Latest stamp seen (any event kind — it defines the shared grid).
    horizon_ns: u64,
    /// Cached current bin: stamps are non-decreasing, so the division in
    /// `bin()` only runs on bin transitions.
    cur_bin: usize,
    cur_bin_end: u64,
    /// Running outstanding-query level and its per-bin close samples
    /// (`NaN` = no lifecycle event in that bin; the merge carries the last
    /// sample forward).
    out_level: i64,
    out: Vec<f64>,
    out_touched: bool,
    /// Per-bin busy GPC·ns.
    busy: Vec<f64>,
    busy_touched: bool,
    /// Min-heap of `(end_ns, gpcs)` for in-flight service spans — the
    /// streaming equivalent of the oracle's peak-concurrency edge sweep.
    /// Unused (empty) when `capacity_hint` is known.
    active: BinaryHeap<Reverse<(u64, u32)>>,
    gpc_level: i64,
    gpc_peak: i64,
    capacity_hint: u32,
    /// Per-bin admitted / shed counts and loan deltas (gateway lane).
    routed: Vec<f64>,
    shed: Vec<f64>,
    loaned: Vec<f64>,
    /// model → SLA counters, indexed by group id — model ids are small
    /// and dense, so a direct vector keeps the per-completion hot path to
    /// one bounds check.
    sla: Vec<SlaBins>,
}

/// One model's SLA fold on one lane.
#[derive(Debug, Clone, Default)]
struct SlaBins {
    /// Whether any arrival of the model carried a nonzero SLA.
    has_sla: bool,
    /// The SLA the model's latest arrival carried (0: none), which judges
    /// its completions.
    sla_ns: u64,
    /// `(completed, violated)` per bin.
    bins: Vec<(u64, u64)>,
}

impl OnlineLane {
    /// Creates an accumulator for `lane` on a `window_ns` grid.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    #[must_use]
    pub fn new(lane: u32, window_ns: u64) -> Self {
        Self::with_capacity_hint(lane, window_ns, 0)
    }

    /// [`new`](Self::new), with the lane's total GPC capacity known up
    /// front: the busy-fraction denominator the registry merge would
    /// otherwise have to derive by tracking peak concurrency. A nonzero
    /// hint lets the hot path skip the concurrency heap entirely; `0`
    /// means "unknown, track it".
    #[must_use]
    pub fn with_capacity_hint(lane: u32, window_ns: u64, capacity_gpcs: u32) -> Self {
        assert!(window_ns > 0, "window must be positive");
        OnlineLane {
            lane,
            window_ns,
            horizon_ns: 0,
            cur_bin: 0,
            cur_bin_end: window_ns,
            out_level: 0,
            out: Vec::new(),
            out_touched: false,
            busy: Vec::new(),
            busy_touched: false,
            active: BinaryHeap::new(),
            gpc_level: 0,
            gpc_peak: 0,
            capacity_hint: capacity_gpcs,
            routed: Vec::new(),
            shed: Vec::new(),
            loaned: Vec::new(),
            sla: Vec::new(),
        }
    }

    /// The lane id this accumulator stamps its series with.
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// The grid width the accumulator bins on.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    #[inline]
    fn bin(&mut self, at_ns: u64) -> usize {
        debug_assert!(
            at_ns >= self.cur_bin as u64 * self.window_ns,
            "stamps must be non-decreasing per lane"
        );
        if at_ns < self.cur_bin_end {
            self.cur_bin
        } else {
            self.next_bin(at_ns)
        }
    }

    /// The bin-transition path of [`bin`](Self::bin): moves the cached
    /// bin.
    #[cold]
    #[inline(never)]
    fn next_bin(&mut self, at_ns: u64) -> usize {
        let b = (at_ns / self.window_ns) as usize;
        self.cur_bin = b;
        self.cur_bin_end = (b as u64 + 1).saturating_mul(self.window_ns);
        b
    }

    #[inline]
    fn sample_out(&mut self, bin: usize) {
        if bin >= self.out.len() {
            self.out.resize(bin + 1, f64::NAN);
        }
        self.out[bin] = self.out_level as f64;
        self.out_touched = true;
    }

    fn model(&mut self, group: usize) -> &mut SlaBins {
        if group >= self.sla.len() {
            self.sla.resize_with(group + 1, SlaBins::default);
        }
        &mut self.sla[group]
    }

    /// Notes an arrival of `group` carrying `sla_ns`: the SLA that judges
    /// the model's completions from here on.
    fn arrive(&mut self, group: usize, sla_ns: u64) {
        let model = self.model(group);
        model.has_sla |= sla_ns > 0;
        model.sla_ns = sla_ns;
    }

    /// Counts a completion of `group` in `bin`, judged against the model's
    /// SLA (a zero SLA means none: it cannot violate).
    fn complete(&mut self, bin: usize, group: usize, latency_ns: u64) {
        let model = self.model(group);
        let violated = model.sla_ns > 0 && LatencyHistogram::exceeds(latency_ns, model.sla_ns);
        if bin >= model.bins.len() {
            model.bins.resize(bin + 1, (0, 0));
        }
        model.bins[bin].0 += 1;
        model.bins[bin].1 += u64::from(violated);
    }

    fn service(&mut self, at_ns: u64, gpcs: u32, base_ns: u64) {
        self.busy_touched = true;
        let end = at_ns + base_ns;
        if self.capacity_hint == 0 && base_ns > 0 {
            // Streaming peak concurrency ≡ the oracle's edge sweep: ends at
            // or before `at_ns` retire first (the sweep sorts negative
            // deltas before positive at equal stamps), then this span
            // raises the level.
            while let Some(&Reverse((e, g))) = self.active.peek() {
                if e > at_ns {
                    break;
                }
                self.active.pop();
                self.gpc_level -= i64::from(g);
            }
            self.gpc_level += i64::from(gpcs);
            self.gpc_peak = self.gpc_peak.max(self.gpc_level);
            self.active.push(Reverse((end, gpcs)));
        }
        let first = self.bin(at_ns);
        self.spread_busy(first, self.cur_bin_end, at_ns, gpcs, base_ns);
    }

    /// Spreads an execution's GPC·ns across the bins it covers; `first` is
    /// the bin of `at_ns` and `first_end` where it ends. No grid clamp
    /// here: bins beyond the final horizon are truncated at merge, which
    /// reproduces the oracle's clamp bytes exactly (a clamped overflow
    /// segment contributed `+0.0` to the last bin — a no-op).
    #[inline]
    fn spread_busy(&mut self, first: usize, first_end: u64, at_ns: u64, gpcs: u32, base_ns: u64) {
        let end = at_ns + base_ns;
        // Fast path: the whole span lands in its first bin.
        if end <= first_end {
            if first >= self.busy.len() {
                self.busy.resize(first + 1, 0.0);
            }
            self.busy[first] += base_ns as f64 * f64::from(gpcs);
            return;
        }
        let mut s = at_ns;
        while s < end {
            let b = (s / self.window_ns) as usize;
            let bin_end = (b as u64 + 1).saturating_mul(self.window_ns);
            let seg = end.min(bin_end) - s;
            if b >= self.busy.len() {
                self.busy.resize(b + 1, 0.0);
            }
            self.busy[b] += seg as f64 * f64::from(gpcs);
            s = bin_end;
        }
    }

    /// The accumulator that folding every record of `rec`, in append
    /// order, through [`TraceSink::record`] leaves behind — computed from
    /// the recorder's spans directly. `rec` must read as spans (stamps
    /// never go backwards; every arrival and completion is part of a span).
    /// Then no result depends on the order records are folded in: the
    /// busy, routed, shed and loan bins and the SLA counters sum exact
    /// integers, and an outstanding-gauge bin holds the level after the
    /// bin's last lifecycle event, which is the net count of arrivals and
    /// completions up to the bin's end. The peak-concurrency sweep runs
    /// only when `track_peak`: the merge reads it only for a lane whose
    /// capacity it is not given.
    pub(crate) fn from_spans(rec: &FlightRecorder, window_ns: u64, track_peak: bool) -> Self {
        let w = window_ns;
        let bin = |at_ns: u64| (at_ns / w) as usize;
        let mut lane = OnlineLane::new(rec.lane(), w);
        lane.horizon_ns = rec.horizon_ns();
        // Net arrivals − completions per bin; `None` where no lifecycle
        // event landed (the gauge carries the last level through).
        let mut net: Vec<Option<i64>> = Vec::new();
        let mut note = |b: usize, delta: i64| {
            if b >= net.len() {
                net.resize(b + 1, None);
            }
            *net[b].get_or_insert(0) += delta;
        };
        // `(stamp, ±gpcs)` edges of every execution, for the peak sweep.
        let mut edges: Vec<(u64, i64)> = Vec::new();
        let mut start = |lane: &mut OnlineLane, at_ns: u64, gpcs: u32, base_ns: u64| {
            lane.busy_touched = true;
            let first = bin(at_ns);
            let first_end = (first as u64 + 1).saturating_mul(w);
            lane.spread_busy(first, first_end, at_ns, gpcs, base_ns);
            if track_peak && base_ns > 0 {
                edges.push((at_ns, i64::from(gpcs)));
                edges.push((at_ns + base_ns, -i64::from(gpcs)));
            }
        };
        // A lane that reads as spans holds no void span: voiding one
        // keeps its arrival as a plain record.
        debug_assert!(rec.reads_as_spans());
        for (_, s) in rec.spans() {
            let at = s.arrival_ns;
            let group = usize::from(s.group);
            note(bin(at), 1);
            // Every span of the group carries the group's one SLA.
            lane.arrive(group, rec.sla_ns(s.group));
            if s.is_started() {
                let (gpcs, base) = (u32::from(s.gpcs), u64::from(s.base_ns));
                start(&mut lane, at + u64::from(s.start_ns), gpcs, base);
            }
            if s.is_complete() {
                let latency_ns = u64::from(s.latency_ns);
                let b = bin(at + latency_ns);
                note(b, -1);
                lane.complete(b, group, latency_ns);
            }
        }
        for (at_ns, shed) in rec.admissions() {
            let bins = if shed {
                &mut lane.shed
            } else {
                &mut lane.routed
            };
            bump(bins, bin(at_ns), 1.0);
        }
        for r in rec.plain().iter().copied().chain(rec.packed()) {
            let at_ns = r.at.as_nanos();
            match r.event {
                TraceEvent::ServiceStart { gpcs, base_ns, .. } => {
                    start(&mut lane, at_ns, gpcs, base_ns);
                }
                TraceEvent::RouteDecision { .. } => bump(&mut lane.routed, bin(at_ns), 1.0),
                TraceEvent::Shed { .. } => bump(&mut lane.shed, bin(at_ns), 1.0),
                TraceEvent::Loan { gpus_delta, .. } => {
                    bump(&mut lane.loaned, bin(at_ns), gpus_delta as f64);
                }
                _ => {}
            }
        }
        lane.out_touched = !net.is_empty();
        let mut level = 0;
        lane.out = net
            .iter()
            .map(|n| match n {
                Some(delta) => {
                    level += delta;
                    level as f64
                }
                None => f64::NAN,
            })
            .collect();
        if track_peak {
            // Ends sort before starts at equal stamps, as the streaming
            // tracker retires them first.
            edges.sort_unstable();
            let mut level = 0;
            for (_, delta) in edges {
                level += delta;
                lane.gpc_peak = lane.gpc_peak.max(level);
            }
        }
        lane
    }
}

#[inline]
fn bump(values: &mut Vec<f64>, bin: usize, delta: f64) {
    if bin >= values.len() {
        values.resize(bin + 1, 0.0);
    }
    values[bin] += delta;
}

impl TraceSink for OnlineLane {
    /// Folds one record into the lane's aggregates. Kept out-of-line so the
    /// composite [`ObsSink`] dispatch stays small: trace-only and disabled
    /// sinks never pay this body in their instruction stream.
    #[inline(never)]
    fn record(&mut self, at: SimTime, _key: u64, event: TraceEvent) {
        let at_ns = at.as_nanos();
        // Stamps are non-decreasing per lane (debug-asserted in `bin`), so
        // the latest stamp IS the horizon — no compare needed.
        self.horizon_ns = at_ns;
        match event {
            TraceEvent::Arrival { group, sla_ns, .. } => {
                let bin = self.bin(at_ns);
                self.out_level += 1;
                self.sample_out(bin);
                self.arrive(group, sla_ns);
            }
            TraceEvent::Complete {
                group, latency_ns, ..
            } => {
                let bin = self.bin(at_ns);
                self.out_level -= 1;
                self.sample_out(bin);
                self.complete(bin, group, latency_ns);
            }
            TraceEvent::ServiceStart { gpcs, base_ns, .. } => self.service(at_ns, gpcs, base_ns),
            TraceEvent::RouteDecision { .. } => {
                let bin = self.bin(at_ns);
                bump(&mut self.routed, bin, 1.0);
            }
            TraceEvent::Shed { .. } => {
                let bin = self.bin(at_ns);
                bump(&mut self.shed, bin, 1.0);
            }
            TraceEvent::Loan { gpus_delta, .. } => {
                let bin = self.bin(at_ns);
                bump(&mut self.loaned, bin, gpus_delta as f64);
            }
            _ => {}
        }
    }
}

/// Merges per-lane online accumulators into one [`MetricRegistry`] —
/// the deterministic coordinator step of the online plane, and the shared
/// back half of [`MetricRegistry::from_trace`].
///
/// `lane_gpcs[s]` is lane `s`'s busy-fraction denominator; zero/missing
/// entries fall back to the lane's capacity hint, then to its tracked peak
/// concurrency (min 1), matching the post-hoc oracle.
///
/// The result is independent of the order lanes are handed in: per-lane
/// series only depend on their own lane, and cross-lane sums combine
/// exactly-representable integers.
///
/// `model{m}/sla_violation_rate` is, per bin, the model's violated over
/// completed queries (0.0 for a bin without completions), where each
/// completion was judged against the SLA of its model's latest arrival on
/// its lane. The series exists once some completion of the model was
/// folded and some arrival of it carried a nonzero SLA. This equals
/// `LatencyHistogram::violation_rate` of the bin's latencies whenever all
/// arrivals of a model carry the same SLA — which holds for every cluster
/// and trace the repo builds, since `ModelSpec::new` derives the SLA from
/// the model's profile table and shards share tables. Only a hand-built
/// lane whose model changes SLA judges a completion against another SLA
/// than its own arrival's, and the recorder keeps no such lane as spans.
///
/// [`MetricRegistry::from_trace`]: crate::registry::MetricRegistry::from_trace
#[must_use]
pub fn merge_online(
    window_ns: u64,
    lanes: impl IntoIterator<Item = OnlineLane>,
    lane_gpcs: &[u32],
) -> MetricRegistry {
    assert!(window_ns > 0, "window must be positive");
    let mut lanes: Vec<OnlineLane> = lanes.into_iter().collect();
    lanes.sort_by_key(OnlineLane::lane);
    let horizon = lanes.iter().map(|l| l.horizon_ns).max().unwrap_or(0);
    let windows = (horizon / window_ns + 1) as usize;

    let mut series: Vec<MetricSeries> = Vec::new();
    let mut routed = vec![0.0f64; windows];
    let mut shed = vec![0.0f64; windows];
    let mut loan_deltas = vec![0.0f64; windows];
    let mut sla: Vec<SlaBins> = Vec::new();

    for lane in &mut lanes {
        debug_assert_eq!(lane.window_ns, window_ns, "lanes must share the grid");
        if lane.out_touched {
            let mut values = std::mem::take(&mut lane.out);
            values.resize(windows, f64::NAN);
            let mut last = 0.0;
            for v in &mut values {
                if v.is_nan() {
                    *v = last;
                } else {
                    last = *v;
                }
            }
            series.push(MetricSeries {
                name: format!("shard{}/outstanding", lane.lane),
                values,
            });
        }
        if lane.busy_touched {
            let mut busy = std::mem::take(&mut lane.busy);
            busy.truncate(windows);
            busy.resize(windows, 0.0);
            let capacity = lane_gpcs
                .get(lane.lane as usize)
                .copied()
                .filter(|&c| c > 0)
                .unwrap_or_else(|| {
                    if lane.capacity_hint > 0 {
                        lane.capacity_hint
                    } else {
                        (lane.gpc_peak.max(0) as u32).max(1)
                    }
                });
            let denom = window_ns as f64 * f64::from(capacity);
            series.push(MetricSeries {
                name: format!("shard{}/busy_gpc_fraction", lane.lane),
                values: busy.iter().map(|&b| b / denom).collect(),
            });
        }
        for (b, &v) in lane.routed.iter().enumerate() {
            routed[b] += v;
        }
        for (b, &v) in lane.shed.iter().enumerate() {
            shed[b] += v;
        }
        for (b, &v) in lane.loaned.iter().enumerate() {
            loan_deltas[b] += v;
        }
        if lane.sla.len() > sla.len() {
            sla.resize_with(lane.sla.len(), SlaBins::default);
        }
        for (merged, part) in sla.iter_mut().zip(&lane.sla) {
            merged.has_sla |= part.has_sla;
            if part.bins.len() > merged.bins.len() {
                merged.bins.resize(part.bins.len(), (0, 0));
            }
            for (m, p) in merged.bins.iter_mut().zip(&part.bins) {
                m.0 += p.0;
                m.1 += p.1;
            }
        }
    }

    // Pool loans: integrate the per-bin deltas into a level.
    let mut level = 0.0;
    let loaned: Vec<f64> = loan_deltas
        .iter()
        .map(|&d| {
            level += d;
            level
        })
        .collect();
    if loaned.iter().any(|&v| v != 0.0) {
        series.push(MetricSeries {
            name: "pool/loaned_gpus".to_string(),
            values: loaned,
        });
    }

    // Shed rate per bin over offered load.
    if routed.iter().chain(&shed).any(|&v| v > 0.0) {
        let values = routed
            .iter()
            .zip(&shed)
            .map(|(&r, &s)| if r + s > 0.0 { s / (r + s) } else { 0.0 })
            .collect();
        series.push(MetricSeries {
            name: "fleet/shed_rate".to_string(),
            values,
        });
    }

    // Per-model SLA violation rate off the merged counters.
    for (model, counts) in sla.iter().enumerate() {
        if !counts.has_sla || counts.bins.is_empty() {
            continue;
        }
        let values = (0..windows)
            .map(|idx| match counts.bins.get(idx) {
                Some(&(completed, violated)) if completed > 0 => violated as f64 / completed as f64,
                _ => 0.0,
            })
            .collect();
        series.push(MetricSeries {
            name: format!("model{model}/sla_violation_rate"),
            values,
        });
    }

    series.sort_by(|a, b| a.name.cmp(&b.name));
    MetricRegistry::from_parts(window_ns, windows, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A lane that sees one model-0 query arrive at `at` carrying `sla_ns`
    /// and complete `latency_ns` later.
    fn one_query(lane: u32, at: u64, sla_ns: u64, latency_ns: u64) -> OnlineLane {
        let mut l = OnlineLane::new(lane, 1_000);
        l.record(
            t(at),
            0,
            TraceEvent::Arrival {
                query: 0,
                group: 0,
                batch: 1,
                dispatched_ns: at,
                sla_ns,
            },
        );
        l.record(
            t(at + latency_ns),
            0,
            TraceEvent::Complete {
                query: 0,
                group: 0,
                worker: 0,
                latency_ns,
            },
        );
        l
    }

    #[test]
    fn obs_sink_feeds_both_halves() {
        let mut sink = ObsSink::for_request(ObsRequest::instrumented(1_000), 3, 0);
        sink.record(t(10), 0, TraceEvent::Requeue { query: 0 });
        assert_eq!(sink.trace.as_ref().unwrap().len(), 1);
        assert_eq!(sink.online.as_ref().unwrap().horizon_ns, 10);
        assert!(ObsSink::for_request(ObsRequest::OFF, 0, 0).is_empty());
    }

    #[test]
    fn peak_tracker_matches_edge_sweep() {
        // Overlapping, touching, and nested spans; compare against the
        // oracle sweep semantics by hand: peak is 7+3 = 10.
        let mut lane = OnlineLane::new(0, 1_000_000);
        let spans = [
            (0u64, 100u64, 7u32),
            (50, 150, 3),
            (100, 200, 7),
            (200, 300, 5),
        ];
        for (s, e, g) in spans {
            lane.service(s, g, e - s);
        }
        assert_eq!(lane.gpc_peak, 10);
    }

    #[test]
    fn merge_is_lane_order_independent() {
        let fwd = merge_online(
            1_000,
            [one_query(0, 100, 500, 700), one_query(1, 2_100, 500, 700)],
            &[],
        );
        let rev = merge_online(
            1_000,
            [one_query(1, 2_100, 500, 700), one_query(0, 100, 500, 700)],
            &[],
        );
        assert_eq!(fwd, rev);
        assert_eq!(fwd.windows(), 3);
        assert!(fwd.get("model0/sla_violation_rate").is_some());
    }

    #[test]
    fn each_completion_is_judged_against_its_own_arrivals_sla() {
        // Same model, same bin, same 700 ns latency: lane 0's query (the
        // earlier arrival) has a 1 µs SLA and meets it, lane 1's has a
        // 500 ns SLA and misses it.
        let reg = merge_online(
            1_000,
            [one_query(0, 100, 1_000, 700), one_query(1, 200, 500, 700)],
            &[],
        );
        let rate = reg.get("model0/sla_violation_rate").expect("series");
        assert_eq!(rate.values, vec![0.5]);
    }

    #[test]
    fn each_completion_is_judged_against_its_own_models_sla() {
        // One lane, two models: model 0 has a 1 µs SLA, model 1 a 500 ns
        // one. Query q of model q % 2 arrives at 200q and completes 700 ns
        // later, so arrivals and completions of both models interleave and
        // only model 1's queries miss their SLA.
        let mut events: Vec<(u64, u64, TraceEvent)> = Vec::new();
        for q in 0..6u64 {
            let (at, group) = (200 * q, (q % 2) as usize);
            let sla_ns = [1_000, 500][group];
            events.push((
                at,
                q,
                TraceEvent::Arrival {
                    query: q,
                    group,
                    batch: 1,
                    dispatched_ns: at,
                    sla_ns,
                },
            ));
            events.push((
                at + 700,
                q,
                TraceEvent::Complete {
                    query: q,
                    group,
                    worker: 0,
                    latency_ns: 700,
                },
            ));
        }
        events.sort_by_key(|&(at, ..)| at);
        let mut lane = OnlineLane::new(0, 1_000);
        for (at, key, event) in events {
            lane.record(t(at), key, event);
        }
        let reg = merge_online(1_000, [lane], &[]);
        let rate = |m: usize| {
            reg.get(&format!("model{m}/sla_violation_rate"))
                .expect("series")
                .values
                .clone()
        };
        assert_eq!(rate(0), vec![0.0, 0.0]);
        assert_eq!(rate(1), vec![1.0, 1.0]);
    }

    #[test]
    fn model_without_an_sla_emits_no_series() {
        let reg = merge_online(1_000, [one_query(0, 100, 0, 5_000)], &[]);
        assert!(reg.get("shard0/outstanding").is_some());
        assert!(reg.get("model0/sla_violation_rate").is_none());
    }
}
