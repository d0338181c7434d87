//! The flight recorder: per-lane `(time, key)`-stamped buffers that every
//! analysis reads in place.
//!
//! Each engine lane (a shard's dispatch core, or the cluster gateway) owns a
//! private [`FlightRecorder`]. Recording is a bounds-checked `Vec` push — no
//! locks, no clocks, no I/O — so a lane's buffer is exactly as deterministic
//! as the lane itself, which invariant 11 already guarantees is thread-count
//! invariant. At run end the buffers become one [`QueryTrace`] without being
//! copied: the analyses fold one lane at a time in append order
//! ([`QueryTrace::lanes`]), and only [`QueryTrace::records`] builds the
//! global `(time, key, lane, seq)` order, a pure function of the stamps.
//!
//! **Invariant 12 (zero observer effect):** recording must never touch engine
//! state — no RNG draws, no report fields, no event keys. Hooks are
//! `if let Some(sink) = trace { ... }` on otherwise-unchanged paths, and the
//! property suite pins byte-identical reports with tracing on vs off.

use crate::event::TraceEvent;
use des_engine::SimTime;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// Same-instant ordering key for annotation events (reconfigs, loans,
/// faults, degrades): they sort after every query-keyed lifecycle event at
/// the same stamp, mirroring the engine's own command-before-event layering.
pub const ANNOTATION_KEY: u64 = u64::MAX;

/// One stamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation instant the event was observed.
    pub at: SimTime,
    /// Same-instant tiebreak key — the query id for lifecycle events,
    /// [`ANNOTATION_KEY`] for annotations.
    pub key: u64,
    /// Which recorder buffer this came from (shard index; the cluster
    /// gateway records as `shards.len()`).
    pub lane: u32,
    /// Per-lane monotone sequence number — the final within-lane tiebreak.
    pub seq: u64,
    /// The observation itself.
    pub event: TraceEvent,
}

/// Anything the engine can hand observations to.
pub trait TraceSink {
    /// Record `event` observed at `(at, key)`.
    fn record(&mut self, at: SimTime, key: u64, event: TraceEvent);
}

/// Records per arena chunk: large enough to amortize the chunk-list
/// bookkeeping, small enough that a quiet lane wastes little.
const CHUNK: usize = 1024;

/// A per-lane append-only trace buffer.
///
/// Storage is a chunked arena (like the server's `Gantt`): appending never
/// moves earlier records, so a hot lane recording tens of thousands of
/// events never pays the doubling-growth memcpy of a flat `Vec` — the push
/// is the recorder's entire hot-path cost.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    lane: u32,
    seq: u64,
    /// The chunk being appended to — kept separate from `full` so the push
    /// is a direct `Vec::push`, not a `last_mut()` double indirection.
    current: Vec<TraceRecord>,
    /// Filled chunks, in append order.
    full: Vec<Vec<TraceRecord>>,
}

impl FlightRecorder {
    /// Creates an empty recorder for `lane`.
    #[must_use]
    pub fn new(lane: u32) -> Self {
        FlightRecorder {
            lane,
            seq: 0,
            current: Vec::new(),
            full: Vec::new(),
        }
    }

    /// A finished buffer holding `records` as they are (stamps included).
    fn from_records(lane: u32, records: Vec<TraceRecord>) -> Self {
        FlightRecorder {
            lane,
            seq: records.len() as u64,
            current: records,
            full: Vec::new(),
        }
    }

    /// The lane this recorder stamps onto its records.
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Number of records buffered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seq as usize
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }

    /// The buffered records in append order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.full.iter().flatten().chain(&self.current)
    }

    /// The most recently appended record.
    fn last(&self) -> Option<&TraceRecord> {
        self.current
            .last()
            .or_else(|| self.full.last().and_then(|chunk| chunk.last()))
    }

    /// Consumes the recorder, yielding its buffer in append order.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.full {
            out.extend(chunk);
        }
        out.extend(self.current);
        out
    }

    /// Whether append order can stand in for `(time, key, seq)` order in
    /// every per-lane fold: stamps never go backwards, `seq` rises, and each
    /// lifecycle record is keyed by its own query id. One query's records
    /// then keep their relative order, and only same-instant records of
    /// different queries can move — which no fold notices (see
    /// [`QueryTrace`]). Every engine lane passes.
    fn reads_in_place(&self) -> bool {
        let mut prev: Option<&TraceRecord> = None;
        self.iter().all(|r| {
            let in_order = prev.is_none_or(|p| p.at <= r.at && p.seq < r.seq);
            prev = Some(r);
            in_order && r.event.query().is_none_or(|q| q == r.key)
        })
    }

    /// Rolls a filled `current` chunk into `full` — out of line so the
    /// inlined push stays small.
    #[cold]
    fn grow(&mut self) {
        let filled = std::mem::replace(&mut self.current, Vec::with_capacity(CHUNK));
        if !filled.is_empty() {
            self.full.push(filled);
        }
    }
}

impl TraceSink for FlightRecorder {
    // Inlined into the engines' hook sites (cross-crate): the push IS the
    // traced hot path, and a call frame per record roughly doubles it.
    #[inline]
    fn record(&mut self, at: SimTime, key: u64, event: TraceEvent) {
        if self.current.len() == self.current.capacity() {
            self.grow();
        }
        self.current.push(TraceRecord {
            at,
            key,
            lane: self.lane,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }
}

/// A finished trace: the recorders' buffers, kept per lane as recorded.
///
/// The analyses (`analyze`, `check_conservation`,
/// `MetricRegistry::from_trace`, attribution) fold one lane at a time
/// through [`lanes`], in each lane's append order, into per-lane tables.
/// That order serves them as well as the global `(time, key, lane, seq)`
/// order: an engine lane appends its stamps in non-decreasing order and
/// keys every lifecycle event by its own query id, so each query's records
/// appear in the same relative order either way. Only same-instant records
/// of different queries can trade places, and every fold is invariant
/// under that — `tests/observability.rs` replays the global order through
/// the online fold to check it.
///
/// A lane that does not read in place — a hand-built buffer whose stamps go
/// backwards, or several buffers handed in under one lane id — is put in
/// `(time, key, seq)` order on its first read, so it too gives the results
/// the global order would.
///
/// The global order itself is built only on the first [`records`] call,
/// for the exporters, `==` and tests. [`merge`] touches no record, so the
/// traced run's own cost is the per-record push alone.
///
/// [`lanes`]: QueryTrace::lanes
/// [`merge`]: QueryTrace::merge
/// [`records`]: QueryTrace::records
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// One entry per lane id, ascending.
    lanes: Vec<Lane>,
    /// Every record in global order, built on first use.
    global: OnceCell<Vec<TraceRecord>>,
}

/// The buffers a trace holds under one lane id, and the order its readers
/// see.
#[derive(Debug, Clone)]
struct Lane {
    /// In hand-in order; exactly one for an engine lane.
    parts: Vec<FlightRecorder>,
    /// Built on first read: `None` when the one buffer reads in place, else
    /// the lane's records in `(time, key, seq)` order.
    reordered: OnceCell<Option<FlightRecorder>>,
}

impl Lane {
    fn view(&self) -> &FlightRecorder {
        self.reordered
            .get_or_init(|| match self.parts.as_slice() {
                [only] if only.reads_in_place() => None,
                parts => {
                    let mut records: Vec<TraceRecord> = parts
                        .iter()
                        .flat_map(FlightRecorder::iter)
                        .copied()
                        .collect();
                    // Stable, so records equal on every key keep hand-in
                    // order, exactly as in the global sort.
                    records.sort_by_key(|r| (r.at, r.key, r.seq));
                    Some(FlightRecorder::from_records(parts[0].lane, records))
                }
            })
            .as_ref()
            .unwrap_or(&self.parts[0])
    }
}

impl QueryTrace {
    /// Collects per-lane buffers into a trace. Buffers that share a lane id
    /// become one lane; empty buffers are dropped. The result depends only
    /// on the stamps, never on the order distinct lanes are handed in.
    #[must_use]
    pub fn merge(parts: impl IntoIterator<Item = FlightRecorder>) -> Self {
        let mut parts: Vec<FlightRecorder> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        // Stable: buffers sharing an id keep their hand-in order.
        parts.sort_by_key(FlightRecorder::lane);
        let mut lanes: Vec<Lane> = Vec::new();
        for part in parts {
            match lanes.last_mut() {
                Some(lane) if lane.parts[0].lane == part.lane => lane.parts.push(part),
                _ => lanes.push(Lane {
                    parts: vec![part],
                    reordered: OnceCell::new(),
                }),
            }
        }
        QueryTrace {
            lanes,
            global: OnceCell::new(),
        }
    }

    /// Each lane's records, ascending by lane id, each in an order every
    /// per-lane fold can read as if it were the global one (see the
    /// type-level docs).
    pub fn lanes(&self) -> impl Iterator<Item = &FlightRecorder> + '_ {
        self.lanes.iter().map(Lane::view)
    }

    /// Every record in global `(time, key, lane, seq)` order (built on
    /// first use).
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        self.global.get_or_init(|| {
            let mut records: Vec<TraceRecord> = Vec::with_capacity(self.len());
            for part in self.lanes.iter().flat_map(|lane| &lane.parts) {
                records.extend(part.iter());
            }
            // The input is a handful of time-sorted runs, which the stable
            // sort detects and merges instead of sorting from scratch.
            records.sort_by_key(|r| (r.at, r.key, r.lane, r.seq));
            records
        })
    }

    /// Total number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes
            .iter()
            .flat_map(|lane| &lane.parts)
            .map(FlightRecorder::len)
            .sum()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Latest stamp in the trace, or zero when empty.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        // Every lane's view is in stamp order, so its last record is its
        // latest.
        self.lanes()
            .filter_map(FlightRecorder::last)
            .map(|r| r.at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// A copy of this trace with `extra` records (e.g. SLO alert
    /// annotations from [`crate::slo::alert_records`]) added as lanes of
    /// their own `lane` ids — a lane this trace already has gains them as
    /// a second buffer. The original is untouched.
    #[must_use]
    pub fn annotated(&self, extra: impl IntoIterator<Item = TraceRecord>) -> QueryTrace {
        let mut added: BTreeMap<u32, Vec<TraceRecord>> = BTreeMap::new();
        for r in extra {
            added.entry(r.lane).or_default().push(r);
        }
        let own = self
            .lanes
            .iter()
            .flat_map(|lane| lane.parts.iter().cloned());
        let added = added
            .into_iter()
            .map(|(lane, records)| FlightRecorder::from_records(lane, records));
        QueryTrace::merge(own.chain(added))
    }
}

impl PartialEq for QueryTrace {
    fn eq(&self, other: &Self) -> bool {
        self.records() == other.records()
    }
}

impl Eq for QueryTrace {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(q: u64) -> TraceEvent {
        TraceEvent::Requeue { query: q }
    }

    fn note() -> TraceEvent {
        TraceEvent::ReconfigDone {
            steps: 1,
            aborted: false,
        }
    }

    #[test]
    fn merge_orders_by_time_key_lane_seq() {
        let t = SimTime::from_nanos;
        let mut a = FlightRecorder::new(1);
        a.record(t(10), 5, ev(5));
        a.record(t(20), 1, ev(1));
        let mut b = FlightRecorder::new(0);
        b.record(t(10), 5, ev(50));
        b.record(t(10), ANNOTATION_KEY, ev(99));

        // Hand the buffers in "wrong" order on purpose.
        let merged = QueryTrace::merge([a, b]);
        let lanes: Vec<u32> = merged.records().iter().map(|r| r.lane).collect();
        let keys: Vec<u64> = merged.records().iter().map(|r| r.key).collect();
        // (10,5,lane0) < (10,5,lane1) < (10,MAX) < (20,1)
        assert_eq!(lanes, vec![0, 1, 0, 1]);
        assert_eq!(keys, vec![5, 5, ANNOTATION_KEY, 1]);
    }

    #[test]
    fn merge_is_input_order_invariant() {
        let t = SimTime::from_nanos;
        let mk = |lane: u32| {
            let mut r = FlightRecorder::new(lane);
            for i in 0..4 {
                r.record(t(i * 7 % 13), i, ev(i));
            }
            r
        };
        let fwd = QueryTrace::merge([mk(0), mk(1), mk(2)]);
        let rev = QueryTrace::merge([mk(2), mk(1), mk(0)]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn annotated_merges_extra_records_in_global_order() {
        let t = SimTime::from_nanos;
        let mut r = FlightRecorder::new(0);
        r.record(t(10), 1, ev(1));
        r.record(t(30), 2, ev(2));
        let trace = QueryTrace::merge([r]);
        let mut extra = FlightRecorder::new(7);
        extra.record(t(20), ANNOTATION_KEY, ev(99));
        let annotated = trace.annotated(extra.into_records());
        assert_eq!(annotated.len(), 3);
        let keys: Vec<u64> = annotated.records().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, ANNOTATION_KEY, 2]);
        assert_eq!(trace.len(), 2, "original untouched");
    }

    /// `(at, key)` of each lane's records as `lanes()` yields them.
    fn lane_views(trace: &QueryTrace) -> Vec<(u32, Vec<(u64, u64)>)> {
        trace
            .lanes()
            .map(|l| {
                let stamps = l.iter().map(|r| (r.at.as_nanos(), r.key)).collect();
                (l.lane(), stamps)
            })
            .collect()
    }

    #[test]
    fn engine_lanes_are_read_in_append_order() {
        let t = SimTime::from_nanos;
        // Non-decreasing stamps, same-instant records of different queries
        // out of key order: the lane reads in place, untouched.
        let mut r = FlightRecorder::new(4);
        r.record(t(10), 9, ev(9));
        r.record(t(10), 2, ev(2));
        r.record(t(10), ANNOTATION_KEY, note());
        r.record(t(30), 1, ev(1));
        let trace = QueryTrace::merge([r]);
        assert_eq!(
            lane_views(&trace),
            vec![(4, vec![(10, 9), (10, 2), (10, ANNOTATION_KEY), (30, 1)])]
        );
        let keys: Vec<u64> = trace.records().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![2, 9, ANNOTATION_KEY, 1], "global order sorts");
    }

    #[test]
    fn a_lane_whose_stamps_go_backwards_is_read_in_stamp_order() {
        let t = SimTime::from_nanos;
        let mut r = FlightRecorder::new(2);
        r.record(t(100), ANNOTATION_KEY, note());
        r.record(t(2_500), ANNOTATION_KEY, note());
        r.record(t(200), 0, ev(0));
        let trace = QueryTrace::merge([r]);
        assert_eq!(
            lane_views(&trace),
            vec![(
                2,
                vec![(100, ANNOTATION_KEY), (200, 0), (2_500, ANNOTATION_KEY)]
            )]
        );
        assert_eq!(trace.horizon(), t(2_500));
        // A lifecycle record keyed by another query's id also loses the
        // in-place read, even with stamps in order.
        let mut r = FlightRecorder::new(0);
        r.record(t(5), 8, ev(3));
        r.record(t(5), 1, ev(1));
        let trace = QueryTrace::merge([r]);
        assert_eq!(lane_views(&trace), vec![(0, vec![(5, 1), (5, 8)])]);
    }

    #[test]
    fn buffers_sharing_a_lane_id_become_one_lane() {
        let t = SimTime::from_nanos;
        let mut a = FlightRecorder::new(1);
        a.record(t(10), 3, ev(3));
        a.record(t(40), 3, ev(3));
        let mut b = FlightRecorder::new(1);
        b.record(t(20), 5, ev(5));
        b.record(
            t(40),
            3,
            TraceEvent::ServiceAbort {
                query: 3,
                worker: 1,
            },
        );
        let mut c = FlightRecorder::new(0);
        c.record(t(15), 1, ev(1));
        let trace = QueryTrace::merge([a, c, b]);
        assert_eq!(trace.len(), 5);
        assert_eq!(
            lane_views(&trace),
            vec![
                (0, vec![(15, 1)]),
                (1, vec![(10, 3), (20, 5), (40, 3), (40, 3)]),
            ]
        );
        // The two `(40, 3)` records tie on `(at, key, seq)`: hand-in order
        // decides, in the lane view and the global order alike.
        let view: Vec<u64> = trace
            .lanes()
            .nth(1)
            .unwrap()
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(view, vec![0, 0, 1, 1]);
        let tied: Vec<&TraceRecord> = trace.records().iter().filter(|r| r.at == t(40)).collect();
        assert_eq!(tied.len(), 2);
        assert_eq!(tied[0].event, ev(3), "first buffer's record first");
    }

    #[test]
    fn annotated_joins_a_lane_the_trace_already_has() {
        let t = SimTime::from_nanos;
        let mut r = FlightRecorder::new(3);
        r.record(t(10), 1, ev(1));
        r.record(t(30), 2, ev(2));
        let trace = QueryTrace::merge([r]);
        let mut extra = FlightRecorder::new(3);
        extra.record(t(20), ANNOTATION_KEY, note());
        extra.record(
            t(30),
            2,
            TraceEvent::ServiceAbort {
                query: 2,
                worker: 0,
            },
        );
        let annotated = trace.annotated(extra.into_records());
        assert_eq!(
            lane_views(&annotated),
            vec![(3, vec![(10, 1), (20, ANNOTATION_KEY), (30, 2), (30, 2)])]
        );
        let at_30: Vec<TraceEvent> = annotated
            .records()
            .iter()
            .filter(|r| r.at == t(30))
            .map(|r| r.event)
            .collect();
        assert_eq!(at_30[0], ev(2), "the trace's own record first");
        assert_eq!(at_30.len(), 2);
        assert_eq!(lane_views(&trace), vec![(3, vec![(10, 1), (30, 2)])]);
    }

    #[test]
    fn seq_breaks_ties_within_a_lane() {
        let t = SimTime::from_nanos(42);
        let mut r = FlightRecorder::new(3);
        r.record(t, 7, ev(70));
        r.record(t, 7, ev(71));
        let merged = QueryTrace::merge([r]);
        assert_eq!(merged.records()[0].event, ev(70));
        assert_eq!(merged.records()[1].event, ev(71));
        assert_eq!(merged.horizon(), t);
    }
}
