//! The flight recorder: one packed span per served query, per-lane buffers
//! that every analysis reads in place.
//!
//! Each engine lane (a shard's dispatch core, or the cluster gateway) owns a
//! private [`FlightRecorder`]. Recording touches only the recorder — no
//! locks, no clocks, no I/O — so a lane's buffer is exactly as deterministic
//! as the lane itself, which invariant 11 already guarantees is thread-count
//! invariant. At run end the buffers become one [`QueryTrace`] without being
//! copied.
//!
//! A served query's `Arrival`, latest `ServiceStart` and `Complete` are
//! kept as one 48-byte `QuerySpan`, opened at the arrival and filled in
//! as the query starts and completes. The span stores nothing its engine
//! lane already implies:
//!
//! - span *i* of a lane is query *i*, since the dispatch core numbers its
//!   queries densely from 0, so the index is the query id and finds an
//!   open span without a lookup table;
//! - every arrival of a group carries the group's one SLA, kept once per
//!   group;
//! - a query completes in the group it arrived in, so one group is kept;
//! - a query completes on the worker of its latest start, so one worker is
//!   kept.
//!
//! The lifecycle exceptions (`Enqueue`, `Stash`, `ServiceAbort`,
//! `Requeue`) and the gateway's `RouteDecision` and `Shed` are 24-byte
//! packed events. Everything else — annotations, a start that an abort or
//! a later start displaced, and any record too wide for its packed field —
//! is kept as a plain [`TraceRecord`]. Every record keeps its `seq`, so
//! [`FlightRecorder::iter`] gives back each record exactly as it was
//! recorded, in append order.
//!
//! A lifecycle that cannot form a span stays plain records: a duplicate,
//! missing or out-of-order arrival id, a complete without a start, stamps
//! that go backwards, a key that is not its own query, a value wider than
//! its packed field, or a record that breaks one of the identities above.
//! The recorder notes while recording whether its lane's spans tell the
//! whole story, and the analyses fall back to re-folding the lane's
//! records when they do not (see [`LaneView`]).
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

/// A span seq not filled in yet; as the arrival seq, a void span.
const NONE: u32 = u32::MAX;

/// Whether `v` fits a `u32` packed field.
#[inline]
fn fits32(v: u64) -> bool {
    v <= u64::from(u32::MAX)
}

/// Whether `v` fits a `u16` packed field.
#[inline]
fn fits16(v: usize) -> bool {
    v <= usize::from(u16::MAX)
}

/// One query's `Arrival`, latest `ServiceStart` and `Complete`, packed
/// into 48 bytes. Stamps after the arrival are 32-bit offsets from it, and
/// each record's `seq` is kept, so the span gives back its records
/// exactly. What the lane implies is not stored: the query id is the
/// span's index in its lane, the SLA is the lane's one SLA for the group,
/// the completing group is the arrival's, and the completing worker is the
/// latest start's. A record that breaks one of these voids the span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuerySpan {
    pub(crate) arrival_ns: u64,
    /// `dispatched_ns − arrival`.
    pub(crate) dispatch_ns: u32,
    /// Latest service start − arrival.
    pub(crate) start_ns: u32,
    /// Completion − arrival, which is the recorded `latency_ns`.
    pub(crate) latency_ns: u32,
    pub(crate) clean_ns: u32,
    /// The latest start's degrade-scaled service time.
    pub(crate) base_ns: u32,
    /// The arrival's, the latest start's and the completion's `seq`
    /// ([`NONE`] while not recorded; a void span's arrival seq is
    /// [`NONE`]).
    pub(crate) seq: [u32; 3],
    /// The arrival's group, which is also the completion's.
    pub(crate) group: u16,
    pub(crate) batch: u16,
    pub(crate) gpcs: u16,
    /// The latest start's worker, which is also the completing one.
    pub(crate) worker: u16,
}

const _: () = assert!(std::mem::size_of::<QuerySpan>() == 48);

impl QuerySpan {
    pub(crate) fn is_started(&self) -> bool {
        self.seq[1] != NONE
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.seq[2] != NONE
    }

    /// Arrived and neither complete nor void.
    fn is_open(&self) -> bool {
        self.seq[0] != NONE && self.seq[2] == NONE
    }

    fn arrival_record(&self, lane: u32, query: u64, sla_ns: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(self.arrival_ns),
            key: query,
            lane,
            seq: u64::from(self.seq[0]),
            event: TraceEvent::Arrival {
                query,
                group: usize::from(self.group),
                batch: usize::from(self.batch),
                dispatched_ns: self.arrival_ns + u64::from(self.dispatch_ns),
                sla_ns,
            },
        }
    }

    fn start_record(&self, lane: u32, query: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(self.arrival_ns + u64::from(self.start_ns)),
            key: query,
            lane,
            seq: u64::from(self.seq[1]),
            event: TraceEvent::ServiceStart {
                query,
                worker: usize::from(self.worker),
                gpcs: u32::from(self.gpcs),
                clean_ns: u64::from(self.clean_ns),
                base_ns: u64::from(self.base_ns),
            },
        }
    }

    fn complete_record(&self, lane: u32, query: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(self.arrival_ns + u64::from(self.latency_ns)),
            key: query,
            lane,
            seq: u64::from(self.seq[2]),
            event: TraceEvent::Complete {
                query,
                group: usize::from(self.group),
                worker: usize::from(self.worker),
                latency_ns: u64::from(self.latency_ns),
            },
        }
    }
}

/// What a [`PackedEvent`] records. Lifecycle kinds take their query id from
/// the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackedKind {
    /// `RouteDecision { model: a, shard: b, pinned }`.
    Route { pinned: bool },
    /// `Shed { model: a, shard: b }`.
    Shed,
    /// `Enqueue { group: a }`.
    Enqueue,
    /// `Stash { group: a }`.
    Stash,
    /// `ServiceAbort { worker: a }`.
    Abort,
    /// `Requeue`.
    Requeue,
}

/// A routing decision, shed or lifecycle exception, packed into 24 bytes.
#[derive(Debug, Clone, Copy)]
struct PackedEvent {
    at: u64,
    seq: u32,
    key: u32,
    a: u16,
    b: u16,
    kind: PackedKind,
}

impl PackedEvent {
    fn record(&self, lane: u32) -> TraceRecord {
        let query = u64::from(self.key);
        let (a, b) = (usize::from(self.a), usize::from(self.b));
        let event = match self.kind {
            PackedKind::Route { pinned } => TraceEvent::RouteDecision {
                model: a,
                shard: b,
                pinned,
            },
            PackedKind::Shed => TraceEvent::Shed { model: a, shard: b },
            PackedKind::Enqueue => TraceEvent::Enqueue { query, group: a },
            PackedKind::Stash => TraceEvent::Stash { query, group: a },
            PackedKind::Abort => TraceEvent::ServiceAbort { query, worker: a },
            PackedKind::Requeue => TraceEvent::Requeue { query },
        };
        TraceRecord {
            at: SimTime::from_nanos(self.at),
            key: u64::from(self.key),
            lane,
            seq: u64::from(self.seq),
            event,
        }
    }
}

/// Items per arena chunk: large enough to amortize the chunk-list
/// bookkeeping, small enough that a lane's unfilled last chunk stays a few
/// KiB; a quiet lane's first chunk grows by doubling up to it.
const CHUNK: usize = 256;

/// An append-only chunked arena: appending never moves a filled chunk, so
/// a hot lane never pays the doubling-growth memcpy of a flat `Vec`, and
/// item `i` sits at a fixed place for in-place updates.
#[derive(Debug, Clone)]
struct Chunked<T> {
    /// The chunk being appended to — kept separate from `full` so the push
    /// is a direct `Vec::push`.
    current: Vec<T>,
    /// Filled chunks of exactly [`CHUNK`] items, in append order.
    full: Vec<Vec<T>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            current: Vec::new(),
            full: Vec::new(),
        }
    }
}

impl<T> Chunked<T> {
    fn len(&self) -> usize {
        self.full.len() * CHUNK + self.current.len()
    }

    /// Appends `item` and returns its index.
    #[inline]
    fn push(&mut self, item: T) -> usize {
        if self.current.len() == self.current.capacity() {
            self.grow();
        }
        self.current.push(item);
        self.len() - 1
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&T> {
        match self.full.get(i / CHUNK) {
            Some(chunk) => chunk.get(i % CHUNK),
            None => self.current.get(i - self.full.len() * CHUNK),
        }
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> &mut T {
        let filled = self.full.len() * CHUNK;
        if i < filled {
            &mut self.full[i / CHUNK][i % CHUNK]
        } else {
            &mut self.current[i - filled]
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.full.iter().flatten().chain(&self.current)
    }

    /// Gives back the unfilled tail of the last chunk.
    fn shrink(&mut self) {
        self.current.shrink_to_fit();
    }

    /// Doubles a short first chunk, or rolls a full one into `full` — out
    /// of line so the inlined push stays small.
    #[cold]
    fn grow(&mut self) {
        let len = self.current.len();
        if len < CHUNK {
            self.current.reserve_exact((2 * len).clamp(16, CHUNK) - len);
        } else {
            let filled = std::mem::replace(&mut self.current, Vec::with_capacity(CHUNK));
            self.full.push(filled);
        }
    }
}

/// Per-kind record counts a lane keeps as it records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) arrivals: u64,
    pub(crate) completed: u64,
    pub(crate) routed: u64,
    pub(crate) shed: u64,
}

impl Counts {
    fn note(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Arrival { .. } => self.arrivals += 1,
            TraceEvent::Complete { .. } => self.completed += 1,
            TraceEvent::RouteDecision { .. } => self.routed += 1,
            TraceEvent::Shed { .. } => self.shed += 1,
            _ => {}
        }
    }

    fn add(mut self, other: Counts) -> Counts {
        self.arrivals += other.arrivals;
        self.completed += other.completed;
        self.routed += other.routed;
        self.shed += other.shed;
        self
    }
}

/// A per-lane trace buffer: spans, packed events and plain records.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    lane: u32,
    /// Records so far: the next record's `seq`.
    seq: u64,
    /// Span `i` is query `i`'s: one per arrival of the lane's next id, in
    /// arrival order (void ones included).
    spans: Chunked<QuerySpan>,
    /// Group → the SLA every span of the group carries (`None` until the
    /// group's first span).
    slas: Vec<Option<u64>>,
    events: Chunked<PackedEvent>,
    /// Every other record, ascending by `seq` (a recorder built from
    /// records holds them here as handed in).
    plain: Vec<TraceRecord>,
    /// Latest stamp so far.
    horizon_ns: u64,
    counts: Counts,
    /// Stamps never went backwards, `seq` rose, and every lifecycle record
    /// was keyed by its own query.
    in_place: bool,
    /// Every `Arrival` and `Complete` is part of a span.
    whole_spans: bool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(0)
    }
}

impl FlightRecorder {
    /// Creates an empty recorder for `lane`.
    #[must_use]
    pub fn new(lane: u32) -> Self {
        FlightRecorder {
            lane,
            seq: 0,
            spans: Chunked::default(),
            slas: Vec::new(),
            events: Chunked::default(),
            plain: Vec::new(),
            horizon_ns: 0,
            counts: Counts::default(),
            in_place: true,
            whole_spans: true,
        }
    }

    /// A finished buffer holding `records` as they are (stamps included).
    fn from_records(lane: u32, records: Vec<TraceRecord>) -> Self {
        let mut out = FlightRecorder::new(lane);
        out.seq = records.len() as u64;
        let mut prev: Option<&TraceRecord> = None;
        for r in &records {
            out.in_place &= prev.is_none_or(|p| p.at <= r.at && p.seq < r.seq)
                && r.event.query().is_none_or(|q| q == r.key);
            out.whole_spans &= !matches!(
                r.event,
                TraceEvent::Arrival { .. } | TraceEvent::Complete { .. }
            );
            out.horizon_ns = out.horizon_ns.max(r.at.as_nanos());
            out.counts.note(&r.event);
            prev = Some(r);
        }
        out.plain = records;
        out
    }

    /// The lane this recorder stamps onto its records.
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Number of records buffered so far (a span holds up to three).
    #[must_use]
    pub fn len(&self) -> usize {
        self.seq as usize
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }

    /// Every buffered record, exactly as recorded, in append order.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        Records::new(self)
    }

    /// Consumes the recorder, yielding its records in append order.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.iter().collect()
    }

    /// The spans with their query ids, in arrival order (void ones
    /// included).
    pub(crate) fn spans(&self) -> impl Iterator<Item = (u64, &QuerySpan)> + '_ {
        (0u64..).zip(self.spans.iter())
    }

    /// The SLA every span of `group` carries (0 for a group with none).
    pub(crate) fn sla_ns(&self, group: u16) -> u64 {
        self.slas
            .get(usize::from(group))
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    /// The plain records, ascending by `seq`.
    pub(crate) fn plain(&self) -> &[TraceRecord] {
        &self.plain
    }

    /// The packed events as records, in append order.
    pub(crate) fn packed(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.events.iter().map(|e| e.record(self.lane))
    }

    /// The latest stamp recorded.
    pub(crate) fn horizon_ns(&self) -> u64 {
        self.horizon_ns
    }

    pub(crate) fn counts(&self) -> Counts {
        self.counts
    }

    /// Whether the spans and the plain records tell the whole story of
    /// every lifecycle in append order: the lane reads in place, and every
    /// arrival and completion is part of a span.
    pub(crate) fn reads_as_spans(&self) -> bool {
        self.in_place && self.whole_spans
    }

    /// Frees the unfilled buffer tails.
    fn seal(&mut self) {
        self.spans.shrink();
        self.events.shrink();
        self.plain.shrink_to_fit();
    }

    /// The index of `query`'s span while it is open.
    #[inline]
    fn open_span(&self, query: u64) -> Option<usize> {
        let i = usize::try_from(query).ok()?;
        self.spans.get(i)?.is_open().then_some(i)
    }

    /// Whether an arrival of `group` carrying `sla_ns` keeps the group's
    /// one SLA; the group's first arrival sets it.
    #[inline]
    fn keeps_sla(&mut self, group: usize, sla_ns: u64) -> bool {
        if let Some(&Some(kept)) = self.slas.get(group) {
            return kept == sla_ns;
        }
        if group >= self.slas.len() {
            self.slas.resize(group + 1, None);
        }
        self.slas[group] = Some(sla_ns);
        true
    }

    /// Opens a span for the arrival of the lane's next query id; one that
    /// does not pack leaves a void span, so later ids keep their index.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn arrive(
        &mut self,
        at_ns: u64,
        key: u64,
        seq: u64,
        query: u64,
        group: usize,
        batch: usize,
        dispatched_ns: u64,
        sla_ns: u64,
    ) -> bool {
        if key != query {
            self.in_place = false;
            return false;
        }
        if query != self.spans.len() as u64 {
            return false;
        }
        let packs = seq < u64::from(NONE)
            && fits16(group)
            && fits16(batch)
            && dispatched_ns >= at_ns
            && fits32(dispatched_ns - at_ns)
            && self.keeps_sla(group, sla_ns);
        let arrival_seq = if packs { seq as u32 } else { NONE };
        self.spans.push(QuerySpan {
            arrival_ns: at_ns,
            dispatch_ns: dispatched_ns.wrapping_sub(at_ns) as u32,
            start_ns: 0,
            latency_ns: 0,
            clean_ns: 0,
            base_ns: 0,
            seq: [arrival_seq, NONE, NONE],
            group: group as u16,
            batch: batch as u16,
            gpcs: 0,
            worker: 0,
        });
        packs
    }

    /// Sets an open query's latest start, if it packs; an earlier start
    /// becomes a plain record.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn start(
        &mut self,
        at_ns: u64,
        key: u64,
        seq: u64,
        query: u64,
        worker: usize,
        gpcs: u32,
        clean_ns: u64,
        base_ns: u64,
    ) -> bool {
        if key != query {
            self.in_place = false;
            return false;
        }
        let Some(i) = self.open_span(query) else {
            return false;
        };
        let span = *self.spans.get_mut(i);
        let packs = seq < u64::from(NONE)
            && at_ns >= span.arrival_ns
            && fits32(at_ns - span.arrival_ns)
            && fits16(worker)
            && gpcs <= u32::from(u16::MAX)
            && fits32(clean_ns)
            && fits32(base_ns);
        if !packs {
            self.void(i);
            return false;
        }
        if span.is_started() {
            self.keep_plain(span.start_record(self.lane, query));
        }
        let span = self.spans.get_mut(i);
        span.start_ns = (at_ns - span.arrival_ns) as u32;
        span.clean_ns = clean_ns as u32;
        span.base_ns = base_ns as u32;
        span.gpcs = gpcs as u16;
        span.worker = worker as u16;
        span.seq[1] = seq as u32;
        true
    }

    /// Closes an open query's span, if the completion packs.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        at_ns: u64,
        key: u64,
        seq: u64,
        query: u64,
        group: usize,
        worker: usize,
        latency_ns: u64,
    ) -> bool {
        if key != query {
            self.in_place = false;
            return false;
        }
        let Some(i) = self.open_span(query) else {
            return false;
        };
        let span = self.spans.get_mut(i);
        let packs = seq < u64::from(NONE)
            && span.is_started()
            && at_ns >= span.arrival_ns
            && at_ns - span.arrival_ns == latency_ns
            && fits32(latency_ns)
            && group == usize::from(span.group)
            && worker == usize::from(span.worker);
        if !packs {
            self.void(i);
            return false;
        }
        span.latency_ns = latency_ns as u32;
        span.seq[2] = seq as u32;
        true
    }

    /// An abort ends the open query's current execution: its start becomes
    /// a plain record.
    #[inline]
    fn abort(&mut self, key: u64, query: u64) {
        let Some(i) = self.open_span(query).filter(|_| key == query) else {
            return;
        };
        let span = *self.spans.get_mut(i);
        if span.is_started() {
            self.keep_plain(span.start_record(self.lane, query));
            self.spans.get_mut(i).seq[1] = NONE;
        }
    }

    /// Packs a routing decision, shed or lifecycle exception, if it fits.
    #[inline]
    fn pack(
        &mut self,
        at_ns: u64,
        key: u64,
        seq: u64,
        kind: PackedKind,
        a: usize,
        b: usize,
    ) -> bool {
        let packs = fits32(key) && seq < u64::from(NONE) && fits16(a) && fits16(b);
        if packs {
            self.events.push(PackedEvent {
                at: at_ns,
                seq: seq as u32,
                key: key as u32,
                a: a as u16,
                b: b as u16,
                kind,
            });
        }
        packs
    }

    /// [`pack`](Self::pack) for a lifecycle exception of `query`.
    #[inline]
    fn pack_own(
        &mut self,
        at_ns: u64,
        key: u64,
        seq: u64,
        query: u64,
        kind: PackedKind,
        a: usize,
    ) -> bool {
        if key != query {
            self.in_place = false;
            return false;
        }
        self.pack(at_ns, key, seq, kind, a, 0)
    }

    /// Gives up on open span `i`: the lifecycle so far becomes plain
    /// records.
    #[cold]
    fn void(&mut self, i: usize) {
        let span = *self.spans.get_mut(i);
        let query = i as u64;
        self.keep_plain(span.arrival_record(self.lane, query, self.sla_ns(span.group)));
        if span.is_started() {
            self.keep_plain(span.start_record(self.lane, query));
        }
        self.spans.get_mut(i).seq = [NONE; 3];
    }

    /// Keeps `r` as a plain record, in `seq` order.
    #[inline(never)]
    fn keep_plain(&mut self, r: TraceRecord) {
        if matches!(
            r.event,
            TraceEvent::Arrival { .. } | TraceEvent::Complete { .. }
        ) {
            self.whole_spans = false;
        }
        match self.plain.last() {
            Some(last) if last.seq > r.seq => {
                let at = self.plain.partition_point(|p| p.seq < r.seq);
                self.plain.insert(at, r);
            }
            _ => self.plain.push(r),
        }
    }
}

impl TraceSink for FlightRecorder {
    // Out of line: inlined, the packing would grow every engine hook site,
    // and with it the untraced hot paths that only test the `Option`
    // around the call.
    #[inline(never)]
    fn record(&mut self, at: SimTime, key: u64, event: TraceEvent) {
        let at_ns = at.as_nanos();
        if at_ns < self.horizon_ns {
            self.in_place = false;
        } else {
            self.horizon_ns = at_ns;
        }
        let seq = self.seq;
        self.seq += 1;
        self.counts.note(&event);
        let packed = match event {
            TraceEvent::Arrival {
                query,
                group,
                batch,
                dispatched_ns,
                sla_ns,
            } => self.arrive(at_ns, key, seq, query, group, batch, dispatched_ns, sla_ns),
            TraceEvent::ServiceStart {
                query,
                worker,
                gpcs,
                clean_ns,
                base_ns,
            } => self.start(at_ns, key, seq, query, worker, gpcs, clean_ns, base_ns),
            TraceEvent::Complete {
                query,
                group,
                worker,
                latency_ns,
            } => self.complete(at_ns, key, seq, query, group, worker, latency_ns),
            TraceEvent::RouteDecision {
                model,
                shard,
                pinned,
            } => self.pack(at_ns, key, seq, PackedKind::Route { pinned }, model, shard),
            TraceEvent::Shed { model, shard } => {
                self.pack(at_ns, key, seq, PackedKind::Shed, model, shard)
            }
            TraceEvent::Enqueue { query, group } => {
                self.pack_own(at_ns, key, seq, query, PackedKind::Enqueue, group)
            }
            TraceEvent::Stash { query, group } => {
                self.pack_own(at_ns, key, seq, query, PackedKind::Stash, group)
            }
            TraceEvent::ServiceAbort { query, worker } => {
                self.abort(key, query);
                self.pack_own(at_ns, key, seq, query, PackedKind::Abort, worker)
            }
            TraceEvent::Requeue { query } => {
                self.pack_own(at_ns, key, seq, query, PackedKind::Requeue, 0)
            }
            _ => false,
        };
        if !packed {
            self.keep_plain(TraceRecord {
                at,
                key,
                lane: self.lane,
                seq,
                event,
            });
        }
    }
}

/// Where record `seq` of a recorder is kept: `index << 3 | part`.
const AT_ARRIVAL: u64 = 0;
const AT_START: u64 = 1;
const AT_COMPLETE: u64 = 2;
const AT_EVENT: u64 = 3;
const AT_PLAIN: u64 = 4;

/// A recorder's records in append order ([`FlightRecorder::iter`]).
#[derive(Debug, Clone)]
struct Records<'a> {
    rec: &'a FlightRecorder,
    /// Where each record is kept, indexed by `seq`; empty for a recorder
    /// built from records, which yields its plain records as handed in.
    order: Vec<u64>,
    next: usize,
}

impl<'a> Records<'a> {
    fn new(rec: &'a FlightRecorder) -> Self {
        let mut order = Vec::new();
        if rec.spans.len() + rec.events.len() > 0 {
            // Every recorded seq below `rec.seq` is kept in exactly one
            // place: a span, a packed event or a plain record.
            order = vec![0; rec.len()];
            for (i, s) in rec.spans() {
                let at = i << 3;
                for (part, seq) in [AT_ARRIVAL, AT_START, AT_COMPLETE].into_iter().zip(s.seq) {
                    if seq != NONE {
                        order[seq as usize] = at | part;
                    }
                }
            }
            for (i, e) in rec.events.iter().enumerate() {
                order[e.seq as usize] = (i as u64) << 3 | AT_EVENT;
            }
            for (i, p) in rec.plain.iter().enumerate() {
                order[p.seq as usize] = (i as u64) << 3 | AT_PLAIN;
            }
            debug_assert_eq!(
                rec.spans
                    .iter()
                    .flat_map(|s| s.seq)
                    .filter(|&q| q != NONE)
                    .count()
                    + rec.events.len()
                    + rec.plain.len(),
                rec.len(),
                "every seq is kept once"
            );
        }
        Records {
            rec,
            order,
            next: 0,
        }
    }
}

impl Iterator for Records<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let rec = self.rec;
        let i = self.next;
        self.next += 1;
        if self.order.is_empty() {
            return rec.plain.get(i).copied();
        }
        let code = *self.order.get(i)?;
        // A span's index is its query id.
        let (at, query) = ((code >> 3) as usize, code >> 3);
        Some(match code & 7 {
            AT_ARRIVAL => {
                let s = rec.spans.get(at)?;
                s.arrival_record(rec.lane, query, rec.sla_ns(s.group))
            }
            AT_START => rec.spans.get(at)?.start_record(rec.lane, query),
            AT_COMPLETE => rec.spans.get(at)?.complete_record(rec.lane, query),
            AT_EVENT => rec.events.get(at)?.record(rec.lane),
            _ => rec.plain[at],
        })
    }
}

/// A finished trace: the recorders' buffers, kept per lane as recorded.
///
/// The analyses (`analyze`, `check_conservation`,
/// `MetricRegistry::from_trace`, attribution) read one lane at a time
/// through [`lanes`]. A lane whose buffer reads as spans is folded span by
/// span; its records, where a fold needs them, come in append order. That
/// order serves as well as the global `(time, key, lane, seq)` order: an
/// engine lane appends its stamps in non-decreasing order and keys every
/// lifecycle event by its own query id, so each query's records appear in
/// the same relative order either way. Only same-instant records of
/// different queries can trade places, and every fold is invariant under
/// that — `tests/observability.rs` replays the global order through the
/// online fold to check it.
///
/// A lane that does not read in place — a hand-built buffer whose stamps go
/// backwards, or several buffers handed in under one lane id — is put in
/// `(time, key, seq)` order when it is read, so it too gives the results
/// the global order would.
///
/// The global order itself is built only on the first [`records`] call,
/// for the exporters, `==` and tests. [`merge`] touches no record, so the
/// traced run's own cost is the recording alone.
///
/// [`lanes`]: QueryTrace::lanes
/// [`merge`]: QueryTrace::merge
/// [`records`]: QueryTrace::records
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// One entry per lane id, ascending: the buffers handed in under it,
    /// in hand-in order (exactly one for an engine lane).
    lanes: Vec<Vec<FlightRecorder>>,
    /// Every record in global order, built on first use.
    global: OnceCell<Vec<TraceRecord>>,
}

/// One lane of a [`QueryTrace`], as the per-lane folds read it.
#[derive(Debug)]
pub struct LaneView<'a> {
    parts: &'a [FlightRecorder],
    /// The lane's records in `(time, key, seq)` order, unless its one
    /// buffer reads in place.
    sorted: Option<Vec<TraceRecord>>,
}

impl<'a> LaneView<'a> {
    fn new(parts: &'a [FlightRecorder]) -> Self {
        let sorted = match parts {
            [only] if only.in_place => None,
            parts => {
                let mut records: Vec<TraceRecord> =
                    parts.iter().flat_map(FlightRecorder::iter).collect();
                // Stable, so records equal on every key keep hand-in
                // order, exactly as in the global sort.
                records.sort_by_key(|r| (r.at, r.key, r.seq));
                Some(records)
            }
        };
        LaneView { parts, sorted }
    }

    /// The lane id.
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.parts[0].lane
    }

    /// The lane's records in an order every per-lane fold can read as if it
    /// were the global one (see [`QueryTrace`]).
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        match &self.sorted {
            Some(records) => LaneRecords::Sorted(records.iter()),
            None => LaneRecords::InPlace(Records::new(&self.parts[0])),
        }
    }

    /// The lane's one buffer, when its spans can be folded directly.
    pub(crate) fn as_spans(&self) -> Option<&'a FlightRecorder> {
        match self.parts {
            [only] if only.reads_as_spans() => Some(only),
            _ => None,
        }
    }

    /// Per-kind record counts over the whole lane.
    pub(crate) fn counts(&self) -> Counts {
        self.parts
            .iter()
            .fold(Counts::default(), |acc, p| acc.add(p.counts()))
    }
}

/// The records of a [`LaneView`], in its read order.
#[derive(Debug, Clone)]
enum LaneRecords<'a> {
    /// A buffer read in place, in append order.
    InPlace(Records<'a>),
    /// A lane put in `(time, key, seq)` order.
    Sorted(std::slice::Iter<'a, TraceRecord>),
}

impl Iterator for LaneRecords<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        match self {
            LaneRecords::InPlace(records) => records.next(),
            LaneRecords::Sorted(records) => records.next().copied(),
        }
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
        let mut lanes: Vec<Vec<FlightRecorder>> = Vec::new();
        for mut part in parts {
            part.seal();
            match lanes.last_mut() {
                Some(lane) if lane[0].lane == part.lane => lane.push(part),
                _ => lanes.push(vec![part]),
            }
        }
        QueryTrace {
            lanes,
            global: OnceCell::new(),
        }
    }

    /// Each lane, ascending by lane id.
    pub fn lanes(&self) -> impl Iterator<Item = LaneView<'_>> + '_ {
        self.lanes.iter().map(|parts| LaneView::new(parts))
    }

    /// Every record in global `(time, key, lane, seq)` order (built on
    /// first use).
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        self.global.get_or_init(|| {
            let mut records: Vec<TraceRecord> = Vec::with_capacity(self.len());
            for part in self.lanes.iter().flatten() {
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
        self.lanes.iter().flatten().map(FlightRecorder::len).sum()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Latest stamp in the trace, or zero when empty.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        let latest = self.lanes.iter().flatten().map(|p| p.horizon_ns()).max();
        SimTime::from_nanos(latest.unwrap_or(0))
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
        let own = self.lanes.iter().flatten().cloned();
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
    fn an_engine_shaped_lane_keeps_one_span_per_query_and_no_plain_record() {
        // Query q of group q % 3 arrives at 100q, starts at 100q + 30 on
        // worker q % 5 and completes there at 100q + 250, so three
        // lifecycles overlap; each group carries its own SLA.
        const N: u64 = 1_000;
        let mut records: Vec<(u64, u64, TraceEvent)> = Vec::new();
        for q in 0..N {
            let (at, group, worker) = (100 * q, (q % 3) as usize, (q % 5) as usize);
            records.push((
                at,
                q,
                TraceEvent::Arrival {
                    query: q,
                    group,
                    batch: 4,
                    dispatched_ns: at + 10,
                    sla_ns: 1_000 * (group as u64 + 1),
                },
            ));
            records.push((
                at + 30,
                q,
                TraceEvent::ServiceStart {
                    query: q,
                    worker,
                    gpcs: 7,
                    clean_ns: 150,
                    base_ns: 220,
                },
            ));
            records.push((
                at + 250,
                q,
                TraceEvent::Complete {
                    query: q,
                    group,
                    worker,
                    latency_ns: 250,
                },
            ));
        }
        records.sort_by_key(|&(at, ..)| at);
        let mut r = FlightRecorder::new(2);
        for &(at, key, event) in &records {
            r.record(SimTime::from_nanos(at), key, event);
        }
        assert_eq!(r.spans.len(), N as usize, "one span per query");
        assert!(r.spans().all(|(_, s)| s.is_complete()));
        assert!(r.plain.is_empty(), "no plain record");
        assert_eq!(r.events.len(), 0, "no packed event");
        assert!(r.reads_as_spans());
        let back: Vec<(u64, u64, TraceEvent)> = r
            .iter()
            .map(|rec| (rec.at.as_nanos(), rec.key, rec.event))
            .collect();
        assert_eq!(back, records, "the spans give back every record");
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
