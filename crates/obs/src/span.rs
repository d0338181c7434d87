//! The span assembler: every served query of a lane as one [`Completion`],
//! read straight from the recorder's spans or, for a lane whose records do
//! not read as spans, re-folded from its records.
//!
//! `analyze`, `check_conservation` and attribution all read lifecycles
//! through here, so a hand-built lane with duplicate arrivals, completes
//! without a start or stamps going backwards gets the same answer from
//! every analysis as an engine lane would: the fold keeps each query's
//! arrival and latest service start, and a `Complete` of a query whose
//! arrival and start it saw yields the completion.

use crate::event::TraceEvent;
use crate::recorder::{LaneView, QuerySpan, TraceRecord};
use std::collections::BTreeMap;

/// A completion whose arrival and service start its lane recorded, with
/// the exact integer split the breakdown and attribution both use:
/// `latency = frontend + wait + clean + inflation`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    pub(crate) lane: u32,
    pub(crate) query: u64,
    pub(crate) group: usize,
    pub(crate) arrival_ns: u64,
    pub(crate) dispatched_ns: u64,
    /// The completing execution's start.
    pub(crate) start_ns: u64,
    pub(crate) clean_ns: u64,
    pub(crate) complete_ns: u64,
    pub(crate) latency_ns: u64,
}

impl Completion {
    /// Serialized frontend overhead: arrival → dispatched.
    pub(crate) fn frontend_ns(&self) -> u64 {
        self.dispatched_ns - self.arrival_ns
    }

    /// Wait: dispatched → the completing execution's start.
    pub(crate) fn wait_ns(&self) -> u64 {
        self.start_ns - self.dispatched_ns
    }

    /// Degrade inflation: the completing execution's measured time − its
    /// clean service time. On an engine trace the measured time is the
    /// start's degrade-scaled `base_ns`; a hand-built lane may make it
    /// shorter than clean, hence the sign.
    pub(crate) fn inflation_ns(&self) -> i128 {
        i128::from(self.complete_ns - self.start_ns) - i128::from(self.clean_ns)
    }

    fn of_span(lane: u32, query: u64, s: &QuerySpan) -> Self {
        let at = s.arrival_ns;
        Completion {
            lane,
            query,
            group: usize::from(s.group),
            arrival_ns: at,
            dispatched_ns: at + u64::from(s.dispatch_ns),
            start_ns: at + u64::from(s.start_ns),
            clean_ns: u64::from(s.clean_ns),
            complete_ns: at + u64::from(s.latency_ns),
            latency_ns: u64::from(s.latency_ns),
        }
    }
}

/// What the record fold keeps of one query until it completes.
#[derive(Debug, Clone, Copy, Default)]
struct Open {
    group: usize,
    arrival_ns: u64,
    dispatched_ns: u64,
    start_ns: u64,
    clean_ns: u64,
    arrived: bool,
    started: bool,
}

impl LaneView<'_> {
    /// Hands every completion of the lane to `f` (in no particular order).
    pub(crate) fn for_each_completion(&self, mut f: impl FnMut(Completion)) {
        let lane = self.lane();
        if let Some(rec) = self.as_spans() {
            for (query, s) in rec.spans().filter(|(_, s)| s.is_complete()) {
                f(Completion::of_span(lane, query, s));
            }
            return;
        }
        let mut open: BTreeMap<u64, Open> = BTreeMap::new();
        for r in self.iter() {
            let at_ns = r.at.as_nanos();
            match r.event {
                TraceEvent::Arrival {
                    query,
                    group,
                    dispatched_ns,
                    ..
                } => {
                    let q = open.entry(query).or_default();
                    q.group = group;
                    q.arrival_ns = at_ns;
                    q.dispatched_ns = dispatched_ns;
                    q.arrived = true;
                }
                TraceEvent::ServiceStart {
                    query, clean_ns, ..
                } => {
                    let q = open.entry(query).or_default();
                    q.start_ns = at_ns;
                    q.clean_ns = clean_ns;
                    q.started = true;
                }
                TraceEvent::Complete {
                    query, latency_ns, ..
                } => {
                    if let Some(q) = open.get(&query).filter(|q| q.arrived && q.started) {
                        f(Completion {
                            lane,
                            query,
                            group: q.group,
                            arrival_ns: q.arrival_ns,
                            dispatched_ns: q.dispatched_ns,
                            start_ns: q.start_ns,
                            clean_ns: q.clean_ns,
                            complete_ns: at_ns,
                            latency_ns,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    /// The lowest query whose lifecycle does not balance — not exactly one
    /// arrival and one completion — as `(query, arrivals, completions)`.
    pub(crate) fn unbalanced(&self) -> Option<(u64, u64, u64)> {
        if let Some(rec) = self.as_spans() {
            // Each span is its query's only arrival and, once complete,
            // its only completion (none is void); span `i` is query `i`.
            let counts = rec.counts();
            if counts.arrivals == counts.completed {
                return None;
            }
            return rec
                .spans()
                .find(|(_, s)| !s.is_complete())
                .map(|(query, _)| (query, 1, 0));
        }
        let mut per_query: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for r in self.iter() {
            match r.event {
                TraceEvent::Arrival { query, .. } => per_query.entry(query).or_default().0 += 1,
                TraceEvent::Complete { query, .. } => per_query.entry(query).or_default().1 += 1,
                _ => {}
            }
        }
        per_query
            .into_iter()
            .find(|&(_, counts)| counts != (1, 1))
            .map(|(query, (arrivals, completed))| (query, arrivals, completed))
    }

    /// The lane's records that belong to no query — reconfig steps, loans,
    /// faults and the other annotations — in the lane's read order.
    pub(crate) fn annotations(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let (plain, all) = match self.as_spans() {
            Some(rec) => (Some(rec.plain().iter().copied()), None),
            None => (None, Some(self.iter())),
        };
        plain
            .into_iter()
            .flatten()
            .chain(all.into_iter().flatten())
            .filter(|r| r.event.query().is_none())
    }
}
