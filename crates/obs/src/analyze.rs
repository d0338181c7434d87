//! Trace analysis: exact latency breakdowns and lifecycle conservation.
//!
//! The breakdown is exact **by construction**: for every completed query the
//! components are defined as differences of the query's own stamps, so
//!
//! ```text
//! frontend + plain_queue + reconfig_wait + service_clean
//!          + degrade_inflation  ==  latency
//! ```
//!
//! holds in integer nanoseconds with no residual. `reconfig_wait` is the part
//! of the wait interval overlapping reconfig-step downtime (intervals are
//! unioned first, so overlap never exceeds the wait), and `degrade_inflation`
//! (signed) is the completing execution's measured time (start → complete)
//! minus its clean service time. On an engine trace the measured time is
//! the start's degrade-scaled `base_ns`, since the engine has no service
//! noise.
//!
//! Both passes read the trace one lane at a time ([`QueryTrace::lanes`]),
//! through the span assembler shared with [`crate::attribute`]: a lane
//! the recorder kept as spans is folded span by span, with no per-query
//! table, and its per-kind counts were kept while recording.

use crate::event::TraceEvent;
use crate::recorder::QueryTrace;
use std::collections::BTreeMap;

/// Aggregate exact breakdown for one query class (model/group index).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassBreakdown {
    /// Model/group index this row aggregates.
    pub group: usize,
    /// Completed queries in the class.
    pub completed: u64,
    /// Σ end-to-end latency (arrival → complete).
    pub total_latency_ns: u128,
    /// Σ frontend serialization wait (arrival → dispatched).
    pub frontend_ns: u128,
    /// Σ wait not overlapping reconfig downtime (includes aborted partial
    /// executions of killed-and-requeued queries).
    pub queue_ns: u128,
    /// Σ wait overlapping reconfig-step downtime windows on the query's lane.
    pub reconfig_wait_ns: u128,
    /// Σ clean (profile-table) service time of the completing execution.
    pub service_clean_ns: u128,
    /// Σ signed degrade-induced inflation: the completing execution's
    /// measured time − its clean service time.
    pub degrade_inflation_ns: i128,
}

impl ClassBreakdown {
    /// Sum of all components; equals `total_latency_ns` exactly.
    #[must_use]
    pub fn components_sum(&self) -> i128 {
        self.frontend_ns as i128
            + self.queue_ns as i128
            + self.reconfig_wait_ns as i128
            + self.service_clean_ns as i128
            + self.degrade_inflation_ns
    }
}

/// Whole-trace analysis: per-class breakdowns plus admission totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// One row per query class seen, ascending by group index.
    pub classes: Vec<ClassBreakdown>,
    /// Gateway-level offered load (route decisions + sheds); zero when the
    /// trace has no gateway lane.
    pub offered: u64,
    /// Queries the router admitted.
    pub routed: u64,
    /// Queries the admission controller turned away.
    pub shed: u64,
    /// Core-level arrivals across all lanes.
    pub arrivals: u64,
    /// Completed queries across all lanes.
    pub completed: u64,
}

/// Unions possibly-overlapping `[start, end)` intervals in place.
pub(crate) fn union_intervals(intervals: &mut Vec<(u64, u64)>) {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for &(s, e) in intervals.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *intervals = merged;
}

/// Length of `[s, e)` ∩ the unioned `intervals`.
pub(crate) fn overlap_ns(intervals: &[(u64, u64)], s: u64, e: u64) -> u64 {
    // Unioned intervals are sorted and disjoint, so their ends rise too.
    let first = intervals.partition_point(|&(_, ie)| ie <= s);
    intervals[first..]
        .iter()
        .take_while(|&&(is, _)| is < e)
        .map(|&(is, ie)| ie.min(e) - is.max(s))
        .sum()
}

/// Computes the exact per-class latency breakdown and admission totals.
#[must_use]
pub fn analyze(trace: &QueryTrace) -> TraceAnalysis {
    let mut classes: BTreeMap<usize, ClassBreakdown> = BTreeMap::new();
    let mut out = TraceAnalysis::default();
    for lane in trace.lanes() {
        // The lane's reconfig downtime windows, unioned so overlap
        // accounting never double-counts when steps of different groups
        // coincide.
        let mut downtime: Vec<(u64, u64)> = lane
            .annotations()
            .filter_map(|r| match r.event {
                TraceEvent::ReconfigStep { downtime_ns, .. } => {
                    Some((r.at.as_nanos(), r.at.as_nanos() + downtime_ns))
                }
                _ => None,
            })
            .collect();
        union_intervals(&mut downtime);

        let counts = lane.counts();
        out.offered += counts.routed + counts.shed;
        out.routed += counts.routed;
        out.shed += counts.shed;
        out.arrivals += counts.arrivals;
        out.completed += counts.completed;
        lane.for_each_completion(|c| {
            let row = classes.entry(c.group).or_insert(ClassBreakdown {
                group: c.group,
                ..ClassBreakdown::default()
            });
            let reconfig = overlap_ns(&downtime, c.dispatched_ns, c.start_ns);
            row.completed += 1;
            row.total_latency_ns += u128::from(c.latency_ns);
            row.frontend_ns += u128::from(c.frontend_ns());
            row.queue_ns += u128::from(c.wait_ns() - reconfig);
            row.reconfig_wait_ns += u128::from(reconfig);
            row.service_clean_ns += u128::from(c.clean_ns);
            row.degrade_inflation_ns += c.inflation_ns();
        });
    }
    out.classes = classes.into_values().collect();
    out
}

/// Totals returned by [`check_conservation`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservationStats {
    /// Gateway-level offered load (routed + shed); zero without a gateway.
    pub offered: u64,
    /// Route decisions observed.
    pub routed: u64,
    /// Sheds observed (terminal).
    pub shed: u64,
    /// Core arrivals across lanes.
    pub arrivals: u64,
    /// Completes across lanes (terminal).
    pub completed: u64,
}

/// Checks flight-recorder conservation: every core arrival has exactly one
/// `Complete`, and when gateway events are present, `offered = routed + shed`
/// with every routed query arriving at exactly one core.
///
/// # Errors
///
/// Returns a description of the first violation found: the lowest
/// `(lane, query)` whose lifecycle does not balance, else the first
/// mismatched total.
pub fn check_conservation(trace: &QueryTrace) -> Result<ConservationStats, String> {
    let mut stats = ConservationStats::default();
    for lane in trace.lanes() {
        let counts = lane.counts();
        stats.offered += counts.routed + counts.shed;
        stats.routed += counts.routed;
        stats.shed += counts.shed;
        stats.arrivals += counts.arrivals;
        stats.completed += counts.completed;
        if let Some((query, arrivals, completes)) = lane.unbalanced() {
            let lane = lane.lane();
            return Err(if arrivals != 1 {
                format!("lane {lane} query {query}: {arrivals} arrivals (want exactly 1)")
            } else {
                format!(
                    "lane {lane} query {query}: {completes} terminal completes (want exactly 1)"
                )
            });
        }
    }
    if stats.completed != stats.arrivals {
        return Err(format!(
            "{} arrivals but {} completes",
            stats.arrivals, stats.completed
        ));
    }
    if stats.routed > 0 && stats.routed != stats.arrivals {
        return Err(format!(
            "{} routed but {} core arrivals",
            stats.routed, stats.arrivals
        ));
    }
    if stats.offered != stats.routed + stats.shed {
        return Err(format!(
            "offered {} != routed {} + shed {}",
            stats.offered, stats.routed, stats.shed
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, TraceSink, ANNOTATION_KEY};
    use des_engine::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// One query: arrive 0, dispatched 10, reconfig [20, 60), start 100,
    /// clean 300, base 330, complete 425: it ran 325 ns, 25 over clean.
    fn one_query_recorder() -> FlightRecorder {
        let mut r = FlightRecorder::new(0);
        r.record(
            t(0),
            0,
            TraceEvent::Arrival {
                query: 0,
                group: 2,
                batch: 4,
                dispatched_ns: 10,
                sla_ns: 0,
            },
        );
        r.record(
            t(20),
            ANNOTATION_KEY,
            TraceEvent::ReconfigStep {
                step: 0,
                downtime_ns: 40,
            },
        );
        r.record(
            t(100),
            0,
            TraceEvent::ServiceStart {
                query: 0,
                worker: 3,
                gpcs: 7,
                clean_ns: 300,
                base_ns: 330,
            },
        );
        r.record(
            t(425),
            0,
            TraceEvent::Complete {
                query: 0,
                group: 2,
                worker: 3,
                latency_ns: 425,
            },
        );
        r
    }

    #[test]
    fn breakdown_components_sum_exactly() {
        let trace = QueryTrace::merge([one_query_recorder()]);
        let analysis = analyze(&trace);
        assert_eq!(analysis.classes.len(), 1);
        let c = analysis.classes[0];
        assert_eq!(c.group, 2);
        assert_eq!(c.frontend_ns, 10);
        assert_eq!(c.reconfig_wait_ns, 40);
        assert_eq!(c.queue_ns, 50); // wait 90 − reconfig 40
        assert_eq!(c.service_clean_ns, 300);
        assert_eq!(c.degrade_inflation_ns, 25);
        assert_eq!(c.components_sum(), c.total_latency_ns as i128);
        assert_eq!(c.total_latency_ns, 425);
    }

    #[test]
    fn conservation_accepts_balanced_trace() {
        let trace = QueryTrace::merge([one_query_recorder()]);
        let stats = check_conservation(&trace).expect("balanced");
        assert_eq!((stats.arrivals, stats.completed), (1, 1));
    }

    #[test]
    fn conservation_rejects_dropped_query() {
        let mut r = one_query_recorder();
        r.record(
            t(500),
            1,
            TraceEvent::Arrival {
                query: 1,
                group: 0,
                batch: 1,
                dispatched_ns: 510,
                sla_ns: 0,
            },
        );
        let trace = QueryTrace::merge([r]);
        assert!(check_conservation(&trace).is_err());
    }

    #[test]
    fn a_lane_recorded_out_of_order_analyses_like_the_sorted_one() {
        let sorted = one_query_recorder().into_records();
        let mut backwards = FlightRecorder::new(0);
        for r in sorted.iter().rev() {
            backwards.record(r.at, r.key, r.event);
        }
        let (a, b) = (
            QueryTrace::merge([one_query_recorder()]),
            QueryTrace::merge([backwards]),
        );
        assert_eq!(analyze(&a), analyze(&b));
        assert_eq!(check_conservation(&a), check_conservation(&b));
        assert_eq!(analyze(&b).classes[0].reconfig_wait_ns, 40);
    }

    #[test]
    fn query_ids_near_u64_max_need_no_id_sized_table() {
        let q = u64::MAX - 1;
        let mut r = one_query_recorder();
        r.record(
            t(500),
            q,
            TraceEvent::Arrival {
                query: q,
                group: 2,
                batch: 1,
                dispatched_ns: 500,
                sla_ns: 0,
            },
        );
        r.record(
            t(600),
            q,
            TraceEvent::ServiceStart {
                query: q,
                worker: 0,
                gpcs: 7,
                clean_ns: 50,
                base_ns: 50,
            },
        );
        r.record(
            t(650),
            q,
            TraceEvent::Complete {
                query: q,
                group: 2,
                worker: 0,
                latency_ns: 150,
            },
        );
        let trace = QueryTrace::merge([r]);
        let c = analyze(&trace).classes[0];
        assert_eq!(c.completed, 2);
        assert_eq!(c.total_latency_ns, 425 + 150);
        assert_eq!(c.components_sum(), c.total_latency_ns as i128);
        let stats = check_conservation(&trace).expect("balanced");
        assert_eq!((stats.arrivals, stats.completed), (2, 2));
    }

    #[test]
    fn conservation_names_the_lowest_unbalanced_query() {
        let arrive = |r: &mut FlightRecorder, q: u64| {
            r.record(
                t(q),
                q,
                TraceEvent::Arrival {
                    query: q,
                    group: 0,
                    batch: 1,
                    dispatched_ns: q,
                    sla_ns: 0,
                },
            );
        };
        let mut lane0 = one_query_recorder();
        arrive(&mut lane0, 7);
        arrive(&mut lane0, 3);
        let mut lane1 = FlightRecorder::new(1);
        arrive(&mut lane1, 0);
        let err = check_conservation(&QueryTrace::merge([lane1, lane0])).unwrap_err();
        assert_eq!(err, "lane 0 query 3: 0 terminal completes (want exactly 1)");
    }

    #[test]
    fn interval_union_handles_overlap() {
        let mut v = vec![(10, 30), (20, 40), (50, 60)];
        union_intervals(&mut v);
        assert_eq!(v, vec![(10, 40), (50, 60)]);
        assert_eq!(overlap_ns(&v, 0, 100), 40);
        assert_eq!(overlap_ns(&v, 35, 55), 10);
    }
}
