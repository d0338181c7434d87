//! The recorder keeps a served query as one packed span, but it must give
//! back every record exactly as it was recorded, `seq` included, and every
//! analysis must read its spans as it would read the plain records.
//!
//! Each case hand-builds one lane from random operations: arrivals,
//! service starts, aborts and requeues, enqueues and stashes, completions,
//! routing decisions and sheds, and annotations. Lanes in the anomalous
//! modes add what cannot form a span: duplicate and missing arrivals,
//! completes without a start or with a latency that is not complete −
//! arrival, second completes, keys that are not their own query, ids,
//! durations and SLAs wider than 32 bits, and (roundtrip and conservation
//! only) duplicate arrivals and stamps that go backwards. They also break,
//! with values that fit 32 bits, each identity a span relies on instead of
//! storing: a skipped id, an SLA that changes within a group, a completion
//! in another group than its arrival's, and a completion on another worker
//! than the latest start's. The oracle for the analyses is the same records
//! handed in as a plain buffer, which every analysis re-folds record by
//! record.

use des_engine::SimTime;
use inference_obs::{
    analyze, attribute_window, check_conservation, worst_window, FaultKind, FlightRecorder,
    MetricRegistry, QueryTrace, TraceEvent, TraceRecord, TraceSink, ANNOTATION_KEY,
};
use proptest::prelude::*;

/// A query the generator has opened: `(id, group, arrival_ns, the worker
/// of its latest start while it runs)`.
type Open = (u64, usize, u64, Option<usize>);

/// The one SLA every arrival of `group` carries in an engine-shaped lane.
fn sla_of(group: usize) -> u64 {
    5_000 + 1_000 * group as u64
}

/// Turns operations into a lane's `(at, key, event)` records. `mode` 0
/// builds engine-shaped lifecycles only: ids dense from 0, one SLA per
/// group, and each completion in its arrival's group and on its latest
/// start's worker. Mode 1 adds the anomalies that keep the analyses'
/// arithmetic valid, mode 2 also duplicate arrivals and stamps that go
/// backwards.
fn lane_records(mode: u8, ops: &[(u8, u8, u16, u8)]) -> Vec<(u64, u64, TraceEvent)> {
    let mut out = Vec::new();
    let mut t: u64 = 1_000;
    let mut next_id: u64 = 0;
    let mut arrivals: u64 = 0;
    let mut open: Vec<Open> = Vec::new();
    let mut done: Vec<(u64, u64)> = Vec::new();
    let mut gateway_key: u64 = 0;
    for &(op, pick, dt, anomaly) in ops {
        // Anomaly 1..=5 fires only outside mode 0, on half of operations.
        let anomaly = if mode == 0 || anomaly > 5 { 0 } else { anomaly };
        // Whole 100 ns steps, so executions often end exactly where others
        // start.
        let dt = dt / 100 * 100;
        t += u64::from(dt);
        let pick = usize::from(pick);
        match op {
            0 | 1 => {
                let group = pick % 2;
                arrivals += 1;
                let id = match anomaly {
                    // A duplicate arrival: a completed id comes back. Its
                    // old start would precede the new dispatch, which the
                    // breakdown's arithmetic rejects, so roundtrip only.
                    1 if mode == 2 && !done.is_empty() => done.remove(pick % done.len()).0,
                    2 => u64::MAX - arrivals,
                    _ => {
                        // Anomaly 1 skips an id: the lane's ids stop being
                        // dense from here on.
                        next_id += 1 + u64::from(anomaly == 1);
                        next_id - 1
                    }
                };
                let sla = match anomaly {
                    3 => 1 << 40,
                    // The other group's SLA: this group's SLA changes.
                    4 => sla_of(1 - group),
                    _ => sla_of(group),
                };
                open.retain(|o| o.0 != id);
                open.push((id, group, t, None));
                out.push((
                    t,
                    id,
                    TraceEvent::Arrival {
                        query: id,
                        group,
                        batch: 1 + pick % 8,
                        dispatched_ns: t,
                        sla_ns: sla,
                    },
                ));
            }
            2 | 3 if !open.is_empty() => {
                let i = pick % open.len();
                let worker = pick % 4;
                open[i].3 = Some(worker);
                let id = open[i].0;
                let key = if anomaly == 2 { id ^ 1 } else { id };
                let base = if anomaly == 1 {
                    1 << 33
                } else {
                    300 + u64::from(dt)
                };
                out.push((
                    t,
                    key,
                    TraceEvent::ServiceStart {
                        query: id,
                        worker,
                        gpcs: 7,
                        clean_ns: 200,
                        base_ns: base,
                    },
                ));
            }
            4 | 5 if !open.is_empty() => {
                let i = pick % open.len();
                let (id, group, arrival, running) = open[i];
                if running.is_none() && anomaly != 1 {
                    continue; // an engine never completes an unstarted query
                }
                open.remove(i);
                done.push((id, arrival));
                let latency = t.saturating_sub(arrival) + u64::from(anomaly == 2);
                // An engine completes a query in its arrival's group, on
                // its latest start's worker; anomaly 5 completes it in the
                // other group, anomaly 4 on another worker.
                let group = group ^ usize::from(anomaly == 5);
                let worker = running.unwrap_or(0) + usize::from(anomaly == 4);
                out.push((
                    t,
                    id,
                    TraceEvent::Complete {
                        query: id,
                        group,
                        worker,
                        latency_ns: latency,
                    },
                ));
                if anomaly == 3 {
                    // A second complete of the same query.
                    out.push((
                        t,
                        id,
                        TraceEvent::Complete {
                            query: id,
                            group,
                            worker,
                            latency_ns: latency,
                        },
                    ));
                }
            }
            6 if !open.is_empty() => {
                let id = open[pick % open.len()].0;
                let event = if pick % 2 == 0 {
                    TraceEvent::Enqueue {
                        query: id,
                        group: pick % 3,
                    }
                } else {
                    TraceEvent::Stash {
                        query: id,
                        group: 70_000,
                    }
                };
                out.push((t, id, event));
            }
            7 if !open.is_empty() => {
                let i = pick % open.len();
                let id = open[i].0;
                if let Some(worker) = open[i].3.take() {
                    out.push((t, id, TraceEvent::ServiceAbort { query: id, worker }));
                }
                out.push((t, id, TraceEvent::Requeue { query: id }));
            }
            8 => {
                gateway_key += 1;
                let key = if anomaly == 1 { 1 << 35 } else { gateway_key };
                let event = if pick % 3 == 0 {
                    TraceEvent::Shed {
                        model: pick % 2,
                        shard: 0,
                    }
                } else {
                    TraceEvent::RouteDecision {
                        model: pick % 2,
                        shard: 0,
                        pinned: pick % 5 == 0,
                    }
                };
                out.push((t, key, event));
            }
            9 => {
                let event = match pick % 3 {
                    0 => TraceEvent::ReconfigStep {
                        step: pick,
                        downtime_ns: u64::from(dt) * 3,
                    },
                    1 => TraceEvent::Loan {
                        shard: 0,
                        gpus_delta: -2,
                        pool_free_after: 1,
                    },
                    _ => TraceEvent::Fault {
                        kind: FaultKind::GpuFail,
                        shard: 0,
                        gpu: 1,
                        factor_milli: 0,
                    },
                };
                out.push((t, ANNOTATION_KEY, event));
            }
            10 if anomaly == 1 => {
                // A start and a complete for an id that never arrived.
                let id = 1_000_000 + u64::from(dt);
                out.push((
                    t,
                    id,
                    TraceEvent::ServiceStart {
                        query: id,
                        worker: 0,
                        gpcs: 7,
                        clean_ns: 1,
                        base_ns: 1,
                    },
                ));
                out.push((
                    t,
                    id,
                    TraceEvent::Complete {
                        query: id,
                        group: 0,
                        worker: 0,
                        latency_ns: 1,
                    },
                ));
            }
            11 if mode == 2 => t = t.saturating_sub(u64::from(dt) * 4),
            _ => {}
        }
    }
    out
}

fn lifecycle_ops() -> impl Strategy<Value = Vec<(u8, u8, u16, u8)>> {
    prop::collection::vec((0u8..12, 0u8..=255, 0u16..=2_000, 0u8..10), 0..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recorded_records_read_back_exactly(mode in 0u8..3, ops in lifecycle_ops()) {
        let lane = 3;
        let mut rec = FlightRecorder::new(lane);
        let mut expected: Vec<TraceRecord> = Vec::new();
        for (seq, (at, key, event)) in lane_records(mode, &ops).into_iter().enumerate() {
            let at = SimTime::from_nanos(at);
            rec.record(at, key, event);
            expected.push(TraceRecord { at, key, lane, seq: seq as u64, event });
        }
        prop_assert_eq!(rec.len(), expected.len());
        prop_assert_eq!(rec.iter().collect::<Vec<_>>(), expected.clone());

        let trace = QueryTrace::merge([rec]);
        let plain = QueryTrace::default().annotated(expected.iter().copied());
        let mut sorted = expected.clone();
        sorted.sort_by_key(|r| (r.at, r.key, r.lane, r.seq));
        prop_assert_eq!(trace.records(), sorted.as_slice());
        prop_assert!(trace == plain);
        prop_assert_eq!(trace.len(), expected.len());
        prop_assert_eq!(
            trace.horizon(),
            expected.iter().map(|r| r.at).max().unwrap_or(SimTime::ZERO)
        );
        prop_assert_eq!(check_conservation(&trace), check_conservation(&plain));
        if mode < 2 {
            prop_assert_eq!(analyze(&trace), analyze(&plain));
            // Fine bins unless 2^33 ns executions would make millions.
            let window = if mode == 0 { 1_000 } else { 4_000_000 };
            for lane_gpcs in [&[] as &[u32], &[0, 0, 0, 14]] {
                prop_assert_eq!(
                    MetricRegistry::from_trace(&trace, window, lane_gpcs),
                    MetricRegistry::from_trace(&plain, window, lane_gpcs)
                );
            }
            for group in 0..2 {
                prop_assert_eq!(
                    worst_window(&trace, 5_000, group),
                    worst_window(&plain, 5_000, group)
                );
                prop_assert_eq!(
                    attribute_window(&trace, 5_000, 0, group),
                    attribute_window(&plain, 5_000, 0, group)
                );
            }
        }
    }
}

/// The analyses still catch what conservation forbids when the recorder
/// keeps spans: a duplicate arrival, a second complete, and an arrival
/// that never completes.
#[test]
fn conservation_rejects_broken_lifecycles_recorded_as_spans() {
    let arrive = |r: &mut FlightRecorder, at: u64, q: u64| {
        r.record(
            SimTime::from_nanos(at),
            q,
            TraceEvent::Arrival {
                query: q,
                group: 0,
                batch: 1,
                dispatched_ns: at,
                sla_ns: 0,
            },
        );
    };
    let serve = |r: &mut FlightRecorder, at: u64, q: u64| {
        r.record(
            SimTime::from_nanos(at),
            q,
            TraceEvent::ServiceStart {
                query: q,
                worker: 0,
                gpcs: 7,
                clean_ns: 5,
                base_ns: 5,
            },
        );
        r.record(
            SimTime::from_nanos(at + 5),
            q,
            TraceEvent::Complete {
                query: q,
                group: 0,
                worker: 0,
                latency_ns: 5,
            },
        );
    };
    let check = |r: FlightRecorder| check_conservation(&QueryTrace::merge([r]));

    let mut ok = FlightRecorder::new(0);
    arrive(&mut ok, 10, 0);
    serve(&mut ok, 10, 0);
    assert!(check(ok).is_ok());

    let mut duplicate = FlightRecorder::new(0);
    arrive(&mut duplicate, 10, 0);
    serve(&mut duplicate, 10, 0);
    arrive(&mut duplicate, 20, 0);
    serve(&mut duplicate, 20, 0);
    assert_eq!(
        check(duplicate).unwrap_err(),
        "lane 0 query 0: 2 arrivals (want exactly 1)"
    );

    let mut twice = FlightRecorder::new(0);
    arrive(&mut twice, 10, 0);
    serve(&mut twice, 10, 0);
    twice.record(
        SimTime::from_nanos(30),
        0,
        TraceEvent::Complete {
            query: 0,
            group: 0,
            worker: 0,
            latency_ns: 20,
        },
    );
    assert_eq!(
        check(twice).unwrap_err(),
        "lane 0 query 0: 2 terminal completes (want exactly 1)"
    );

    let mut dropped = FlightRecorder::new(0);
    arrive(&mut dropped, 10, 0);
    serve(&mut dropped, 10, 0);
    arrive(&mut dropped, 12, 1);
    arrive(&mut dropped, 14, 2);
    serve(&mut dropped, 14, 2);
    assert_eq!(
        check(dropped).unwrap_err(),
        "lane 0 query 1: 0 terminal completes (want exactly 1)"
    );
}
