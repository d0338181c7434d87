//! The metric registry: fixed-grid DES-clock time series.
//!
//! A registry comes from one of two producers that share one accumulator
//! type and one merge:
//!
//! - **post-hoc**: [`MetricRegistry::from_trace`] folds each lane of a
//!   [`QueryTrace`] into its own [`OnlineLane`] accumulator — from the
//!   recorder's spans directly when the lane reads as spans, else by
//!   replaying the lane's records in the order it recorded them — a pure
//!   function of the trace, exactly as deterministic as the trace itself;
//! - **online**: an instrumented run streams the same events into the same
//!   accumulators live, no trace retention.
//!
//! Invariant 13 (ARCHITECTURE.md) says the two are byte-for-byte identical
//! on the same run at any thread count; `from_trace` is the oracle the
//! property suite and `bench_obs` compare the online plane against. The
//! span fold computes what the live fold leaves behind without depending
//! on record order (every bin sums exact integers; a gauge bin is a prefix
//! count), and the property suites check it against the live plane and
//! against a record replay; they also replay the trace's global order, to
//! check that the fold ignores how same-instant records interleave. Every
//! series shares one tumbling grid of `window_ns` bins; the per-model
//! SLA-violation series divides integer violated/completed counters per
//! bin, judged with [`server_metrics::LatencyHistogram::exceeds`].
//!
//! [`OnlineLane`]: crate::online::OnlineLane

use crate::online::OnlineLane;
use crate::recorder::{QueryTrace, TraceSink};

/// One named time series on the shared grid.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Series name, e.g. `shard0/outstanding` or `model1/sla_violation_rate`.
    pub name: String,
    /// One value per grid bin.
    pub values: Vec<f64>,
}

/// A bundle of fixed-grid series sampled from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRegistry {
    window_ns: u64,
    windows: usize,
    series: Vec<MetricSeries>,
}

impl MetricRegistry {
    /// Builds the registry from a retained trace.
    ///
    /// `lane_gpcs[s]` is shard `s`'s total GPC capacity, the denominator of
    /// its `busy_gpc_fraction` series; lanes beyond the slice (or a zero
    /// entry) fall back to the peak concurrent busy GPCs observed on that
    /// lane, so the series stays in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    #[must_use]
    pub fn from_trace(trace: &QueryTrace, window_ns: u64, lane_gpcs: &[u32]) -> Self {
        assert!(window_ns > 0, "window must be positive");
        // A lane kept as spans folds from them directly; any other lane
        // replays, in the order its engine appended it, through the same
        // per-lane accumulator an instrumented run streams into. The peak
        // concurrency is only needed for a lane without a known capacity.
        let lanes = trace.lanes().map(|lane| {
            if let Some(rec) = lane.as_spans() {
                let capacity_known = lane_gpcs.get(lane.lane() as usize).is_some_and(|&c| c > 0);
                return OnlineLane::from_spans(rec, window_ns, !capacity_known);
            }
            let mut online = OnlineLane::new(lane.lane(), window_ns);
            for r in lane.iter() {
                online.record(r.at, r.key, r.event);
            }
            online
        });
        crate::online::merge_online(window_ns, lanes, lane_gpcs)
    }

    /// Assembles a registry from already-built series (the back half of
    /// [`merge_online`](crate::online::merge_online)).
    pub(crate) fn from_parts(window_ns: u64, windows: usize, series: Vec<MetricSeries>) -> Self {
        MetricRegistry {
            window_ns,
            windows,
            series,
        }
    }

    /// The grid's bin width in nanoseconds.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Number of grid bins every series has.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// All series, sorted by name.
    #[must_use]
    pub fn series(&self) -> &[MetricSeries] {
        &self.series
    }

    /// Looks a series up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricSeries> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::recorder::{FlightRecorder, ANNOTATION_KEY};
    use des_engine::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn arrive(r: &mut FlightRecorder, at: u64, q: u64, group: usize, sla: u64) {
        r.record(
            t(at),
            q,
            TraceEvent::Arrival {
                query: q,
                group,
                batch: 1,
                dispatched_ns: at,
                sla_ns: sla,
            },
        );
    }

    fn complete(r: &mut FlightRecorder, at: u64, q: u64, group: usize, latency: u64) {
        r.record(
            t(at),
            q,
            TraceEvent::Complete {
                query: q,
                group,
                worker: 0,
                latency_ns: latency,
            },
        );
    }

    #[test]
    fn outstanding_gauge_carries_through_quiet_bins() {
        let mut r = FlightRecorder::new(0);
        arrive(&mut r, 100, 0, 0, 0);
        arrive(&mut r, 200, 1, 0, 0);
        complete(&mut r, 3_500, 0, 0, 3_400);
        complete(&mut r, 3_600, 1, 0, 3_400);
        let reg = MetricRegistry::from_trace(&QueryTrace::merge([r]), 1_000, &[]);
        let s = reg.get("shard0/outstanding").expect("series");
        assert_eq!(s.values, vec![2.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn busy_fraction_uses_capacity_and_splits_bins() {
        let mut r = FlightRecorder::new(0);
        arrive(&mut r, 0, 0, 0, 0);
        // 7 GPCs busy for 1500 ns spanning bins 0 and 1 of a 1000 ns grid.
        r.record(
            t(0),
            0,
            TraceEvent::ServiceStart {
                query: 0,
                worker: 0,
                gpcs: 7,
                clean_ns: 1_500,
                base_ns: 1_500,
            },
        );
        complete(&mut r, 1_500, 0, 0, 1_500);
        let reg = MetricRegistry::from_trace(&QueryTrace::merge([r]), 1_000, &[14]);
        let s = reg.get("shard0/busy_gpc_fraction").expect("series");
        assert!((s.values[0] - 0.5).abs() < 1e-9, "{:?}", s.values);
        assert!((s.values[1] - 0.25).abs() < 1e-9, "{:?}", s.values);
    }

    #[test]
    fn sla_violation_rate_per_model() {
        let mut r = FlightRecorder::new(0);
        arrive(&mut r, 0, 0, 1, 1_000); // SLA 1 µs
        arrive(&mut r, 10, 1, 1, 1_000);
        complete(&mut r, 500, 0, 1, 500); // within SLA
        complete(&mut r, 900, 1, 1, 5_000); // violation, same bin
        let reg = MetricRegistry::from_trace(&QueryTrace::merge([r]), 1_000, &[]);
        let s = reg.get("model1/sla_violation_rate").expect("series");
        assert!((s.values[0] - 0.5).abs() < 1e-9, "{:?}", s.values);
    }

    #[test]
    fn loans_integrate_and_sheds_rate() {
        let mut r = FlightRecorder::new(2);
        r.record(
            t(100),
            ANNOTATION_KEY,
            TraceEvent::Loan {
                shard: 0,
                gpus_delta: 2,
                pool_free_after: 3,
            },
        );
        r.record(
            t(2_500),
            ANNOTATION_KEY,
            TraceEvent::Loan {
                shard: 0,
                gpus_delta: -2,
                pool_free_after: 5,
            },
        );
        r.record(
            t(200),
            0,
            TraceEvent::RouteDecision {
                model: 0,
                shard: 0,
                pinned: false,
            },
        );
        r.record(t(300), 0, TraceEvent::Shed { model: 1, shard: 0 });
        let reg = MetricRegistry::from_trace(&QueryTrace::merge([r]), 1_000, &[]);
        let loans = reg.get("pool/loaned_gpus").expect("loans");
        assert_eq!(loans.values, vec![2.0, 2.0, 0.0]);
        let shed = reg.get("fleet/shed_rate").expect("shed");
        assert!((shed.values[0] - 0.5).abs() < 1e-9);
    }

    /// A lane numbering its queries near `u64::MAX` sizes no table by the
    /// id: it yields the registry of the same lifecycles numbered from 0.
    #[test]
    fn query_ids_near_u64_max_yield_the_small_id_registry() {
        let lane = |first: u64| {
            let mut r = FlightRecorder::new(0);
            for i in 0..4 {
                let q = first + i;
                arrive(&mut r, 100 * i, q, (i % 2) as usize, 1_000);
                r.record(
                    t(100 * i),
                    q,
                    TraceEvent::ServiceStart {
                        query: q,
                        worker: 0,
                        gpcs: 7,
                        clean_ns: 300,
                        base_ns: 300 * (i + 1),
                    },
                );
            }
            for i in 0..4 {
                complete(
                    &mut r,
                    1_400 + 10 * i,
                    first + i,
                    (i % 2) as usize,
                    1_400 - 90 * i,
                );
            }
            QueryTrace::merge([r])
        };
        let small = MetricRegistry::from_trace(&lane(0), 1_000, &[14]);
        let near_max = MetricRegistry::from_trace(&lane(u64::MAX - 4), 1_000, &[14]);
        assert_eq!(small, near_max);
        assert!(small.get("model1/sla_violation_rate").is_some());
    }

    #[test]
    fn empty_trace_yields_well_formed_registry() {
        let reg = MetricRegistry::from_trace(
            &QueryTrace::merge(Vec::<FlightRecorder>::new()),
            1_000,
            &[],
        );
        assert_eq!(reg.windows(), 1, "the grid always has at least one bin");
        assert_eq!(reg.window_ns(), 1_000);
        assert!(reg.series().is_empty(), "no events, no series");
        assert!(reg.get("shard0/outstanding").is_none());
    }

    #[test]
    fn zero_lane_gpcs_falls_back_without_div_by_zero() {
        let mut r = FlightRecorder::new(0);
        arrive(&mut r, 0, 0, 0, 0);
        r.record(
            t(0),
            0,
            TraceEvent::ServiceStart {
                query: 0,
                worker: 0,
                gpcs: 7,
                clean_ns: 500,
                base_ns: 500,
            },
        );
        complete(&mut r, 500, 0, 0, 500);
        let trace = QueryTrace::merge([r]);
        // Empty slice and an explicit zero entry both fall back to the
        // observed peak concurrency (7 GPCs), never a zero denominator.
        for lane_gpcs in [&[] as &[u32], &[0u32]] {
            let reg = MetricRegistry::from_trace(&trace, 1_000, lane_gpcs);
            let busy = reg.get("shard0/busy_gpc_fraction").expect("series");
            assert!(
                busy.values.iter().all(|v| v.is_finite()),
                "{:?}",
                busy.values
            );
            assert!((busy.values[0] - 0.5).abs() < 1e-9, "{:?}", busy.values);
        }
    }

    #[test]
    fn zero_length_service_span_still_creates_the_series() {
        let mut r = FlightRecorder::new(0);
        r.record(
            t(100),
            0,
            TraceEvent::ServiceStart {
                query: 0,
                worker: 0,
                gpcs: 7,
                clean_ns: 0,
                base_ns: 0,
            },
        );
        let reg = MetricRegistry::from_trace(&QueryTrace::merge([r]), 1_000, &[]);
        let busy = reg.get("shard0/busy_gpc_fraction").expect("series");
        assert_eq!(busy.values, vec![0.0], "zero-length span, zero busy");
    }
}
