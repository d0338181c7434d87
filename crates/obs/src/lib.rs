//! Deterministic observability for the PARIS/ELSA engine stack.
//!
//! Everything here is clocked on **simulation time**, never wall time, so a
//! trace is a pure function of the run: same seed, same trace, at any thread
//! count. The crate provides
//!
//! - a query **flight recorder** ([`TraceSink`], [`FlightRecorder`]): span
//!   events for the full query lifecycle (arrival → route/shed →
//!   queue wait → service start/abort/requeue → complete) plus annotations
//!   for re-plans, loans, faults, and degrades, buffered per shard lane and
//!   kept per lane in a [`QueryTrace`]. A served query is stored as one
//!   packed span; the analyses below fold each lane's spans in place
//!   ([`QueryTrace::lanes`]), and the exporters read every record back,
//!   exactly as recorded, in the global `(time, key, lane, seq)` order
//!   ([`QueryTrace::records`]);
//! - an **online telemetry plane** ([`ObsSink`], [`OnlineLane`],
//!   [`merge_online`]): the same hook stream folded into windowed aggregates
//!   *live* on the DES clock, O(1) memory per (series, window) with no trace
//!   retention;
//! - a **metric registry** ([`MetricRegistry`]): fixed-grid counters,
//!   gauges, and rates (per-shard outstanding, busy GPC fraction, pool GPUs
//!   loaned, shed rate, per-model SLA-violation rate). Two producers, one
//!   code path: [`MetricRegistry::from_trace`] replays each lane of a
//!   retained trace, in its append order, through the same [`OnlineLane`]
//!   fold the live plane uses, making it the oracle for **invariant 13** —
//!   online registry ≡ `from_trace` registry, byte for byte, on the same
//!   run at any thread count;
//! - an **SLO engine** ([`SloSpec`], [`evaluate_slos`]): declarative
//!   per-class objectives with multiwindow burn-rate alerting, producing a
//!   deterministic [`Alert`] log that can be stamped back onto the trace as
//!   annotations ([`alert_records`], [`QueryTrace::annotated`]);
//! - **causal tail attribution** ([`attribute_window`], [`attribute_alerts`],
//!   [`worst_window`]): splits a window's p99 latency excess into ranked
//!   causes (reconfig downtime from loans vs faults, fault/degrade exposure,
//!   queue growth, degrade inflation, noise) with zero residual, reusing the
//!   analyzer's exact integer accounting;
//! - **exporters** (Chrome `trace_event` JSON via [`ChromeTraceWriter`],
//!   JSONL via [`jsonl`], registry dumps via [`metrics_jsonl`] /
//!   [`metrics_csv`]) and an **analyzer** ([`analyze()`],
//!   [`check_conservation`]) whose latency breakdown sums to the measured
//!   end-to-end latency exactly, in integer nanoseconds.
//!
//! **Invariant 12 — zero observer effect.** Attaching a recorder (or the
//! online plane) must leave every report byte-identical to the untraced run:
//! hooks never touch RNG streams, event keys, or report state, and the
//! disabled path is a single `Option` test (no allocation, no branch into
//! recording code). The property suite and `bench_obs` enforce this.

pub mod analyze;
pub mod attribute;
pub mod event;
pub mod export;
mod inflight;
pub mod online;
pub mod recorder;
pub mod registry;
pub mod slo;
mod span;

pub use analyze::{analyze, check_conservation, ClassBreakdown, ConservationStats, TraceAnalysis};
pub use attribute::{
    attribute_alerts, attribute_window, worst_window, CauseRow, WindowAttribution,
};
pub use event::{FaultKind, TraceEvent};
pub use export::{
    chrome_trace_json, escape_json, jsonl, jsonl_line, metrics_csv, metrics_jsonl,
    write_alert_rows, write_query_trace, ChromeTraceWriter,
};
pub use online::{merge_online, ObsRequest, ObsSink, OnlineLane};
pub use recorder::{FlightRecorder, LaneView, QueryTrace, TraceRecord, TraceSink, ANNOTATION_KEY};
pub use registry::{MetricRegistry, MetricSeries};
pub use slo::{alert_records, evaluate_slos, Alert, SloSpec, ALERT_LANE};
