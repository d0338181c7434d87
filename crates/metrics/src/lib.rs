//! # server-metrics — measurement plumbing for inference-server experiments
//!
//! The statistics layer of the PARIS+ELSA reproduction:
//!
//! * [`LatencyRecorder`] — per-query latency samples with percentile and
//!   SLA-violation queries (the paper's p95 tail-latency metric),
//! * [`LatencyHistogram`] — a log-linear alternative for O(1)-memory
//!   sweeps (≤ 1.6 % percentile error) that holds counts only for the
//!   octaves between its lowest and highest sample, never more than
//!   3,776 buckets,
//! * [`BusyTracker`] — time-weighted busy/idle accounting for partitions,
//! * [`ThroughputPoint`] / [`latency_bounded_throughput`] — the
//!   latency-bounded throughput metric of §VI-B,
//! * [`WindowedTail`] — tumbling-window worst-case tail latency, the spike
//!   statistic behind the benches' `reconfig_dip`,
//! * [`LatencyBreakdown`] — queue/service decomposition percentiles the
//!   run reports surface (`queue_ns_p50/p99`, `service_ns_p50/p99`).
//!
//! ```
//! use server_metrics::LatencyRecorder;
//!
//! let rec: LatencyRecorder = (1..=20u64).map(|ms| ms * 1_000_000).collect();
//! assert_eq!(rec.p95_ms(), 19.0);
//! ```

mod breakdown;
mod busy;
mod histogram;
mod latency;
mod throughput;
mod windowed;

pub use breakdown::LatencyBreakdown;
pub use busy::BusyTracker;
pub use histogram::LatencyHistogram;
pub use latency::LatencyRecorder;
pub use throughput::{latency_bounded_throughput, ThroughputPoint};
pub use windowed::WindowedTail;
