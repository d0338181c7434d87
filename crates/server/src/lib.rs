//! # inference-server — the simulated reconfigurable multi-GPU server
//!
//! A deterministic discrete-event simulation of the paper's testbed: a
//! serial frontend feeding MIG partitions through either the FIFS baseline
//! or ELSA, with the profiled latency table as ground-truth service time.
//!
//! * [`MultiModelServer`] / [`ModelSpec`] / [`ReplanPolicy`] — many
//!   models over a shared, reconfigurable partition pool, with
//!   drift-triggered online PARIS re-planning mid-run;
//!   [`MultiModelServer::run_stream`] is the crate's one event loop,
//! * [`ShardEngine`] — the one public engine: the loop-free serving state
//!   behind that loop (one dispatch/complete/drain core with one group per
//!   model, plus the step-wise reconfiguration executor), which a cluster
//!   drives inside its own DES,
//! * [`InferenceServer`] / [`ServerConfig`] / [`RunReport`] — the paper's
//!   single-model server, run as a 1-model `MultiModelServer`,
//! * [`rate_sweep`] / [`search_latency_bounded_throughput`] — the
//!   measurement procedures behind Figures 11–13,
//! * [`Testbed`] / [`DesignPoint`] — the six evaluated designs with the
//!   Table I budgets.
//!
//! # Hot path invariants
//!
//! The per-query dispatch path is allocation-free and O(log P) in the
//! partition count once warm; sweeps run at [`ReportDetail::Summary`] so a
//! measurement's memory is O(1) in the trace length. Every fast-path
//! shortcut is paired with a pure reference implementation and an
//! equivalence contract checked by tests:
//!
//! * [`InferenceServer::run`] (the shared driver: streamed arrivals, keyed
//!   event order, incremental ELSA state) must produce reports
//!   **bit-for-bit** equal to [`InferenceServer::run_reference`] (whole
//!   trace pre-loaded, fresh snapshots + pure `Elsa::place` per query)
//!   under [`ReportDetail::Full`].
//! * `paris_core::Elsa::place_mut` over a `paris_core::ElsaState` must
//!   return the same decision — including tie-breaks — as `Elsa::place`
//!   over snapshots taken at the same instant.
//!
//! Anyone optimizing this path further should extend those cross-checks
//! rather than replace them: the reference implementations define the
//! semantics.
//!
//! ```
//! use dnn_zoo::ModelKind;
//! use inference_server::{DesignPoint, Testbed};
//! use inference_workload::TraceGenerator;
//!
//! let bed = Testbed::paper_default(ModelKind::ResNet50);
//! let server = bed.server(DesignPoint::ParisElsa)?;
//! let trace = TraceGenerator::new(100.0, bed.distribution().clone(), 42)
//!     .generate_for(0.2);
//! let report = server.run(&trace);
//! assert!(report.p95_ms() > 0.0);
//! # Ok::<(), paris_core::PlanError>(())
//! ```

mod designs;
mod dispatch;
mod multi;
mod query;
mod server;
mod sweep;
mod worker;

pub use designs::{paper_budgets, DesignPoint, Testbed};
pub use dispatch::ShardEvent;
pub use multi::{
    split_budget, ModelReport, ModelSpec, MultiModelConfig, MultiModelServer, MultiRunReport,
    ReconfigEvent, ReplanPolicy, ReplanRequest, ShardEngine,
};
pub use query::{Query, QueryId, QueryRecord};
pub use server::{InferenceServer, ReportDetail, RunReport, SchedulerKind, ServerConfig};
pub use sweep::{
    capacity_hint_qps, measure_point, parallel_doubling_search, parallel_map_indexed, rate_sweep,
    search_latency_bounded_throughput, BracketSearch, SweepConfig, ThroughputSearch,
};
pub use worker::PartitionWorker;
