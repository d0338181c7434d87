//! Shared resilience scenarios: the PR-6 rack-outage-plus-surge and
//! slow-GPU setups, used identically by `bench_resilience` (headline
//! numbers), `bench_obs` (recorder overhead + zero-observer check) and
//! `trace_report` (latency breakdown). One definition, or the three
//! binaries silently stop measuring the same workload.
//!
//! Everything here is a pure function of `(duration_s, seed)` — moving
//! the code out of `bench_resilience` must not change a single byte of
//! `BENCH_resilience.json`.

use paris_elsa::cluster::{Cluster, RouterPolicy, ShedPolicy};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::{FaultPlan, FaultTopology};
use paris_elsa::prelude::*;

/// Runs `trace` (unpinned) through `cluster` under `plan`, the rest of the
/// run as `spec` says: the run's availability accounting, plus the trace
/// and registry `spec` asked for.
pub fn run_plan(
    cluster: &Cluster,
    trace: &[TaggedQuerySpec],
    plan: &FaultPlan,
    spec: RunSpec,
) -> (FaultReport, Option<QueryTrace>, Option<MetricRegistry>) {
    let spec = spec.with_faults(plan.compile());
    let run = cluster.run_with(trace.iter().map(|&tq| (None, tq)), &spec);
    let report = FaultReport::new(cluster, plan, run.report);
    (report, run.trace, run.registry)
}

/// Shared model table: MobileNet on A100 MIG slices.
#[must_use]
pub fn mobilenet_table() -> ProfileTable {
    let perf = PerfModel::new(DeviceSpec::a100());
    ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32)
}

// ---------------------------------------------------------------------------
// Scenario 1: correlated rack outage + surge, with/without brownout shedding.
// ---------------------------------------------------------------------------

/// Correlated rack outage during a load surge: two 3-GPU shards serving a
/// premium (class 0) and a batch (class 1) model, GPU lanes racked
/// pairwise, `rack0` out in the middle of the surge.
pub struct RackScenario {
    pub duration_s: f64,
    pub seed: u64,
    pub shard_gpus: Vec<usize>,
    pub gpus_per_rack: usize,
    pub table: ProfileTable,
    pub dist: BatchDistribution,
    /// Per-model offered rate in the calm phases (premium and batch each).
    pub calm_qps: f64,
    /// Per-model offered rate in the surge phase.
    pub surge_qps: f64,
    pub outage: (f64, f64),
}

impl RackScenario {
    #[must_use]
    pub fn new(duration_s: f64, seed: u64, table: &ProfileTable) -> Self {
        let dist = BatchDistribution::paper_default();
        let shard_gpus = vec![3, 3];
        let fleet: f64 = shard_gpus
            .iter()
            .map(|&g| {
                Self::shard(table, &dist, g)
                    .expect("shard plan builds")
                    .capacity_hint_qps()
            })
            .sum();
        RackScenario {
            duration_s,
            seed,
            shard_gpus,
            gpus_per_rack: 2,
            table: table.clone(),
            dist,
            // Calm: 50 % of fleet capacity across both models. Surge: 90 %
            // offered while the rack outage cuts capacity to 4/6 — ~1.35×
            // overload, where admitting everything drowns premium too.
            calm_qps: 0.25 * fleet,
            surge_qps: 0.45 * fleet,
            // The outage sits inside the surge window.
            outage: (0.3 * duration_s, 0.7 * duration_s),
        }
    }

    fn shard(
        table: &ProfileTable,
        dist: &BatchDistribution,
        gpus: usize,
    ) -> Result<MultiModelServer, paris_elsa::paris::PlanError> {
        MultiModelServer::new(
            vec![
                ModelSpec::new("premium", table.clone(), dist.clone()),
                ModelSpec::new("batch", table.clone(), dist.clone()),
            ],
            GpcBudget::new(gpus * 7, gpus),
            MultiModelConfig::new().with_detail(ReportDetail::Summary),
        )
    }

    #[must_use]
    pub fn cluster(&self, shedding: bool) -> Cluster {
        let shards = self
            .shard_gpus
            .iter()
            .map(|&g| Self::shard(&self.table, &self.dist, g).expect("shard plan builds"))
            .collect();
        let cluster = Cluster::new(shards, RouterPolicy::JoinShortestQueue);
        if shedding {
            // Margin 0.5: batch browns out once its projected delay eats
            // half the SLA budget, keeping queues short enough that
            // premium's own slack survives the outage.
            cluster.with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.5))
        } else {
            cluster
        }
    }

    #[must_use]
    pub fn trace(&self) -> Vec<TaggedQuerySpec> {
        let both = |qps: f64| vec![(qps, self.dist.clone()), (qps, self.dist.clone())];
        MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(0.25 * self.duration_s, both(self.calm_qps)),
                PhaseSpec::new(0.5 * self.duration_s, both(self.surge_qps)),
                PhaseSpec::new(0.25 * self.duration_s, both(self.calm_qps)),
            ],
            self.seed,
        )
        .generate()
    }

    #[must_use]
    pub fn topology(&self) -> FaultTopology {
        FaultTopology::racks(&self.shard_gpus, self.gpus_per_rack)
    }

    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new().with_domain_outage(&self.topology(), "rack0", self.outage.0, self.outage.1)
    }
}

// ---------------------------------------------------------------------------
// Scenario 2: slow-GPU partial degradation, placement-aware vs blind.
// ---------------------------------------------------------------------------

/// Slow-GPU partial degradation: one 3-GPU shard, thermal throttling slows
/// GPU 0 by 4× for the middle half of the run.
pub struct SlowScenario {
    pub duration_s: f64,
    pub seed: u64,
    pub gpus: usize,
    pub factor: f64,
    pub window: (f64, f64),
    pub table: ProfileTable,
    pub dist: BatchDistribution,
    pub rate_qps: f64,
}

impl SlowScenario {
    #[must_use]
    pub fn new(duration_s: f64, seed: u64, table: &ProfileTable) -> Self {
        let dist = BatchDistribution::paper_default();
        let gpus = 3;
        let capacity = Self::shard(table, &dist, gpus, true)
            .expect("shard plan builds")
            .capacity_hint_qps();
        SlowScenario {
            duration_s,
            seed,
            gpus,
            // 4× throttling on one of three GPUs for the middle half of
            // the run: effective capacity ~75 % of nominal under the
            // window, against a 65 % offered load — tight enough that
            // placing onto the sick GPU visibly drags the tail.
            factor: 4.0,
            window: (0.25 * duration_s, 0.75 * duration_s),
            table: table.clone(),
            dist,
            rate_qps: 0.65 * capacity,
        }
    }

    fn shard(
        table: &ProfileTable,
        dist: &BatchDistribution,
        gpus: usize,
        aware: bool,
    ) -> Result<MultiModelServer, paris_elsa::paris::PlanError> {
        let config = MultiModelConfig::new().with_detail(ReportDetail::Summary);
        let config = if aware {
            config
        } else {
            config.with_degrade_blind()
        };
        MultiModelServer::new(
            vec![ModelSpec::new("mobilenet_v1", table.clone(), dist.clone())],
            GpcBudget::new(gpus * 7, gpus),
            config,
        )
    }

    #[must_use]
    pub fn cluster(&self, aware: bool) -> Cluster {
        let shard =
            Self::shard(&self.table, &self.dist, self.gpus, aware).expect("shard plan builds");
        Cluster::new(vec![shard], RouterPolicy::JoinShortestQueue)
    }

    #[must_use]
    pub fn trace(&self) -> Vec<TaggedQuerySpec> {
        MultiTraceGenerator::new(
            vec![PhaseSpec::new(
                self.duration_s,
                vec![(self.rate_qps, self.dist.clone())],
            )],
            self.seed.wrapping_add(1),
        )
        .generate()
    }

    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new().with_gpu_degrade(0, 0, self.factor, self.window.0, self.window.1)
    }
}
