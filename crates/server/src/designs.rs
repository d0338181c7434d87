//! The six design points of the paper's evaluation (§VI) and the Table I
//! testbed configurations.

use std::fmt;

use dnn_zoo::ModelKind;
use inference_workload::BatchDistribution;
use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
use paris_core::{
    homogeneous_plan, random_plan, ElsaConfig, GpcBudget, KneeRule, Paris, PartitionPlan,
    PlanError, ProfileTable,
};

use crate::server::{InferenceServer, SchedulerKind, ServerConfig};
use crate::sweep::{
    capacity_hint_qps, search_latency_bounded_throughput, SweepConfig, ThroughputSearch,
};

/// One of the evaluated server designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesignPoint {
    /// `GPU(N)+FIFS`: homogeneous partitioning, first-idle first-serve.
    HomogeneousFifs(ProfileSize),
    /// `Random+FIFS`: random heterogeneous partitioning, FIFS.
    RandomFifs {
        /// Seed for the random partitioner.
        seed: u64,
    },
    /// `Random+ELSA`: random heterogeneous partitioning, ELSA.
    RandomElsa {
        /// Seed for the random partitioner.
        seed: u64,
    },
    /// `PARIS+FIFS`: PARIS partitioning, FIFS scheduling.
    ParisFifs,
    /// `PARIS+ELSA`: the paper's full proposal.
    ParisElsa,
}

impl DesignPoint {
    /// Whether this design schedules with ELSA.
    #[must_use]
    pub fn uses_elsa(&self) -> bool {
        matches!(
            self,
            DesignPoint::RandomElsa { .. } | DesignPoint::ParisElsa
        )
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignPoint::HomogeneousFifs(size) => write!(f, "{size}+FIFS"),
            DesignPoint::RandomFifs { .. } => f.write_str("Random+FIFS"),
            DesignPoint::RandomElsa { .. } => f.write_str("Random+ELSA"),
            DesignPoint::ParisFifs => f.write_str("PARIS+FIFS"),
            DesignPoint::ParisElsa => f.write_str("PARIS+ELSA"),
        }
    }
}

/// Table I GPC budgets: `(heterogeneous/GPU(1,2,3) budget, GPU(7) budget)`.
///
/// The GPU(7) homogeneous servers get the closest GPC count that divides by
/// 7 (§V): MobileNet-class models use 28 GPCs (4×7g), ResNet-class 56
/// (8×7g), BERT 42 (6×7g). PARIS always uses the (smaller or equal)
/// heterogeneous budget, making its wins conservative.
#[must_use]
pub fn paper_budgets(model: ModelKind) -> (GpcBudget, GpcBudget) {
    match model {
        ModelKind::ShuffleNet | ModelKind::MobileNet => {
            (GpcBudget::new(24, 4), GpcBudget::new(28, 4))
        }
        ModelKind::ResNet50 | ModelKind::Conformer => {
            (GpcBudget::new(48, 8), GpcBudget::new(56, 8))
        }
        ModelKind::BertBase => (GpcBudget::new(42, 6), GpcBudget::new(42, 6)),
    }
}

/// A fully specified evaluation testbed for one model: profiling table,
/// workload distribution, budgets and SLA — everything needed to realize
/// each [`DesignPoint`] as a runnable server.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use inference_server::{DesignPoint, Testbed};
///
/// let bed = Testbed::paper_default(ModelKind::MobileNet);
/// let paris = bed.server(DesignPoint::ParisElsa)?;
/// // PARIS on MobileNet yields a heterogeneous small-leaning mix.
/// assert!(paris.partitions().len() > 4);
/// # Ok::<(), paris_core::PlanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Testbed {
    model: ModelKind,
    table: ProfileTable,
    dist: BatchDistribution,
    budget: GpcBudget,
    gpu7_budget: GpcBudget,
    sla_multiplier: f64,
    knee_rule: KneeRule,
}

impl Testbed {
    /// The paper's default setup for `model`: A100 device model, log-normal
    /// batches 1–32 (σ = 0.9), Table I budgets, SLA = 1.5×.
    #[must_use]
    pub fn paper_default(model: ModelKind) -> Self {
        Self::with_distribution(model, BatchDistribution::paper_default())
    }

    /// A testbed with a custom batch distribution (sensitivity studies);
    /// the profiling table covers the distribution's batch range.
    #[must_use]
    pub fn with_distribution(model: ModelKind, dist: BatchDistribution) -> Self {
        let graph = model.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        let max_batch = dist.max_batch().max(BatchDistribution::DEFAULT_MAX_BATCH);
        let table = ProfileTable::profile(&graph, &perf, &ProfileSize::ALL, max_batch);
        let (budget, gpu7_budget) = paper_budgets(model);
        Testbed {
            model,
            table,
            dist,
            budget,
            gpu7_budget,
            sla_multiplier: 1.5,
            knee_rule: KneeRule::default(),
        }
    }

    /// Overrides the SLA multiplier `N` (§V; default 1.5).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not positive and finite.
    #[must_use]
    pub fn with_sla_multiplier(mut self, n: f64) -> Self {
        assert!(n.is_finite() && n > 0.0, "SLA multiplier must be positive");
        self.sla_multiplier = n;
        self
    }

    /// Overrides the PARIS knee rule (ablation D1).
    #[must_use]
    pub fn with_knee_rule(mut self, rule: KneeRule) -> Self {
        self.knee_rule = rule;
        self
    }

    /// The model under test.
    #[must_use]
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The profiling table (shared by PARIS, ELSA and the simulator).
    #[must_use]
    pub fn table(&self) -> &ProfileTable {
        &self.table
    }

    /// The workload's batch-size distribution.
    #[must_use]
    pub fn distribution(&self) -> &BatchDistribution {
        &self.dist
    }

    /// The SLA target in nanoseconds (§V: `N ×` the max-batch latency on
    /// the largest partition).
    #[must_use]
    pub fn sla_ns(&self) -> u64 {
        self.table.sla_target_ns(self.sla_multiplier)
    }

    /// The GPC budget a design point draws from (GPU(7) uses its divisible
    /// budget; everything else the heterogeneous one).
    #[must_use]
    pub fn budget_for(&self, design: DesignPoint) -> GpcBudget {
        match design {
            DesignPoint::HomogeneousFifs(ProfileSize::G7) => self.gpu7_budget,
            _ => self.budget,
        }
    }

    /// Builds the partition plan of a design point.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from the underlying partitioner.
    pub fn plan(&self, design: DesignPoint) -> Result<PartitionPlan, PlanError> {
        let budget = self.budget_for(design);
        match design {
            DesignPoint::HomogeneousFifs(size) => homogeneous_plan(size, budget),
            DesignPoint::RandomFifs { seed } | DesignPoint::RandomElsa { seed } => {
                random_plan(budget, seed)
            }
            DesignPoint::ParisFifs | DesignPoint::ParisElsa => Paris::new(&self.table, &self.dist)
                .with_knee_rule(self.knee_rule)
                .plan(budget),
        }
    }

    /// Builds the runnable server of a design point.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from the underlying partitioner.
    pub fn server(&self, design: DesignPoint) -> Result<InferenceServer, PlanError> {
        let plan = self.plan(design)?;
        let scheduler = if design.uses_elsa() {
            SchedulerKind::Elsa(ElsaConfig::new(self.sla_ns()))
        } else {
            SchedulerKind::Fifs
        };
        Ok(InferenceServer::from_plan(
            &plan,
            self.table.clone(),
            ServerConfig::new(scheduler),
        ))
    }

    /// Measures the latency-bounded throughput of a design point.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from the underlying partitioner.
    pub fn latency_bounded_qps(
        &self,
        design: DesignPoint,
        sweep: &SweepConfig,
    ) -> Result<f64, PlanError> {
        let server = self.server(design)?;
        Ok(self
            .latency_bounded_search(&server, sweep)
            .1
            .latency_bounded_qps)
    }

    /// Runs the latency-bounded throughput search on `server` (any server
    /// over this testbed's traffic, e.g. one with a tuned scheduler),
    /// starting at 0.2× its capacity hint. Returns the hint beside the
    /// search.
    #[must_use]
    pub fn latency_bounded_search(
        &self,
        server: &InferenceServer,
        sweep: &SweepConfig,
    ) -> (f64, ThroughputSearch) {
        let hint = capacity_hint_qps(server, &self.dist);
        let search =
            search_latency_bounded_throughput(server, &self.dist, sweep, (hint * 0.2).max(1.0));
        (hint, search)
    }

    /// Determines `GPU(max)`: the best-performing homogeneous design
    /// (§VI's optimistic homogeneous upper bound). Returns the winning size
    /// and its latency-bounded throughput.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] if a homogeneous plan cannot be built.
    pub fn gpu_max(&self, sweep: &SweepConfig) -> Result<(ProfileSize, f64), PlanError> {
        let candidates = [
            ProfileSize::G1,
            ProfileSize::G2,
            ProfileSize::G3,
            ProfileSize::G7,
        ];
        let mut best: Option<(ProfileSize, f64)> = None;
        for size in candidates {
            let qps = self.latency_bounded_qps(DesignPoint::HomogeneousFifs(size), sweep)?;
            if best.is_none_or(|(_, b)| qps > b) {
                best = Some((size, qps));
            }
        }
        Ok(best.expect("candidate list is non-empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_table1() {
        let (b, g7) = paper_budgets(ModelKind::MobileNet);
        assert_eq!((b.total_gpcs, b.num_gpus), (24, 4));
        assert_eq!((g7.total_gpcs, g7.num_gpus), (28, 4));
        let (b, g7) = paper_budgets(ModelKind::BertBase);
        assert_eq!((b.total_gpcs, b.num_gpus), (42, 6));
        assert_eq!((g7.total_gpcs, g7.num_gpus), (42, 6));
        let (b, g7) = paper_budgets(ModelKind::Conformer);
        assert_eq!((b.total_gpcs, b.num_gpus), (48, 8));
        assert_eq!((g7.total_gpcs, g7.num_gpus), (56, 8));
    }

    #[test]
    fn every_design_yields_a_server() {
        let bed = Testbed::paper_default(ModelKind::ResNet50);
        for design in [
            DesignPoint::HomogeneousFifs(ProfileSize::G1),
            DesignPoint::HomogeneousFifs(ProfileSize::G3),
            DesignPoint::HomogeneousFifs(ProfileSize::G7),
            DesignPoint::RandomFifs { seed: 1 },
            DesignPoint::RandomElsa { seed: 1 },
            DesignPoint::ParisFifs,
            DesignPoint::ParisElsa,
        ] {
            let server = bed.server(design).unwrap();
            assert!(!server.partitions().is_empty(), "{design}");
        }
    }

    #[test]
    fn gpu7_design_uses_divisible_budget() {
        let bed = Testbed::paper_default(ModelKind::MobileNet);
        let plan = bed
            .plan(DesignPoint::HomogeneousFifs(ProfileSize::G7))
            .unwrap();
        assert_eq!(plan.count(ProfileSize::G7), 4, "28 GPCs → 4×GPU(7)");
        let paris = bed.plan(DesignPoint::ParisElsa).unwrap();
        assert!(
            paris.total_gpcs_used() <= 24,
            "PARIS uses the smaller budget"
        );
    }

    #[test]
    fn elsa_designs_carry_the_sla() {
        let bed = Testbed::paper_default(ModelKind::ResNet50);
        let server = bed.server(DesignPoint::ParisElsa).unwrap();
        match &server.config().scheduler {
            SchedulerKind::Elsa(cfg) => assert_eq!(cfg.sla_ns, bed.sla_ns()),
            SchedulerKind::Fifs => panic!("ParisElsa must schedule with ELSA"),
        }
    }

    #[test]
    fn sla_multiplier_scales_target() {
        let bed = Testbed::paper_default(ModelKind::ShuffleNet);
        let tight = bed.sla_ns() as f64;
        let loose = Testbed::paper_default(ModelKind::ShuffleNet)
            .with_sla_multiplier(3.0)
            .sla_ns() as f64;
        assert!((loose / tight - 2.0).abs() < 1e-6);
    }

    #[test]
    fn design_display_names_match_paper() {
        assert_eq!(
            DesignPoint::HomogeneousFifs(ProfileSize::G3).to_string(),
            "GPU(3)+FIFS"
        );
        assert_eq!(DesignPoint::ParisElsa.to_string(), "PARIS+ELSA");
        assert_eq!(
            DesignPoint::RandomElsa { seed: 0 }.to_string(),
            "Random+ELSA"
        );
    }

    #[test]
    fn custom_distribution_extends_profile_range() {
        let dist = BatchDistribution::log_normal(64, 0.9);
        let bed = Testbed::with_distribution(ModelKind::MobileNet, dist);
        assert_eq!(bed.table().max_batch(), 64);
    }
}
