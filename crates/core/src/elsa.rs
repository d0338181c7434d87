//! **ELSA** — the ELastic Scheduling Algorithm (paper §IV-C, Algorithm 2).
//!
//! ELSA is heterogeneity-aware: using the profiled latency lookup table it
//! predicts, for every partition, how long a new query would wait
//! (Equation 1) and how much SLA slack it would retain (Equation 2):
//!
//! ```text
//! T_wait    = Σ T_estimated,queued + T_remaining,current          (1)
//! SLA_slack = SLA_target − α·(T_wait + β·T_estimated,new)         (2)
//! ```
//!
//! **Step A** scans partitions smallest-first and places the query on the
//! first one whose slack is positive — smaller partitions are preferred
//! because they serve the query at higher GPU utilization. **Step B** (no
//! partition can meet SLA) places the query where it will finish soonest,
//! minimizing the damage it does to queries behind it.

use std::fmt;

use mig_gpu::ProfileSize;

use crate::profile::ProfileTable;

/// Iteration order of Algorithm 2 Step A (ablation D4 in the README's
/// reproduction map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanOrder {
    /// The paper's order: smallest partitions first (Algorithm 2, line 3).
    #[default]
    SmallestFirst,
    /// Ablation: largest partitions first.
    LargestFirst,
}

/// What to do when no partition can satisfy the SLA (ablation D3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// The paper's Step B: the partition that finishes the query soonest.
    #[default]
    FastestService,
    /// Ablation: the smallest partition regardless of load.
    SmallestPartition,
    /// Ablation: the largest partition regardless of load.
    LargestPartition,
}

/// Tunable parameters of the ELSA slack predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElsaConfig {
    /// The SLA target queries are held to, nanoseconds.
    pub sla_ns: u64,
    /// Equation 2's α: scales the whole predicted service time.
    pub alpha: f64,
    /// Equation 2's β: scales the new query's own execution estimate.
    pub beta: f64,
    /// Step A iteration order.
    pub order: ScanOrder,
    /// Step B fallback selection.
    pub fallback: FallbackPolicy,
}

impl ElsaConfig {
    /// The paper's configuration: α = β = 1, smallest-first, fastest-service
    /// fallback.
    #[must_use]
    pub fn new(sla_ns: u64) -> Self {
        ElsaConfig {
            sla_ns,
            alpha: 1.0,
            beta: 1.0,
            order: ScanOrder::SmallestFirst,
            fallback: FallbackPolicy::FastestService,
        }
    }

    /// Overrides α (ablation D2).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Overrides β (ablation D2).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not positive and finite.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
        self.beta = beta;
        self
    }

    /// Overrides the Step A scan order (ablation D4).
    #[must_use]
    pub fn with_order(mut self, order: ScanOrder) -> Self {
        self.order = order;
        self
    }

    /// Overrides the Step B fallback policy (ablation D3).
    #[must_use]
    pub fn with_fallback(mut self, fallback: FallbackPolicy) -> Self {
        self.fallback = fallback;
        self
    }
}

/// A point-in-time view of one partition's queue, as Equation 1 needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// The partition's MIG profile.
    pub size: ProfileSize,
    /// `Σ T_estimated,queued`: total estimated execution time of queries
    /// waiting in the partition's local queue, nanoseconds.
    pub queued_work_ns: u64,
    /// `T_remaining,current`: estimated time until the currently executing
    /// query finishes (0 when idle), nanoseconds.
    pub remaining_current_ns: u64,
}

impl PartitionSnapshot {
    /// An idle partition of the given size.
    #[must_use]
    pub fn idle(size: ProfileSize) -> Self {
        PartitionSnapshot {
            size,
            queued_work_ns: 0,
            remaining_current_ns: 0,
        }
    }

    /// Equation 1: the wait a newly enqueued query would see.
    #[must_use]
    pub fn wait_ns(&self) -> u64 {
        self.queued_work_ns
            .saturating_add(self.remaining_current_ns)
    }
}

/// Where ELSA decided to send a query, and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Step A succeeded: `partition` can serve the query within SLA.
    WithinSla {
        /// Index into the snapshot slice.
        partition: usize,
        /// The predicted slack (Equation 2), nanoseconds.
        slack_ns: f64,
    },
    /// Step B: no partition meets SLA; `partition` minimizes service time.
    Fallback {
        /// Index into the snapshot slice.
        partition: usize,
        /// Predicted wait + execution, nanoseconds.
        expected_service_ns: u64,
    },
}

impl Decision {
    /// The chosen partition index.
    #[must_use]
    pub fn partition(&self) -> usize {
        match *self {
            Decision::WithinSla { partition, .. } | Decision::Fallback { partition, .. } => {
                partition
            }
        }
    }

    /// Whether Step A found an SLA-satisfying partition.
    #[must_use]
    pub fn is_within_sla(&self) -> bool {
        matches!(self, Decision::WithinSla { .. })
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Decision::WithinSla {
                partition,
                slack_ns,
            } => write!(
                f,
                "partition {partition} within SLA (slack {:.3} ms)",
                slack_ns / 1e6
            ),
            Decision::Fallback {
                partition,
                expected_service_ns,
            } => write!(
                f,
                "partition {partition} as fastest fallback ({:.3} ms service)",
                expected_service_ns as f64 / 1e6
            ),
        }
    }
}

/// The ELSA scheduler core: pure decision logic over partition snapshots.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
/// use paris_core::{Elsa, ElsaConfig, PartitionSnapshot, ProfileTable};
///
/// let model = ModelKind::ResNet50.build();
/// let perf = PerfModel::new(DeviceSpec::a100());
/// let table = ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32);
/// let elsa = Elsa::new(ElsaConfig::new(table.sla_target_ns(1.5)));
///
/// // Both partitions idle: ELSA prefers the smaller one (better utility).
/// let snapshots = [
///     PartitionSnapshot::idle(ProfileSize::G7),
///     PartitionSnapshot::idle(ProfileSize::G2),
/// ];
/// let decision = elsa.place(4, &table, &snapshots);
/// assert_eq!(decision.partition(), 1);
/// assert!(decision.is_within_sla());
/// ```
#[derive(Debug, Clone)]
pub struct Elsa {
    config: ElsaConfig,
}

impl Elsa {
    /// Creates an ELSA core with the given configuration.
    #[must_use]
    pub fn new(config: ElsaConfig) -> Self {
        Elsa { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ElsaConfig {
        &self.config
    }

    /// Equation 2: the SLA slack a query with execution estimate
    /// `t_estimated_new_ns` retains on the partition described by
    /// `snapshot`. Negative slack predicts an SLA violation.
    #[must_use]
    pub fn slack_ns(&self, snapshot: &PartitionSnapshot, t_estimated_new_ns: u64) -> f64 {
        let predicted = self.config.alpha
            * (snapshot.wait_ns() as f64 + self.config.beta * t_estimated_new_ns as f64);
        self.config.sla_ns as f64 - predicted
    }

    /// Algorithm 2: chooses the partition for a query of the given batch.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty or a snapshot's size was not
    /// profiled in `table`.
    #[must_use]
    pub fn place(
        &self,
        batch: usize,
        table: &ProfileTable,
        partitions: &[PartitionSnapshot],
    ) -> Decision {
        assert!(!partitions.is_empty(), "no partitions to schedule onto");

        // Step A: smallest partition whose predicted slack is positive.
        // Within one partition size, partitions are visited least-loaded
        // first so that same-size instances share work instead of stacking
        // the lowest-indexed queue.
        let mut order: Vec<usize> = (0..partitions.len()).collect();
        match self.config.order {
            ScanOrder::SmallestFirst => {
                order.sort_by_key(|&i| (partitions[i].size, partitions[i].wait_ns(), i));
            }
            ScanOrder::LargestFirst => {
                order.sort_by_key(|&i| {
                    (
                        std::cmp::Reverse(partitions[i].size),
                        partitions[i].wait_ns(),
                        i,
                    )
                });
            }
        }
        for &i in &order {
            let t_new = table.latency_ns(partitions[i].size, batch);
            let slack = self.slack_ns(&partitions[i], t_new);
            if slack > 0.0 {
                return Decision::WithinSla {
                    partition: i,
                    slack_ns: slack,
                };
            }
        }

        // Step B: SLA unattainable — bound the damage.
        let service = |i: usize| {
            let t_new = table.latency_ns(partitions[i].size, batch);
            partitions[i].wait_ns().saturating_add(t_new)
        };
        let pick = match self.config.fallback {
            FallbackPolicy::FastestService => (0..partitions.len())
                .min_by_key(|&i| (service(i), i))
                .expect("partitions is non-empty"),
            FallbackPolicy::SmallestPartition => order[0],
            FallbackPolicy::LargestPartition => *order.last().expect("non-empty"),
        };
        Decision::Fallback {
            partition: pick,
            expected_service_ns: service(pick),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;
    use mig_gpu::{DeviceSpec, PerfModel};

    fn table() -> ProfileTable {
        let model = ModelKind::ResNet50.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    fn elsa(table: &ProfileTable) -> Elsa {
        Elsa::new(ElsaConfig::new(table.sla_target_ns(1.5)))
    }

    #[test]
    fn slack_formula_matches_equation_2() {
        let t = table();
        let cfg = ElsaConfig::new(1_000_000).with_alpha(2.0).with_beta(3.0);
        let e = Elsa::new(cfg);
        let snap = PartitionSnapshot {
            size: ProfileSize::G1,
            queued_work_ns: 100_000,
            remaining_current_ns: 50_000,
        };
        // slack = SLA − α(Twait + β·Tnew) = 1e6 − 2(150e3 + 3·10e3).
        let slack = e.slack_ns(&snap, 10_000);
        assert!((slack - (1_000_000.0 - 2.0 * (150_000.0 + 30_000.0))).abs() < 1e-9);
        let _ = t;
    }

    #[test]
    fn prefers_smallest_partition_when_sla_allows() {
        let t = table();
        let e = elsa(&t);
        let snaps = [
            PartitionSnapshot::idle(ProfileSize::G7),
            PartitionSnapshot::idle(ProfileSize::G3),
            PartitionSnapshot::idle(ProfileSize::G1),
        ];
        let d = e.place(1, &t, &snaps);
        assert_eq!(d.partition(), 2, "idle G1 should win for a small batch");
        assert!(d.is_within_sla());
    }

    #[test]
    fn busy_small_partition_spills_to_larger() {
        // The Figure 10 scenario: the small partition is backed up enough
        // that only the large partition can meet SLA.
        let t = table();
        let e = elsa(&t);
        let sla = e.config().sla_ns;
        let snaps = [
            PartitionSnapshot {
                size: ProfileSize::G1,
                queued_work_ns: sla, // hopeless backlog
                remaining_current_ns: 0,
            },
            PartitionSnapshot::idle(ProfileSize::G7),
        ];
        let d = e.place(8, &t, &snaps);
        assert_eq!(d.partition(), 1);
        assert!(d.is_within_sla());
    }

    #[test]
    fn fallback_picks_fastest_service() {
        let t = table();
        let e = elsa(&t);
        let sla = e.config().sla_ns;
        // Both overloaded; the large partition finishes the query sooner.
        let snaps = [
            PartitionSnapshot {
                size: ProfileSize::G1,
                queued_work_ns: 3 * sla,
                remaining_current_ns: 0,
            },
            PartitionSnapshot {
                size: ProfileSize::G7,
                queued_work_ns: 3 * sla,
                remaining_current_ns: 0,
            },
        ];
        let d = e.place(32, &t, &snaps);
        assert!(!d.is_within_sla());
        assert_eq!(d.partition(), 1, "G7 executes the query faster");
    }

    #[test]
    fn fallback_ablations_differ() {
        let t = table();
        let sla = t.sla_target_ns(1.5);
        let overloaded = |size| PartitionSnapshot {
            size,
            queued_work_ns: 10 * sla,
            remaining_current_ns: 0,
        };
        let snaps = [overloaded(ProfileSize::G1), overloaded(ProfileSize::G7)];
        let small =
            Elsa::new(ElsaConfig::new(sla).with_fallback(FallbackPolicy::SmallestPartition));
        let large = Elsa::new(ElsaConfig::new(sla).with_fallback(FallbackPolicy::LargestPartition));
        assert_eq!(small.place(8, &t, &snaps).partition(), 0);
        assert_eq!(large.place(8, &t, &snaps).partition(), 1);
    }

    #[test]
    fn largest_first_order_flips_preference() {
        let t = table();
        let e =
            Elsa::new(ElsaConfig::new(t.sla_target_ns(1.5)).with_order(ScanOrder::LargestFirst));
        let snaps = [
            PartitionSnapshot::idle(ProfileSize::G1),
            PartitionSnapshot::idle(ProfileSize::G7),
        ];
        assert_eq!(e.place(1, &t, &snaps).partition(), 1);
    }

    #[test]
    fn alpha_makes_predictor_conservative() {
        // With a huge α the small partition's estimate blows past SLA and
        // the query lands on the large one.
        let t = table();
        let sla = t.sla_target_ns(1.5);
        let relaxed = Elsa::new(ElsaConfig::new(sla));
        let paranoid = Elsa::new(ElsaConfig::new(sla).with_alpha(1000.0));
        let snaps = [
            PartitionSnapshot::idle(ProfileSize::G1),
            PartitionSnapshot::idle(ProfileSize::G7),
        ];
        assert_eq!(relaxed.place(1, &t, &snaps).partition(), 0);
        let d = paranoid.place(1, &t, &snaps);
        assert!(
            !d.is_within_sla(),
            "nothing satisfies a 1000× inflated estimate"
        );
    }

    #[test]
    fn wait_accounts_for_queue_and_current() {
        let snap = PartitionSnapshot {
            size: ProfileSize::G2,
            queued_work_ns: 700,
            remaining_current_ns: 300,
        };
        assert_eq!(snap.wait_ns(), 1_000);
        assert_eq!(PartitionSnapshot::idle(ProfileSize::G2).wait_ns(), 0);
    }

    #[test]
    fn ties_break_deterministically_by_index() {
        let t = table();
        let e = elsa(&t);
        let snaps = [
            PartitionSnapshot::idle(ProfileSize::G2),
            PartitionSnapshot::idle(ProfileSize::G2),
        ];
        assert_eq!(e.place(4, &t, &snaps).partition(), 0);
    }

    #[test]
    #[should_panic(expected = "no partitions")]
    fn empty_partition_list_panics() {
        let t = table();
        let e = elsa(&t);
        let _ = e.place(1, &t, &[]);
    }

    #[test]
    fn decision_display() {
        let d = Decision::WithinSla {
            partition: 3,
            slack_ns: 2e6,
        };
        assert!(d.to_string().contains("partition 3"));
    }
}
