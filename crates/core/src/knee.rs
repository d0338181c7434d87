//! `MaxBatch_knee` derivation (Algorithm 1, Step A).
//!
//! §III-B defines the knee as "the max batch size at the knee of the
//! latency curve": the point where utilization plateaus and latency starts
//! growing linearly with batch size. The paper operationalizes it as the
//! first batch whose profiled utilization reaches 80% (Algorithm 1,
//! line 8); this module implements both that rule and an equivalent
//! latency-takeoff rule (the first batch where latency exceeds the batch-1
//! latency by a configurable factor), which is robust on overhead-bound
//! models whose SM utilization never reaches the threshold. The
//! latency-takeoff rule is the default; the choice is ablation D1 in the
//! README's reproduction map.

use mig_gpu::ProfileSize;

use crate::profile::ProfileTable;

/// The utilization threshold of Algorithm 1, line 8.
pub const DEFAULT_KNEE_THRESHOLD: f64 = 0.8;

/// The default latency-takeoff factor: the knee is where latency has grown
/// 25% beyond its flat region.
pub const DEFAULT_TAKEOFF_FACTOR: f64 = 1.25;

/// How `MaxBatch_knee` is detected on the profiled curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KneeRule {
    /// Algorithm 1's literal rule: first batch with utilization ≥ the
    /// threshold.
    UtilizationThreshold(f64),
    /// First batch whose latency exceeds `factor ×` the batch-1 latency
    /// (the §III-B "knee of the latency curve").
    LatencyTakeoff(f64),
}

impl Default for KneeRule {
    fn default() -> Self {
        KneeRule::LatencyTakeoff(DEFAULT_TAKEOFF_FACTOR)
    }
}

impl KneeRule {
    fn validate(self) {
        match self {
            KneeRule::UtilizationThreshold(t) => {
                assert!(t > 0.0 && t <= 1.0, "knee threshold must be within (0, 1]");
            }
            KneeRule::LatencyTakeoff(f) => {
                assert!(f.is_finite() && f > 1.0, "takeoff factor must exceed 1");
            }
        }
    }
}

/// The knee batch size of one partition size, with the utilization observed
/// there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxBatchKnee {
    /// The partition size this knee belongs to.
    pub size: ProfileSize,
    /// The knee batch size `B_k`.
    pub batch: usize,
    /// Profiled utilization at the knee.
    pub utilization: f64,
}

/// Finds `B_k` for one partition size under the given rule, falling back to
/// the largest profiled batch when the partition never reaches the knee
/// (the paper's big-partition case, where the whole distribution range
/// belongs to the last segment).
///
/// # Panics
///
/// Panics if the rule's parameter is out of range or `size` was not
/// profiled.
///
/// # Examples
///
/// ```
/// use dnn_zoo::ModelKind;
/// use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
/// use paris_core::{find_knee, KneeRule, ProfileTable};
///
/// let model = ModelKind::ResNet50.build();
/// let perf = PerfModel::new(DeviceSpec::a100());
/// let table = ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32);
/// let rule = KneeRule::default();
/// let small = find_knee(&table, ProfileSize::G1, rule);
/// let large = find_knee(&table, ProfileSize::G7, rule);
/// // Small partitions saturate at smaller batches (§IV-B, key observation).
/// assert!(small.batch <= large.batch);
/// ```
#[must_use]
pub fn find_knee(table: &ProfileTable, size: ProfileSize, rule: KneeRule) -> MaxBatchKnee {
    rule.validate();
    let hit = |b: usize| -> bool {
        match rule {
            KneeRule::UtilizationThreshold(t) => table.utilization(size, b) >= t,
            KneeRule::LatencyTakeoff(f) => {
                table.latency_ns(size, b) as f64 >= f * table.latency_ns(size, 1) as f64
            }
        }
    };
    for b in 1..=table.max_batch() {
        if hit(b) {
            return MaxBatchKnee {
                size,
                batch: b,
                utilization: table.utilization(size, b),
            };
        }
    }
    MaxBatchKnee {
        size,
        batch: table.max_batch(),
        utilization: table.utilization(size, table.max_batch()),
    }
}

/// Finds the knees of every profiled partition size, clamped to be
/// non-decreasing in partition size (larger partitions never get a smaller
/// knee, so the batch segments of Algorithm 1 Step B stay well-formed even
/// if profiled curves wobble).
///
/// # Panics
///
/// Panics if the rule's parameter is out of range.
#[must_use]
pub fn find_knees(table: &ProfileTable, rule: KneeRule) -> Vec<MaxBatchKnee> {
    let mut knees: Vec<MaxBatchKnee> = table
        .sizes()
        .iter()
        .map(|&size| find_knee(table, size, rule))
        .collect();
    for i in 1..knees.len() {
        if knees[i].batch < knees[i - 1].batch {
            knees[i].batch = knees[i - 1].batch;
        }
    }
    knees
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;
    use mig_gpu::{DeviceSpec, PerfModel};

    fn table(kind: ModelKind) -> ProfileTable {
        let model = kind.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    #[test]
    fn knees_non_decreasing_in_partition_size_under_both_rules() {
        for rule in [
            KneeRule::default(),
            KneeRule::UtilizationThreshold(DEFAULT_KNEE_THRESHOLD),
        ] {
            for kind in ModelKind::ALL {
                let t = table(kind);
                let knees = find_knees(&t, rule);
                for pair in knees.windows(2) {
                    assert!(
                        pair[1].batch >= pair[0].batch,
                        "{kind} under {rule:?}: knee({}) < knee({})",
                        pair[1].size,
                        pair[0].size
                    );
                }
            }
        }
    }

    #[test]
    fn compute_hungry_models_have_earlier_small_partition_knees() {
        // BERT saturates GPU(1) long before the lightweight models do.
        let rule = KneeRule::default();
        let bert = find_knee(&table(ModelKind::BertBase), ProfileSize::G1, rule);
        let mobilenet = find_knee(&table(ModelKind::MobileNet), ProfileSize::G1, rule);
        let shuffle = find_knee(&table(ModelKind::ShuffleNet), ProfileSize::G1, rule);
        assert!(
            bert.batch < mobilenet.batch,
            "BERT knee {} !< MobileNet knee {}",
            bert.batch,
            mobilenet.batch
        );
        assert!(
            mobilenet.batch <= shuffle.batch,
            "MobileNet knee {} !<= ShuffleNet knee {}",
            mobilenet.batch,
            shuffle.batch
        );
    }

    #[test]
    fn flat_latency_models_never_take_off() {
        // ShuffleNet is kernel-floor-bound: its latency curve stays flat, so
        // every partition's knee falls back to the max profiled batch.
        let t = table(ModelKind::ShuffleNet);
        let knee = find_knee(&t, ProfileSize::G7, KneeRule::default());
        assert_eq!(knee.batch, t.max_batch());
    }

    #[test]
    fn utilization_rule_respects_threshold_when_found_early() {
        let t = table(ModelKind::BertBase);
        let knee = find_knee(&t, ProfileSize::G1, KneeRule::UtilizationThreshold(0.5));
        if knee.batch < t.max_batch() {
            assert!(knee.utilization >= 0.5);
        }
    }

    #[test]
    fn stricter_takeoff_means_later_knee() {
        let t = table(ModelKind::ResNet50);
        let early = find_knee(&t, ProfileSize::G3, KneeRule::LatencyTakeoff(1.1));
        let late = find_knee(&t, ProfileSize::G3, KneeRule::LatencyTakeoff(2.0));
        assert!(early.batch <= late.batch);
    }

    #[test]
    fn lower_threshold_means_earlier_knee() {
        let t = table(ModelKind::ResNet50);
        let strict = find_knee(&t, ProfileSize::G3, KneeRule::UtilizationThreshold(0.9));
        let lax = find_knee(&t, ProfileSize::G3, KneeRule::UtilizationThreshold(0.2));
        assert!(lax.batch <= strict.batch);
    }

    #[test]
    #[should_panic(expected = "knee threshold")]
    fn zero_threshold_panics() {
        let t = table(ModelKind::MobileNet);
        let _ = find_knee(&t, ProfileSize::G1, KneeRule::UtilizationThreshold(0.0));
    }

    #[test]
    #[should_panic(expected = "takeoff factor")]
    fn unit_takeoff_panics() {
        let t = table(ModelKind::MobileNet);
        let _ = find_knee(&t, ProfileSize::G1, KneeRule::LatencyTakeoff(1.0));
    }
}
