//! Aryl-style capacity loaning between a low-priority batch pool and the
//! serving shards.
//!
//! Aryl (arXiv:2202.07896) observed that a cluster serving
//! latency-critical inference next to preemptible batch work can *loan*
//! idle batch GPUs to the serving pool during load spikes and take them
//! back when the spike passes — capacity elasticity one level above MIG
//! reslicing. [`LoanPolicy`] brings that loop to the cluster simulator: a
//! cluster-level [`DriftDetector`] watches every shard's arrival stream
//! (one detector lane per shard × model); when a window closes with
//! significant drift, the controller re-estimates each shard's demand in
//! full-GPU equivalents and moves whole GPUs between the batch pool and
//! the shards. A borrowed GPU joins the shard's [`GpcBudget`] and the
//! shard re-plans onto it through the ordinary `plan_diff` + quiesce +
//! reslice machinery; a reclaim shrinks the budget the same way, so
//! in-flight queries drain before the GPU leaves — never stranding work.

use des_engine::SimTime;
use inference_workload::DriftDetectorConfig;
use paris_core::{GpcBudget, ReconfigMode};

/// When and how the cluster moves whole GPUs between the batch pool and
/// serving shards.
#[derive(Debug, Clone)]
pub struct LoanPolicy {
    /// GPUs the batch pool can lend (the low-priority pool's size).
    pub pool_gpus: usize,
    /// The cluster-level drift trigger: loans are only considered when a
    /// detection window closes with statistically significant drift, so a
    /// noisy minute cannot thrash GPUs back and forth.
    pub detector: DriftDetectorConfig,
    /// Target utilization headroom: a shard borrows when its estimated
    /// demand (full-GPU equivalents) exceeds `overload_ratio ×` its GPU
    /// count, and borrows enough to push demand back under that line.
    pub overload_ratio: f64,
    /// Reclaim hysteresis: loaned GPUs return only once demand falls below
    /// `underload_ratio ×` the GPU count. Must stay well under
    /// [`overload_ratio`](Self::overload_ratio) or the controller
    /// oscillates.
    pub underload_ratio: f64,
    /// How each loan-triggered re-plan stages its edits: one GPU at a time
    /// ([`ReconfigMode::Rolling`], the default — bounding the shard's
    /// capacity dip during the handover) or one combined outage
    /// ([`ReconfigMode::AllAtOnce`], kept for ablations).
    pub mode: ReconfigMode,
}

impl LoanPolicy {
    /// A policy lending up to `pool_gpus` GPUs, deciding on `window_s`
    /// second windows, with 80 % / 40 % overload/underload thresholds and
    /// rolling staging (the workspace default).
    ///
    /// Every loan-triggered re-plan is priced by the one A100 reslice
    /// model
    /// ([`ResliceCostModel::a100_default`](mig_gpu::ResliceCostModel::a100_default)),
    /// plus its per-GPU handover charge
    /// ([`gpu_handover_ns`](mig_gpu::ResliceCostModel::gpu_handover_ns)).
    /// A transfer whose re-plan lands on the *identical* layout charges
    /// nothing: the moved GPU is not used by any serving instance, so
    /// handing it over interrupts nothing.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not positive and finite.
    #[must_use]
    pub fn new(pool_gpus: usize, window_s: f64) -> Self {
        LoanPolicy {
            pool_gpus,
            detector: DriftDetectorConfig::new(window_s),
            overload_ratio: 0.8,
            underload_ratio: 0.4,
            mode: ReconfigMode::Rolling,
        }
    }

    /// Overrides the drift detector configuration.
    #[must_use]
    pub fn with_detector(mut self, detector: DriftDetectorConfig) -> Self {
        self.detector = detector;
        self
    }

    /// Overrides the overload/underload thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < underload < overload` and both are finite.
    #[must_use]
    pub fn with_thresholds(mut self, overload: f64, underload: f64) -> Self {
        assert!(
            underload.is_finite()
                && overload.is_finite()
                && 0.0 < underload
                && underload < overload,
            "need 0 < underload < overload"
        );
        self.overload_ratio = overload;
        self.underload_ratio = underload;
        self
    }

    /// Overrides the reconfiguration staging mode of loan-triggered
    /// re-plans.
    #[must_use]
    pub fn with_mode(mut self, mode: ReconfigMode) -> Self {
        self.mode = mode;
        self
    }

    /// The GPU count this policy would steer a shard to, given its
    /// estimated demand (full-GPU equivalents), its base (owned) GPUs, its
    /// current GPUs and the pool's free GPUs. Pure — the decision rule the
    /// cluster applies per shard at every triggered window:
    ///
    /// * overloaded (`demand > overload_ratio × current`): grow toward
    ///   `⌈demand / overload_ratio⌉`, bounded by what the pool has;
    /// * sustained underload (`demand < underload_ratio × current` while
    ///   holding loans): shrink back toward the same target, never below
    ///   the shard's own GPUs;
    /// * otherwise: hold (the hysteresis band).
    #[must_use]
    pub fn target_gpus(
        &self,
        demand_gpus: f64,
        base: usize,
        current: usize,
        pool_free: usize,
    ) -> usize {
        debug_assert!(current >= base, "a shard never drops below its own GPUs");
        let need = (demand_gpus / self.overload_ratio).ceil().max(1.0) as usize;
        if demand_gpus > self.overload_ratio * current as f64 {
            current + need.saturating_sub(current).min(pool_free)
        } else if current > base && demand_gpus < self.underload_ratio * current as f64 {
            need.clamp(base, current)
        } else {
            current
        }
    }
}

/// One completed GPU transfer between the batch pool and a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoanEvent {
    /// When the transfer was decided (the shard's re-plan onto the new
    /// budget starts here; drain + reslice play out after).
    pub at: SimTime,
    /// The borrowing/returning shard.
    pub shard: usize,
    /// GPUs moved: positive = borrowed from the pool, negative = returned.
    pub gpus_delta: i64,
    /// Pool GPUs still lendable after the transfer.
    pub pool_free_after: usize,
}

/// Book-keeping for one run's loans: who holds what, and what the batch
/// pool has left.
#[derive(Debug, Clone)]
pub(crate) struct LoanLedger {
    pub(crate) pool_free: usize,
    pub(crate) base: Vec<GpcBudget>,
    pub(crate) loaned: Vec<usize>,
}

impl LoanLedger {
    pub(crate) fn new(base: Vec<GpcBudget>, pool_gpus: usize) -> Self {
        let n = base.len();
        LoanLedger {
            pool_free: pool_gpus,
            base,
            loaned: vec![0; n],
        }
    }

    /// The budget shard `s` holds with `loans` borrowed GPUs: every loaned
    /// GPU arrives whole (all 7 GPCs), on top of the shard's own share.
    pub(crate) fn budget_with_loans(&self, s: usize, loans: usize) -> GpcBudget {
        let b = self.base[s];
        GpcBudget::new(
            b.total_gpcs + loans * mig_gpu::COMPUTE_SLICES,
            b.num_gpus + loans,
        )
    }

    /// Applies a transfer of `delta` GPUs to shard `s` (positive borrows
    /// from the pool), returning the shard's new budget.
    pub(crate) fn transfer(&mut self, s: usize, delta: i64) -> GpcBudget {
        if delta >= 0 {
            let d = delta as usize;
            debug_assert!(d <= self.pool_free);
            self.pool_free -= d;
            self.loaned[s] += d;
        } else {
            let d = (-delta) as usize;
            debug_assert!(d <= self.loaned[s]);
            self.pool_free += d;
            self.loaned[s] -= d;
        }
        self.budget_with_loans(s, self.loaned[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> LoanPolicy {
        LoanPolicy::new(4, 0.5)
    }

    #[test]
    fn overload_borrows_up_to_the_pool() {
        let p = policy();
        // Demand 4.0 GPU-equivalents on 2 GPUs: wants ceil(4/0.8)=5, pool
        // has 4 → grow to 5.
        assert_eq!(p.target_gpus(4.0, 2, 2, 4), 5);
        // Pool can only cover part of the gap.
        assert_eq!(p.target_gpus(4.0, 2, 2, 1), 3);
        // Empty pool: hold.
        assert_eq!(p.target_gpus(4.0, 2, 2, 0), 2);
    }

    #[test]
    fn underload_returns_but_never_below_base() {
        let p = policy();
        // 5 GPUs (2 base + 3 loaned), demand collapsed to 0.4 equivalents:
        // target ceil(0.4/0.8)=1, clamped to base 2.
        assert_eq!(p.target_gpus(0.4, 2, 5, 1), 2);
        // Moderate demand inside the hysteresis band: hold.
        assert_eq!(p.target_gpus(3.0, 2, 5, 1), 5);
        // No loans held: underload never shrinks an unloaned shard.
        assert_eq!(p.target_gpus(0.1, 2, 2, 4), 2);
    }

    #[test]
    fn ledger_conserves_gpus() {
        let base = vec![GpcBudget::new(14, 2), GpcBudget::new(14, 2)];
        let mut ledger = LoanLedger::new(base, 3);
        let b = ledger.transfer(0, 2);
        assert_eq!(b.num_gpus, 4);
        assert_eq!(b.total_gpcs, 14 + 2 * 7);
        assert_eq!(ledger.pool_free, 1);
        let b = ledger.transfer(0, -2);
        assert_eq!(b.num_gpus, 2);
        assert_eq!(ledger.pool_free, 3);
        assert_eq!(ledger.loaned, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "underload < overload")]
    fn inverted_thresholds_panic() {
        let _ = policy().with_thresholds(0.3, 0.6);
    }
}
