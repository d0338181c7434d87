//! Executable fault timelines: the hardware-failure events a cluster run
//! injects into its shared DES.
//!
//! This is the *execution* half of the fault subsystem — the sorted event
//! schedule the cluster engine consumes. Every recovery re-plan it
//! triggers is priced by the A100 reslice model
//! ([`ResliceCostModel::a100_default`](mig_gpu::ResliceCostModel::a100_default))
//! and staged rolling ([`paris_core::ReconfigMode::Rolling`]). The
//! *scenario* half — outage-pair builders, MTTF/MTTR sampling, availability
//! accounting — lives one layer up in the `inference-faults` crate, whose
//! `FaultPlan` compiles down to these timelines.
//!
//! Semantics, per event kind:
//!
//! * [`FaultEvent::GpuFail`] is **abrupt**: the instances packed on the
//!   failing GPU (the `gpu`-th bin of [`paris_core::pack_gpus`] over the
//!   shard's live layout) are killed on the spot — their in-flight and
//!   locally queued queries requeue through the dispatch path — and the
//!   shard re-plans onto the survivor budget.
//! * [`FaultEvent::ShardFail`] is a **drain**: the router stops sending
//!   the shard traffic and it serves out what it already holds.
//! * Repairs restore capacity/rotation and re-plan for the traffic
//!   observed in the meantime.
//!
//! The conservation contract (ARCHITECTURE.md invariant 9) holds across
//! every event: fail → drain/requeue → re-plan never strands a query.

use des_engine::SimTime;

/// One hardware fault or repair in a cluster run.
///
/// Shard and GPU indices outside the cluster, double-fails and repairs of
/// healthy hardware are **no-ops** — the engine is idempotent, so an
/// arbitrary timeline can never corrupt a run (the conservation property
/// suite leans on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Physical GPU `gpu` of `shard` dies abruptly. `gpu` identifies one
    /// bin of the deterministic first-fit-descending packing of the
    /// shard's live instances ([`paris_core::pack_gpus`]); an index past
    /// the packing is an idle GPU — capacity shrinks but no instance dies.
    GpuFail {
        /// The shard losing the GPU.
        shard: usize,
        /// The failing GPU slot (within the shard's budget).
        gpu: usize,
    },
    /// The failed GPU returns; the shard re-plans onto the restored
    /// budget.
    GpuRepair {
        /// The shard regaining the GPU.
        shard: usize,
        /// The repaired GPU slot.
        gpu: usize,
    },
    /// The whole shard leaves the rotation: the router excludes it and it
    /// drains what it holds.
    ShardFail {
        /// The failing shard.
        shard: usize,
    },
    /// The shard rejoins the rotation and re-plans for the traffic it now
    /// sees.
    ShardRepair {
        /// The repaired shard.
        shard: usize,
    },
    /// Physical GPU `gpu` of `shard` **slows down** (thermal throttling,
    /// ECC retirement) instead of dying: the instances packed on it keep
    /// serving, `factor_milli/1000`× slower. `gpu` addresses the same
    /// [`paris_core::pack_gpus`] bin as [`GpuFail`](Self::GpuFail); a bin
    /// past the packing is an idle GPU and nothing degrades. Degrading an
    /// already-degraded GPU is a no-op; instances created *after* the
    /// degrade instant (recovery re-plans, loans) run at full speed —
    /// throttling follows the silicon that was hot, not the slot number.
    GpuDegrade {
        /// The shard owning the slow GPU.
        shard: usize,
        /// The degraded GPU slot (packing bin index).
        gpu: usize,
        /// Service-time multiplier in thousandths (1500 = 1.5×). Kept
        /// fixed-point so the event stays `Copy + Eq`; 1000 is a recorded
        /// no-op.
        factor_milli: u32,
    },
    /// The degraded GPU's clean profile returns: the instances it slowed
    /// run at full speed again.
    GpuRestore {
        /// The shard regaining full speed.
        shard: usize,
        /// The restored GPU slot.
        gpu: usize,
    },
}

/// A time-sorted, executable fault schedule.
///
/// # Examples
///
/// ```
/// use des_engine::SimTime;
/// use inference_cluster::{FaultEvent, FaultTimeline};
///
/// let tl = FaultTimeline::new(vec![
///     (SimTime::from_nanos(2_000_000_000), FaultEvent::GpuRepair { shard: 0, gpu: 0 }),
///     (SimTime::from_nanos(500_000_000), FaultEvent::GpuFail { shard: 0, gpu: 0 }),
/// ]);
/// assert_eq!(tl.len(), 2);
/// // Events come out time-sorted regardless of construction order.
/// assert!(tl.events()[0].0 < tl.events()[1].0);
/// assert!(FaultTimeline::empty().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultTimeline {
    /// Creates a timeline from `(time, event)` pairs, sorted by time with
    /// **repairs before fails at the same instant** (so back-to-back
    /// outage windows — one ending exactly where the next begins — apply
    /// as repair-then-fail instead of a double-fail no-op that would
    /// silently erase the second window; degrades classify with fails,
    /// restores with repairs, for the same back-to-back-window reason);
    /// remaining same-instant ties keep their given order (stable sort).
    /// Recovery re-plans are always priced by the A100 reslice model and
    /// staged rolling; the timeline carries only its events.
    #[must_use]
    pub fn new(mut events: Vec<(SimTime, FaultEvent)>) -> Self {
        events.sort_by_key(|&(at, ev)| {
            (
                at,
                matches!(
                    ev,
                    FaultEvent::GpuFail { .. }
                        | FaultEvent::ShardFail { .. }
                        | FaultEvent::GpuDegrade { .. }
                ),
            )
        });
        FaultTimeline { events }
    }

    /// The empty timeline — a run with it is exactly the fault-free run.
    #[must_use]
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// Whether the timeline holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The time-sorted events.
    #[must_use]
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }
}

impl Default for FaultTimeline {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_stably_by_time() {
        let t = |s| SimTime::from_nanos(s);
        let tl = FaultTimeline::new(vec![
            (t(300), FaultEvent::ShardRepair { shard: 1 }),
            (t(100), FaultEvent::ShardFail { shard: 1 }),
            (t(300), FaultEvent::GpuFail { shard: 0, gpu: 0 }),
        ]);
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.events()[0].0, t(100));
        // Same-instant order is construction order (stable sort).
        assert_eq!(tl.events()[1].1, FaultEvent::ShardRepair { shard: 1 });
        assert_eq!(tl.events()[2].1, FaultEvent::GpuFail { shard: 0, gpu: 0 });
    }

    #[test]
    fn same_instant_repair_sorts_before_fail() {
        // Back-to-back outage windows [100, 200] + [200, 300]: the t=200
        // repair must apply before the t=200 fail, or the second window
        // would collapse into a double-fail no-op followed by a heal.
        let t = |s| SimTime::from_nanos(s);
        let tl = FaultTimeline::new(vec![
            (t(100), FaultEvent::GpuFail { shard: 0, gpu: 0 }),
            (t(200), FaultEvent::GpuFail { shard: 0, gpu: 0 }),
            (t(200), FaultEvent::GpuRepair { shard: 0, gpu: 0 }),
            (t(300), FaultEvent::GpuRepair { shard: 0, gpu: 0 }),
        ]);
        assert_eq!(tl.events()[1].1, FaultEvent::GpuRepair { shard: 0, gpu: 0 });
        assert_eq!(tl.events()[2].1, FaultEvent::GpuFail { shard: 0, gpu: 0 });
    }

    #[test]
    fn default_is_empty_with_a100_recovery() {
        let tl = FaultTimeline::default();
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
    }

    #[test]
    fn same_instant_restore_sorts_before_degrade() {
        // Back-to-back degrade windows behave like outage windows: the
        // t=200 restore applies before the t=200 degrade, so the second
        // window is not swallowed by the already-degraded no-op rule.
        let t = |s| SimTime::from_nanos(s);
        let deg = |m| FaultEvent::GpuDegrade {
            shard: 0,
            gpu: 0,
            factor_milli: m,
        };
        let tl = FaultTimeline::new(vec![
            (t(100), deg(2000)),
            (t(200), deg(3000)),
            (t(200), FaultEvent::GpuRestore { shard: 0, gpu: 0 }),
        ]);
        assert_eq!(
            tl.events()[1].1,
            FaultEvent::GpuRestore { shard: 0, gpu: 0 }
        );
        assert_eq!(tl.events()[2].1, deg(3000));
    }
}
