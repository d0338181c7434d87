//! The cost of reconfiguring a MIG partition layout at runtime.
//!
//! MIG reslicing is not free: destroying and re-creating GPU instances
//! goes through the driver (`nvidia-smi mig -dgi/-cgi`), and a partition
//! must be *drained* — its in-flight work finished — before its slices can
//! be reclaimed. The paper performs partitioning offline ("determining the
//! best partitioning granularity [is done] offline", §IV-B) precisely
//! because this downtime is material; an *online* re-planner must charge
//! it. [`ResliceCostModel`] is that charge: a fixed per-reconfiguration
//! driver overhead plus a per-instance cost for every instance destroyed or
//! created. The drain time itself is not part of the model — it emerges
//! from the simulation (quiesced partitions finish their queues in
//! simulated time) — so the model only covers the driver-side latency after
//! the drain completes.

/// An affine model of MIG reslice latency: `fixed + destroy·n_destroyed +
/// create·n_created` nanoseconds of downtime once the affected partitions
/// have drained.
///
/// # Examples
///
/// ```
/// use mig_gpu::ResliceCostModel;
///
/// let cost = ResliceCostModel::a100_default();
/// // Tearing down two instances and creating three costs more than the
/// // reverse, and any reconfiguration pays the fixed overhead.
/// assert!(cost.delay_ns(2, 3) > cost.delay_ns(3, 2));
/// assert!(cost.delay_ns(0, 0) >= cost.fixed_ns);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResliceCostModel {
    /// Per-reconfiguration driver overhead (mode switches, slice
    /// bookkeeping), nanoseconds.
    pub fixed_ns: u64,
    /// Cost of destroying one GPU instance, nanoseconds.
    pub destroy_ns: u64,
    /// Cost of creating one GPU instance (instance + compute instance),
    /// nanoseconds.
    pub create_ns: u64,
}

impl ResliceCostModel {
    /// A100-class defaults: ~50 ms fixed, ~5 ms per destroyed instance,
    /// ~25 ms per created instance (creation also re-initializes the
    /// serving process's CUDA context, which dominates). Per-instance
    /// terms are kept small because instances on *different* GPUs
    /// reconfigure concurrently — the driver serializes within a GPU, not
    /// across the server. The serving engine prices every re-plan it
    /// runs (drift, capacity loan, fault recovery) with this model.
    #[must_use]
    pub fn a100_default() -> Self {
        ResliceCostModel {
            fixed_ns: 50_000_000,
            destroy_ns: 5_000_000,
            create_ns: 25_000_000,
        }
    }

    /// A zero-cost model: reconfiguration is instantaneous (the optimistic
    /// upper bound for what online re-planning could win).
    #[must_use]
    pub fn free() -> Self {
        ResliceCostModel {
            fixed_ns: 0,
            destroy_ns: 0,
            create_ns: 0,
        }
    }

    /// Driver-side downtime for a reconfiguration that destroys
    /// `destroyed` instances and creates `created`, nanoseconds.
    #[must_use]
    pub fn delay_ns(&self, destroyed: usize, created: usize) -> u64 {
        self.fixed_ns
            .saturating_add(self.destroy_ns.saturating_mul(destroyed as u64))
            .saturating_add(self.create_ns.saturating_mul(created as u64))
    }

    /// Extra driver-side cost of handing `gpus` whole GPUs between pools
    /// (Aryl-style capacity loaning between a serving shard and a batch
    /// pool), nanoseconds.
    ///
    /// Lending a GPU clears every instance the lender still holds on it and
    /// re-enables MIG mode under the borrower's control — one destroy plus
    /// one create worth of driver work per GPU, on top of whatever reslice
    /// the borrower's new plan itself costs (priced separately through
    /// [`delay_ns`](Self::delay_ns)). Zero GPUs cost nothing: the handover
    /// has no fixed term because it only ever rides on a reconfiguration
    /// that already paid [`fixed_ns`](Self::fixed_ns).
    #[must_use]
    pub fn gpu_handover_ns(&self, gpus: usize) -> u64 {
        self.destroy_ns
            .saturating_add(self.create_ns)
            .saturating_mul(gpus as u64)
    }
}

impl Default for ResliceCostModel {
    fn default() -> Self {
        Self::a100_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_affine_in_instance_counts() {
        let m = ResliceCostModel {
            fixed_ns: 100,
            destroy_ns: 10,
            create_ns: 20,
        };
        assert_eq!(m.delay_ns(0, 0), 100);
        assert_eq!(m.delay_ns(2, 3), 100 + 20 + 60);
    }

    #[test]
    fn free_model_charges_nothing() {
        assert_eq!(ResliceCostModel::free().delay_ns(100, 100), 0);
    }

    #[test]
    fn a100_default_is_subsecond_for_small_diffs() {
        let m = ResliceCostModel::a100_default();
        let d = m.delay_ns(2, 2);
        assert!(d > 0 && d < 2_000_000_000, "delay {d} ns");
    }

    #[test]
    fn gpu_handover_is_linear_with_no_fixed_term() {
        let m = ResliceCostModel {
            fixed_ns: 100,
            destroy_ns: 10,
            create_ns: 20,
        };
        assert_eq!(m.gpu_handover_ns(0), 0);
        assert_eq!(m.gpu_handover_ns(1), 30);
        assert_eq!(m.gpu_handover_ns(3), 90);
        assert_eq!(ResliceCostModel::free().gpu_handover_ns(5), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let m = ResliceCostModel {
            fixed_ns: u64::MAX,
            destroy_ns: u64::MAX,
            create_ns: u64::MAX,
        };
        assert_eq!(m.delay_ns(usize::MAX, usize::MAX), u64::MAX);
    }
}
