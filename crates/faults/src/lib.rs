//! # inference-faults — fault injection & recovery scenarios
//!
//! The scenario engine over the cluster's fault machinery: production
//! multi-GPU serving systems treat hardware failure and degraded-capacity
//! operation as first-class, and a *reconfigurable* server is uniquely
//! positioned to **re-plan around** lost hardware instead of merely
//! failing over. This crate turns that into measurable scenarios:
//!
//! * [`FaultPlan`] — a deterministic, seedable fault schedule built from
//!   explicit outage windows ([`GpuOutage`], [`ShardOutage`]) and/or
//!   MTTF/MTTR-sampled GPU failures
//!   ([`sample_gpu_mttf`](FaultPlan::sample_gpu_mttf), exponential
//!   up/down times per GPU lane). Every outage carries its repair, so a
//!   compiled plan can never strand a query in a dark group forever.
//! * [`FaultPlan::compile`] — the plan as an executable
//!   [`FaultTimeline`] for [`RunSpec::with_faults`]: the cluster run then
//!   kills the instances packed on a failing GPU (in-flight + queued work
//!   requeues through the dispatch drain path) and PARIS re-plans the
//!   survivor budget; shard failures drain out of the routing rotation;
//!   with a [`LoanPolicy`](inference_cluster::LoanPolicy) the batch pool
//!   backfills lost capacity immediately.
//! * [`FaultReport::new`] — a finished run's [`ClusterReport`] plus the
//!   availability accounting: base availability (GPU-time online /
//!   GPU-time owned), effective availability (crediting batch-pool
//!   backfill), and the degraded/healthy worst-window tail split
//!   ([`server_metrics::WindowedTail`]). Pure post-processing, so the
//!   sync mode, thread count and observers of the run cannot affect it.
//!
//! [`RunSpec::with_faults`]: inference_cluster::RunSpec::with_faults
//!
//! # Contracts
//!
//! An **empty plan is bit-for-bit the fault-free run** (pinned by tests
//! here and in the cluster crate), and **failure conservation** holds for
//! any plan: fail → drain/requeue → re-plan never drops or double-serves
//! a query (ARCHITECTURE.md invariant 9; enforced by the property suite).
//!
//! # Examples
//!
//! ```
//! use dnn_zoo::ModelKind;
//! use inference_cluster::{Cluster, RouterPolicy, RunSpec};
//! use inference_faults::{FaultPlan, FaultReport};
//! use inference_server::{ModelSpec, MultiModelConfig, MultiModelServer, ReportDetail};
//! use inference_workload::{BatchDistribution, MultiTraceGenerator, PhaseSpec};
//! use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
//! use paris_core::{GpcBudget, ProfileTable};
//!
//! let perf = PerfModel::new(DeviceSpec::a100());
//! let dist = BatchDistribution::paper_default();
//! let table = ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
//! let shard = MultiModelServer::new(
//!     vec![ModelSpec::new("mobilenet", table, dist.clone())],
//!     GpcBudget::new(14, 2),
//!     MultiModelConfig::new(),
//! )?;
//! let cluster = Cluster::new(vec![shard], RouterPolicy::JoinShortestQueue);
//! let trace = MultiTraceGenerator::new(vec![PhaseSpec::new(1.0, vec![(400.0, dist)])], 7);
//! // One GPU down from 0.3 s to 0.7 s.
//! let plan = FaultPlan::new().with_gpu_outage(0, 0, 0.3, 0.7);
//! let spec = RunSpec::new(ReportDetail::Full).with_faults(plan.compile());
//! let run = cluster.run_with(trace.stream().map(|tq| (None, tq)), &spec);
//! let report = FaultReport::new(&cluster, &plan, run.report);
//! assert!(report.base_availability < 1.0);
//! assert_eq!(report.cluster.faults.len(), 2); // the fail and the repair
//! # Ok::<(), paris_core::PlanError>(())
//! ```

use des_engine::SimTime;
use inference_cluster::{Cluster, ClusterReport, FaultEvent, FaultTimeline};
use inference_server::ReportDetail;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server_metrics::WindowedTail;

/// One GPU's outage window: the GPU fails abruptly at `fail_at` and
/// returns at `repair_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuOutage {
    /// The shard losing the GPU.
    pub shard: usize,
    /// The failing GPU slot within the shard's budget.
    pub gpu: usize,
    /// When the GPU dies (instances on it are killed, work requeues).
    pub fail_at: SimTime,
    /// When it returns (the shard re-plans onto the restored budget).
    pub repair_at: SimTime,
}

/// One whole shard's outage window: the shard leaves the routing rotation
/// at `fail_at` (draining what it holds) and rejoins at `repair_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutage {
    /// The failing shard.
    pub shard: usize,
    /// When the router stops sending it traffic.
    pub fail_at: SimTime,
    /// When it rejoins (and re-plans for the traffic it now sees).
    pub repair_at: SimTime,
}

/// One GPU's partial-degradation window: thermal throttling or ECC-retired
/// memory slows (does not kill) the instances packed on the GPU by
/// `factor` between `degrade_at` and `restore_at`. The dispatch core
/// scales those instances' service times; with degradation-aware placement
/// (the default) ELSA/FIFS also see the inflated estimates and steer new
/// queries around the sick hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDegrade {
    /// The shard owning the slow GPU.
    pub shard: usize,
    /// The degraded GPU slot within the shard's budget.
    pub gpu: usize,
    /// Service-time multiplier while degraded (≥ 1.0; 1.0 = no-op).
    pub factor: f64,
    /// When throttling begins.
    pub degrade_at: SimTime,
    /// When the clean profile returns.
    pub restore_at: SimTime,
}

/// A named failure domain: the set of GPUs and whole shards that fail
/// *together* when the domain (a rack, a power feed, a top-of-rack
/// switch) goes out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDomain {
    /// Human-readable domain name (`"rack0"`, `"pdu-b"`, ...).
    pub name: String,
    /// `(shard, gpu)` lanes the domain powers.
    pub gpus: Vec<(usize, usize)>,
    /// Whole shards the domain takes out (routing-level failure).
    pub shards: Vec<usize>,
}

/// Maps GPUs/shards to rack/power failure domains, so correlated events
/// can be expressed once and expanded to simultaneous per-GPU/per-shard
/// timelines through the ordinary injection path.
///
/// # Examples
///
/// ```
/// use inference_faults::{FaultPlan, FaultTopology};
///
/// // Two shards of 2 GPUs each, racked pairwise: rack0 = shard 0,
/// // rack1 = shard 1.
/// let topo = FaultTopology::racks(&[2, 2], 2);
/// assert_eq!(topo.domains().len(), 2);
/// let plan = FaultPlan::new().with_domain_outage(&topo, "rack0", 0.5, 1.5);
/// assert_eq!(plan.gpu_outages().len(), 2); // both of rack0's GPUs die together
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultTopology {
    domains: Vec<FaultDomain>,
}

impl FaultTopology {
    /// An empty topology.
    #[must_use]
    pub fn new() -> Self {
        FaultTopology::default()
    }

    /// Adds a named domain covering the given GPU lanes and whole shards.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or the domain is empty.
    #[must_use]
    pub fn with_domain(mut self, name: &str, gpus: &[(usize, usize)], shards: &[usize]) -> Self {
        assert!(
            self.domains.iter().all(|d| d.name != name),
            "duplicate fault domain {name:?}"
        );
        assert!(
            !gpus.is_empty() || !shards.is_empty(),
            "fault domain {name:?} covers nothing"
        );
        self.domains.push(FaultDomain {
            name: name.to_string(),
            gpus: gpus.to_vec(),
            shards: shards.to_vec(),
        });
        self
    }

    /// The rack layout used by the resilience scenarios: shard GPU lanes
    /// are packed in order into racks of `gpus_per_rack`, named
    /// `"rack0"`, `"rack1"`, ... A rack may span shards.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_rack` is zero.
    #[must_use]
    pub fn racks(shard_gpus: &[usize], gpus_per_rack: usize) -> Self {
        assert!(gpus_per_rack > 0, "racks need at least one GPU slot");
        let mut topo = FaultTopology::new();
        let mut current: Vec<(usize, usize)> = Vec::new();
        for (shard, &gpus) in shard_gpus.iter().enumerate() {
            for gpu in 0..gpus {
                current.push((shard, gpu));
                if current.len() == gpus_per_rack {
                    let name = format!("rack{}", topo.domains.len());
                    topo = topo.with_domain(&name, &current, &[]);
                    current.clear();
                }
            }
        }
        if !current.is_empty() {
            let name = format!("rack{}", topo.domains.len());
            topo = topo.with_domain(&name, &current, &[]);
        }
        topo
    }

    /// The domains, in insertion order.
    #[must_use]
    pub fn domains(&self) -> &[FaultDomain] {
        &self.domains
    }

    /// Looks a domain up by name.
    #[must_use]
    pub fn domain(&self, name: &str) -> Option<&FaultDomain> {
        self.domains.iter().find(|d| d.name == name)
    }
}

/// The tumbling-window width of the degraded/healthy tail split and the
/// recovery padding appended to each outage interval — matched to the
/// trajectory benches' 250 ms `reconfig_dip` window so the two spike
/// statistics stay comparable.
pub const DEGRADED_WINDOW_NS: u64 = 250_000_000;

/// A deterministic, seedable fault scenario: explicit and/or sampled
/// outage windows. Compiles to the cluster's executable
/// [`FaultTimeline`].
///
/// Outages always come in fail/repair **pairs**, which is what makes the
/// conservation contract unconditional: a group that a failure left dark
/// stashes its arrivals, and the paired repair is the event that brings
/// instances back to serve them.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    gpu_outages: Vec<GpuOutage>,
    shard_outages: Vec<ShardOutage>,
    gpu_degrades: Vec<GpuDegrade>,
}

impl FaultPlan {
    /// The empty plan — a run under it is bit-for-bit the fault-free
    /// run. Every recovery re-plan a compiled plan triggers is priced by
    /// the one A100 reslice model and staged rolling, one GPU at a time.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan {
            gpu_outages: Vec::new(),
            shard_outages: Vec::new(),
            gpu_degrades: Vec::new(),
        }
    }

    /// Samples a GPU-failure scenario from exponential MTTF/MTTR:
    /// `shard_gpus[s]` is shard `s`'s GPU count, and each (shard, GPU)
    /// lane alternates Exp(`mttf_s`) up-time with Exp(`mttr_s`) repair
    /// time, independently seeded (`seed` ⊕ lane), until `horizon_s`.
    /// Fully deterministic for a given seed; repairs may land past the
    /// horizon (they still execute, so conservation holds).
    ///
    /// # Panics
    ///
    /// Panics if any of the times is not positive and finite.
    #[must_use]
    pub fn sample_gpu_mttf(
        shard_gpus: &[usize],
        mttf_s: f64,
        mttr_s: f64,
        horizon_s: f64,
        seed: u64,
    ) -> Self {
        for (name, v) in [("mttf", mttf_s), ("mttr", mttr_s), ("horizon", horizon_s)] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive");
        }
        let mut plan = FaultPlan::new();
        for (shard, &gpus) in shard_gpus.iter().enumerate() {
            for gpu in 0..gpus {
                let lane = ((shard as u64) << 32) | gpu as u64;
                let mut rng = StdRng::seed_from_u64(seed ^ lane.wrapping_mul(LANE_SALT));
                let mut t = exp_sample(mttf_s, &mut rng);
                while t < horizon_s {
                    let repair = t + exp_sample(mttr_s, &mut rng);
                    plan.gpu_outages.push(GpuOutage {
                        shard,
                        gpu,
                        fail_at: secs(t),
                        repair_at: secs(repair),
                    });
                    t = repair + exp_sample(mttf_s, &mut rng);
                }
            }
        }
        plan
    }

    /// Adds one explicit GPU outage (`fail_s`/`repair_s` in simulated
    /// seconds).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fail < repair` (finite), or if the window
    /// overlaps an existing outage of the same GPU.
    #[must_use]
    pub fn with_gpu_outage(mut self, shard: usize, gpu: usize, fail_s: f64, repair_s: f64) -> Self {
        assert_window(fail_s, repair_s);
        let (fail_at, repair_at) = (secs(fail_s), secs(repair_s));
        assert!(
            !self.gpu_outages.iter().any(|o| o.shard == shard
                && o.gpu == gpu
                && fail_at < o.repair_at
                && o.fail_at < repair_at),
            "overlapping outage for shard {shard} gpu {gpu}"
        );
        self.gpu_outages.push(GpuOutage {
            shard,
            gpu,
            fail_at,
            repair_at,
        });
        self
    }

    /// Adds one explicit whole-shard outage.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fail < repair` (finite), or if the window
    /// overlaps an existing outage of the same shard.
    #[must_use]
    pub fn with_shard_outage(mut self, shard: usize, fail_s: f64, repair_s: f64) -> Self {
        assert_window(fail_s, repair_s);
        let (fail_at, repair_at) = (secs(fail_s), secs(repair_s));
        assert!(
            !self
                .shard_outages
                .iter()
                .any(|o| o.shard == shard && fail_at < o.repair_at && o.fail_at < repair_at),
            "overlapping outage for shard {shard}"
        );
        self.shard_outages.push(ShardOutage {
            shard,
            fail_at,
            repair_at,
        });
        self
    }

    /// Adds one partial-degradation window: the instances packed on
    /// `(shard, gpu)` run `factor`× slower between `from_s` and `to_s`.
    /// A factor of exactly 1.0 is a recorded no-op — the run stays
    /// bit-for-bit the fault-free run (the degenerate case the property
    /// suite pins).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ from < to` (finite) and `factor` is finite and
    /// ≥ 1.0, or if the window overlaps an existing degrade of the same
    /// GPU.
    #[must_use]
    pub fn with_gpu_degrade(
        mut self,
        shard: usize,
        gpu: usize,
        factor: f64,
        from_s: f64,
        to_s: f64,
    ) -> Self {
        assert_window(from_s, to_s);
        assert!(
            factor.is_finite() && factor >= 1.0,
            "degrade factor must be finite and >= 1.0, got {factor}"
        );
        let (degrade_at, restore_at) = (secs(from_s), secs(to_s));
        assert!(
            !self.gpu_degrades.iter().any(|d| d.shard == shard
                && d.gpu == gpu
                && degrade_at < d.restore_at
                && d.degrade_at < restore_at),
            "overlapping degrade for shard {shard} gpu {gpu}"
        );
        self.gpu_degrades.push(GpuDegrade {
            shard,
            gpu,
            factor,
            degrade_at,
            restore_at,
        });
        self
    }

    /// Adds one correlated domain outage: every GPU lane and every whole
    /// shard of `topo`'s domain `name` fails at `fail_s` and repairs at
    /// `repair_s`, simultaneously, through the ordinary per-GPU/per-shard
    /// injection path.
    ///
    /// # Panics
    ///
    /// Panics if the domain is unknown, or if any expanded window overlaps
    /// an existing outage of the same GPU/shard (domains sharing members
    /// must not be scheduled over the same interval).
    #[must_use]
    pub fn with_domain_outage(
        mut self,
        topo: &FaultTopology,
        name: &str,
        fail_s: f64,
        repair_s: f64,
    ) -> Self {
        let domain = topo
            .domain(name)
            .unwrap_or_else(|| panic!("unknown fault domain {name:?}"));
        for &(shard, gpu) in &domain.gpus {
            self = self.with_gpu_outage(shard, gpu, fail_s, repair_s);
        }
        for &shard in &domain.shards {
            self = self.with_shard_outage(shard, fail_s, repair_s);
        }
        self
    }

    /// Samples correlated domain failures from exponential MTTF/MTTR: each
    /// domain of `topo` alternates Exp(`mttf_s`) up-time with Exp(`mttr_s`)
    /// repair time on its own decorrelated lane, and every sampled window
    /// expands to the domain's full membership (all its GPUs and shards go
    /// out together). Fully deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if any of the times is not positive and finite, or if two
    /// domains sharing a member draw overlapping windows (keep sampled
    /// topologies disjoint).
    #[must_use]
    pub fn sample_domain_mttf(
        topo: &FaultTopology,
        mttf_s: f64,
        mttr_s: f64,
        horizon_s: f64,
        seed: u64,
    ) -> Self {
        for (name, v) in [("mttf", mttf_s), ("mttr", mttr_s), ("horizon", horizon_s)] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive");
        }
        let mut plan = FaultPlan::new();
        for (idx, domain) in topo.domains().iter().enumerate() {
            // Domain lanes live in a separate id space from the per-GPU
            // lanes of `sample_gpu_mttf`, so mixing both samplers in one
            // scenario stays decorrelated.
            let lane = (1u64 << 48) | idx as u64;
            let mut rng = StdRng::seed_from_u64(seed ^ lane.wrapping_mul(LANE_SALT));
            let mut t = exp_sample(mttf_s, &mut rng);
            while t < horizon_s {
                let repair = t + exp_sample(mttr_s, &mut rng);
                plan = plan.with_domain_outage(topo, &domain.name, t, repair);
                t = repair + exp_sample(mttf_s, &mut rng);
            }
        }
        plan
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gpu_outages.is_empty() && self.shard_outages.is_empty() && self.gpu_degrades.is_empty()
    }

    /// The planned GPU outages, in insertion order.
    #[must_use]
    pub fn gpu_outages(&self) -> &[GpuOutage] {
        &self.gpu_outages
    }

    /// The planned shard outages, in insertion order.
    #[must_use]
    pub fn shard_outages(&self) -> &[ShardOutage] {
        &self.shard_outages
    }

    /// The planned partial-degradation windows, in insertion order.
    #[must_use]
    pub fn gpu_degrades(&self) -> &[GpuDegrade] {
        &self.gpu_degrades
    }

    /// Compiles the plan to the cluster's executable, time-sorted
    /// [`FaultTimeline`].
    #[must_use]
    pub fn compile(&self) -> FaultTimeline {
        let mut events =
            Vec::with_capacity(2 * (self.gpu_outages.len() + self.shard_outages.len()));
        for o in &self.gpu_outages {
            events.push((
                o.fail_at,
                FaultEvent::GpuFail {
                    shard: o.shard,
                    gpu: o.gpu,
                },
            ));
            events.push((
                o.repair_at,
                FaultEvent::GpuRepair {
                    shard: o.shard,
                    gpu: o.gpu,
                },
            ));
        }
        for o in &self.shard_outages {
            events.push((o.fail_at, FaultEvent::ShardFail { shard: o.shard }));
            events.push((o.repair_at, FaultEvent::ShardRepair { shard: o.shard }));
        }
        for d in &self.gpu_degrades {
            events.push((
                d.degrade_at,
                FaultEvent::GpuDegrade {
                    shard: d.shard,
                    gpu: d.gpu,
                    factor_milli: factor_milli(d.factor),
                },
            ));
            events.push((
                d.restore_at,
                FaultEvent::GpuRestore {
                    shard: d.shard,
                    gpu: d.gpu,
                },
            ));
        }
        FaultTimeline::new(events)
    }

    /// The degraded intervals this plan implies — each outage or
    /// slow-GPU window padded by one [`DEGRADED_WINDOW_NS`] of recovery
    /// (the reslice and backlog drain after a repair still hurt the
    /// tail), as inclusive `(start_ns, end_ns)` pairs for
    /// [`WindowedTail::worst_percentile_ms_within`].
    #[must_use]
    pub fn degraded_intervals_ns(&self) -> Vec<(u64, u64)> {
        self.gpu_outages
            .iter()
            .map(|o| (o.fail_at.as_nanos(), o.repair_at.as_nanos()))
            .chain(
                self.shard_outages
                    .iter()
                    .map(|o| (o.fail_at.as_nanos(), o.repair_at.as_nanos())),
            )
            .chain(
                self.gpu_degrades
                    .iter()
                    .map(|d| (d.degrade_at.as_nanos(), d.restore_at.as_nanos())),
            )
            .map(|(a, b)| (a, b.saturating_add(DEGRADED_WINDOW_NS)))
            .collect()
    }

    /// GPU-seconds spent in partial-degradation windows (each slow GPU
    /// counts as one GPU for its window, regardless of factor). Degraded
    /// capacity stays *online* — it never enters the availability
    /// integrals — so this is the companion statistic.
    #[must_use]
    pub fn degrade_gpu_seconds(&self) -> f64 {
        self.gpu_degrades
            .iter()
            .map(|d| (d.restore_at.as_nanos() - d.degrade_at.as_nanos()) as f64 / 1e9)
            .sum()
    }
}

/// The fixed-point encoding carried by [`FaultEvent::GpuDegrade`] (the
/// cluster event stays `Copy + Eq`): thousandths of the multiplier.
fn factor_milli(factor: f64) -> u32 {
    (factor * 1000.0).round() as u32
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

/// Splitmix-style lane multiplier decorrelating per-GPU sampling streams.
const LANE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

fn secs(s: f64) -> SimTime {
    SimTime::from_nanos((s * 1e9).round() as u64)
}

fn assert_window(fail_s: f64, repair_s: f64) {
    assert!(
        fail_s.is_finite() && repair_s.is_finite() && 0.0 <= fail_s && fail_s < repair_s,
        "need 0 <= fail < repair, got [{fail_s}, {repair_s}]"
    );
}

/// One exponential draw with the given mean (inverse-CDF over the shim's
/// uniform `[0, 1)`; `1 − u ∈ (0, 1]` keeps the log finite).
fn exp_sample(mean_s: f64, rng: &mut StdRng) -> f64 {
    -mean_s * (1.0 - rng.gen::<f64>()).ln()
}

/// Everything measured during one faulted cluster run: the ordinary
/// [`ClusterReport`] plus the availability accounting.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The underlying cluster run (per-shard reports, loans, fault log).
    pub cluster: ClusterReport,
    /// Time-averaged fraction of the fleet's **owned** serving GPUs that
    /// were online over the run (1.0 for an empty plan). A drained shard
    /// counts as offline from its fail instant — it serves backlog but
    /// takes no new traffic.
    pub base_availability: f64,
    /// Same integral, crediting batch-pool loans as backfill (capped at
    /// 1.0 per instant): **the capacity story loan-assisted recovery
    /// improves** — the pool covers the hole while the hardware is out.
    pub effective_availability: f64,
    /// GPU-seconds of owned capacity lost to outages (the raw integral
    /// behind [`base_availability`](Self::base_availability)).
    pub outage_gpu_seconds: f64,
    /// Queries faults ripped off killed instances and requeued.
    pub requeued: u64,
    /// Worst [`DEGRADED_WINDOW_NS`] tumbling-window p99 (ms) over
    /// completions in the **degraded** intervals (outages + one recovery
    /// window) — the recovery dip. `None` under
    /// [`ReportDetail::Summary`] (needs per-query completion times) or
    /// when no completion landed in a degraded window.
    pub degraded_p99_ms: Option<f64>,
    /// The healthy counterpart: worst window p99 outside every degraded
    /// interval. `None` under summary detail.
    pub healthy_p99_ms: Option<f64>,
    /// GPU-seconds spent in partial-degradation (slow-GPU) windows —
    /// capacity that stayed online but throttled, so it is *not* part of
    /// [`outage_gpu_seconds`](Self::outage_gpu_seconds).
    pub degrade_gpu_seconds: f64,
    /// Queries the brownout admission controller rejected, total. Zero
    /// without a [`ShedPolicy`](inference_cluster::ShedPolicy). Invariant
    /// 10: offered = served + shed, exactly.
    pub shed_total: u64,
    /// Shed counts bucketed by priority class (index = class; empty when
    /// the cluster has no shed policy). Class 0 is premium and is never
    /// shed, so `shed_per_class[0] == 0` always.
    pub shed_per_class: Vec<u64>,
    /// Served (admitted and completed) counts bucketed by priority class
    /// — with [`shed_per_class`](Self::shed_per_class), the per-class
    /// goodput story. Empty when the cluster has no shed policy.
    pub served_per_class: Vec<u64>,
}

impl FaultReport {
    /// The availability, degraded-tail and per-class accounting of
    /// `report`, a finished run of `cluster` under `plan`'s compiled
    /// timeline. The degraded/healthy tails need per-query completion
    /// times, so they are `None` unless the run kept
    /// [`ReportDetail::Full`] records.
    #[must_use]
    pub fn new(cluster: &Cluster, plan: &FaultPlan, report: ClusterReport) -> Self {
        let shard_gpus: Vec<usize> = cluster
            .shards()
            .iter()
            .map(|s| s.budget().num_gpus)
            .collect();
        let total_base: usize = shard_gpus.iter().sum();
        let horizon_ns = report.makespan.as_nanos();

        let loans: Vec<(u64, i64)> = report
            .loans
            .iter()
            .map(|l| (l.at.as_nanos(), l.gpus_delta))
            .collect();
        let (base_online, effective_online) =
            capacity_integrals(&shard_gpus, horizon_ns, plan, &loans);
        let denom = total_base as f64 * horizon_ns as f64;
        let (base_availability, effective_availability, outage_gpu_seconds) = if denom > 0.0 {
            (
                base_online as f64 / denom,
                effective_online as f64 / denom,
                (denom - base_online as f64) / 1e9,
            )
        } else {
            (1.0, 1.0, 0.0)
        };

        let degraded = plan.degraded_intervals_ns();
        let full = report
            .per_shard
            .first()
            .is_some_and(|r| r.detail == ReportDetail::Full);
        let (degraded_p99_ms, healthy_p99_ms) = if full {
            let mut tail = WindowedTail::new(DEGRADED_WINDOW_NS);
            for r in report.per_shard.iter().flat_map(|s| &s.records) {
                tail.record(r.completed.as_nanos(), r.latency().as_nanos());
            }
            let d = tail.worst_percentile_ms_within(0.99, 1, &degraded);
            let h = tail.worst_percentile_ms_outside(0.99, 1, &degraded);
            ((d > 0.0).then_some(d), Some(h))
        } else {
            (None, None)
        };

        let requeued = report.faults.iter().map(|f| f.requeued).sum();
        let shed_total = report.shed_per_model.iter().sum();
        let (shed_per_class, served_per_class) = match cluster.shed() {
            Some(policy) => {
                let classes = policy.classes();
                let n_classes = classes.iter().copied().max().unwrap_or(0) + 1;
                let mut shed = vec![0u64; n_classes];
                let mut served = vec![0u64; n_classes];
                for (m, &class) in classes.iter().enumerate() {
                    shed[class] += report.shed_per_model.get(m).copied().unwrap_or(0);
                    served[class] += report
                        .per_shard
                        .iter()
                        .map(|s| s.per_model.get(m).map_or(0, |pm| pm.completed))
                        .sum::<u64>();
                }
                (shed, served)
            }
            None => (Vec::new(), Vec::new()),
        };
        FaultReport {
            cluster: report,
            base_availability,
            effective_availability,
            outage_gpu_seconds,
            requeued,
            degraded_p99_ms,
            healthy_p99_ms,
            degrade_gpu_seconds: plan.degrade_gpu_seconds(),
            shed_total,
            shed_per_class,
            served_per_class,
        }
    }

    /// Worst per-shard × model exact SLA violation rate — under failure,
    /// the headline SLA number.
    #[must_use]
    pub fn worst_violation_rate(&self) -> f64 {
        self.cluster.worst_violation_rate()
    }

    /// Goodput: queries actually served per second of makespan (shed
    /// queries do not count).
    #[must_use]
    pub fn goodput_qps(&self) -> f64 {
        self.cluster.achieved_qps
    }
}

/// One capacity-changing instant of the availability sweep.
enum CapEvent {
    GpuDown(usize),
    GpuUp(usize),
    ShardDown(usize),
    ShardUp(usize),
    Loan(i64),
}

/// Integrals of online serving capacity over `[0, horizon_ns]`, exact
/// per shard: a drained shard's GPUs count offline **once**, whether or
/// not some of them are also individually failed (GPU and shard outages
/// on the same shard compose by max, never by sum). Returns
/// `(base, effective)` where the effective side adds batch-pool loans,
/// clamped to `[0, total]` (backfill does not raise availability past 1,
/// and capacity is never negative).
fn capacity_integrals(
    shard_gpus: &[usize],
    horizon_ns: u64,
    plan: &FaultPlan,
    loans: &[(u64, i64)],
) -> (u128, u128) {
    let total = shard_gpus.iter().sum::<usize>() as i64;
    let mut events: Vec<(u64, CapEvent)> = Vec::new();
    for o in plan.gpu_outages() {
        events.push((o.fail_at.as_nanos(), CapEvent::GpuDown(o.shard)));
        events.push((o.repair_at.as_nanos(), CapEvent::GpuUp(o.shard)));
    }
    for o in plan.shard_outages() {
        events.push((o.fail_at.as_nanos(), CapEvent::ShardDown(o.shard)));
        events.push((o.repair_at.as_nanos(), CapEvent::ShardUp(o.shard)));
    }
    for &(t, d) in loans {
        events.push((t, CapEvent::Loan(d)));
    }
    // Same-instant ordering is irrelevant to an integral (zero width).
    events.sort_by_key(|&(t, _)| t);

    let mut failed = vec![0usize; shard_gpus.len()];
    let mut down = vec![0usize; shard_gpus.len()]; // nested shard outages tolerated
    let mut borrowed = 0i64;
    let mut prev = 0u64;
    let (mut base, mut effective) = (0u128, 0u128);
    let mut add_segment =
        |until: u64, prev: &mut u64, failed: &[usize], down: &[usize], borrowed: i64| {
            let until = until.min(horizon_ns);
            if until <= *prev {
                return;
            }
            let offline: usize = shard_gpus
                .iter()
                .zip(failed.iter().zip(down))
                .map(|(&gpus, (&f, &d))| if d > 0 { gpus } else { f.min(gpus) })
                .sum();
            let online = total - offline as i64;
            let width = u128::from(until - *prev);
            base += width * online.clamp(0, total) as u128;
            effective += width * (online + borrowed).clamp(0, total) as u128;
            *prev = until;
        };
    for (t, ev) in events {
        add_segment(t, &mut prev, &failed, &down, borrowed);
        match ev {
            CapEvent::GpuDown(s) => {
                if let Some(f) = failed.get_mut(s) {
                    *f += 1;
                }
            }
            CapEvent::GpuUp(s) => {
                if let Some(f) = failed.get_mut(s) {
                    *f = f.saturating_sub(1);
                }
            }
            CapEvent::ShardDown(s) => {
                if let Some(d) = down.get_mut(s) {
                    *d += 1;
                }
            }
            CapEvent::ShardUp(s) => {
                if let Some(d) = down.get_mut(s) {
                    *d = d.saturating_sub(1);
                }
            }
            CapEvent::Loan(d) => borrowed += d,
        }
    }
    add_segment(horizon_ns, &mut prev, &failed, &down, borrowed);
    (base, effective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;
    use inference_cluster::{LoanPolicy, PinnedQuery, RouterPolicy, RunSpec};
    use inference_server::{ModelSpec, MultiModelConfig, MultiModelServer, MultiRunReport};
    use inference_workload::{
        BatchDistribution, DriftDetectorConfig, MultiTraceGenerator, PhaseSpec, TaggedQuerySpec,
    };
    use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
    use paris_core::{GpcBudget, ProfileTable};

    fn table() -> ProfileTable {
        let model = ModelKind::MobileNet.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    fn shard(gpus: usize, table: &ProfileTable, dist: &BatchDistribution) -> MultiModelServer {
        MultiModelServer::new(
            vec![ModelSpec::new("mobilenet", table.clone(), dist.clone())],
            GpcBudget::new(gpus * 7, gpus),
            MultiModelConfig::new(),
        )
        .expect("plan builds")
    }

    /// The offered rate loading roughly `demand_gpus` full-GPU
    /// equivalents of this shard at planned efficiency.
    fn rate_for_demand(server: &MultiModelServer, demand_gpus: f64) -> f64 {
        demand_gpus * server.capacity_hint_qps() / server.budget().num_gpus as f64
    }

    fn steady_trace(
        server: &MultiModelServer,
        demand: f64,
        secs: f64,
        seed: u64,
    ) -> Vec<TaggedQuerySpec> {
        let dist = BatchDistribution::paper_default();
        MultiTraceGenerator::new(
            vec![PhaseSpec::new(
                secs,
                vec![(rate_for_demand(server, demand), dist)],
            )],
            seed,
        )
        .generate()
    }

    fn unpinned(trace: &[TaggedQuerySpec]) -> impl Iterator<Item = PinnedQuery> + '_ {
        trace.iter().copied().map(|tq| (None, tq))
    }

    /// Runs `trace` through `cluster` under `plan` at full detail.
    fn run_plan(cluster: &Cluster, trace: &[TaggedQuerySpec], plan: &FaultPlan) -> FaultReport {
        let spec = RunSpec::new(ReportDetail::Full).with_faults(plan.compile());
        FaultReport::new(
            cluster,
            plan,
            cluster.run_with(unpinned(trace), &spec).report,
        )
    }

    fn assert_conserved(report: &ClusterReport, trace: &[TaggedQuerySpec]) {
        let completed: usize = report.per_shard.iter().map(|r| r.records.len()).sum();
        assert_eq!(completed, trace.len(), "nothing dropped, nothing invented");
        for (s, shard_report) in report.per_shard.iter().enumerate() {
            let mut ids: Vec<u64> = shard_report.records.iter().map(|r| r.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                shard_report.records.len(),
                "shard {s} double-served a query"
            );
        }
    }

    fn assert_shard_reports_identical(a: &MultiRunReport, b: &MultiRunReport) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.record_models, b.record_models);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.partition_utilization, b.partition_utilization);
        assert_eq!(a.partition_sizes, b.partition_sizes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.achieved_qps, b.achieved_qps);
        assert_eq!(a.reconfigs, b.reconfigs);
    }

    #[test]
    fn empty_plan_reproduces_the_fault_free_run_bit_for_bit() {
        let t = table();
        let dist = BatchDistribution::paper_default();
        let cluster = Cluster::new(
            vec![shard(2, &t, &dist), shard(1, &t, &dist)],
            RouterPolicy::JoinShortestQueue,
        );
        let s0 = &cluster.shards()[0];
        let trace = steady_trace(s0, 1.2, 1.0, 17);
        let plain = cluster
            .run_with(unpinned(&trace), &RunSpec::new(ReportDetail::Full))
            .report;
        let faulted = run_plan(&cluster, &trace, &FaultPlan::new());
        assert_eq!(faulted.base_availability, 1.0);
        assert_eq!(faulted.effective_availability, 1.0);
        assert_eq!(faulted.outage_gpu_seconds, 0.0);
        assert_eq!(faulted.requeued, 0);
        assert!(
            faulted.degraded_p99_ms.is_none(),
            "no degraded window exists"
        );
        assert!(faulted.cluster.faults.is_empty());
        assert_eq!(faulted.cluster.routed, plain.routed);
        assert_eq!(faulted.cluster.makespan, plain.makespan);
        for (a, b) in faulted.cluster.per_shard.iter().zip(&plain.per_shard) {
            assert_shard_reports_identical(a, b);
        }
    }

    #[test]
    fn gpu_outage_degrades_availability_and_conserves_queries() {
        let t = table();
        let dist = BatchDistribution::paper_default();
        let cluster = Cluster::new(vec![shard(2, &t, &dist)], RouterPolicy::JoinShortestQueue);
        let trace = steady_trace(&cluster.shards()[0], 1.2, 3.0, 19);
        let plan = FaultPlan::new().with_gpu_outage(0, 0, 0.5, 1.5);
        let report = run_plan(&cluster, &trace, &plan);
        assert_conserved(&report.cluster, &trace);
        // One of two GPUs out for ~1 s of a ~3 s run: availability ≈ 5/6.
        assert!(
            (0.75..0.95).contains(&report.base_availability),
            "{}",
            report.base_availability
        );
        assert!(report.outage_gpu_seconds > 0.9 && report.outage_gpu_seconds < 1.1);
        assert!(report.requeued > 0, "a loaded GPU had work to requeue");
        assert_eq!(report.cluster.faults.len(), 2);
        // Fail and repair each re-planned the shard.
        assert!(report.cluster.total_reconfigs() >= 2);
        // The degraded windows hold the spike; they are worse than the
        // healthy ones.
        let degraded = report
            .degraded_p99_ms
            .expect("outage windows saw completions");
        let healthy = report.healthy_p99_ms.expect("full detail");
        assert!(
            degraded > healthy,
            "outage must show up in the degraded tail: {degraded} vs {healthy}"
        );
    }

    #[test]
    fn loan_backfill_raises_effective_availability_and_cuts_violations() {
        // The headline recovery claim: under the same GPU outage, a
        // batch pool that lends replacement capacity beats the loanless
        // cluster on both availability and SLA attainment.
        let t = table();
        let dist = BatchDistribution::paper_default();
        let mk = |loan: bool| {
            let c = Cluster::new(
                vec![shard(2, &t, &dist), shard(2, &t, &dist)],
                RouterPolicy::JoinShortestQueue,
            );
            if loan {
                c.with_loan(
                    LoanPolicy::new(2, 0.25)
                        .with_detector(DriftDetectorConfig::new(0.25).with_min_observations(20)),
                )
            } else {
                c
            }
        };
        let cluster = mk(false);
        let fleet_rate = 0.65
            * cluster
                .shards()
                .iter()
                .map(MultiModelServer::capacity_hint_qps)
                .sum::<f64>();
        let trace = MultiTraceGenerator::new(
            vec![PhaseSpec::new(4.0, vec![(fleet_rate, dist.clone())])],
            29,
        )
        .generate();
        let plan = FaultPlan::new().with_gpu_outage(0, 0, 0.8, 3.0);
        let bare = run_plan(&mk(false), &trace, &plan);
        let loaned = run_plan(&mk(true), &trace, &plan);
        assert_conserved(&bare.cluster, &trace);
        assert_conserved(&loaned.cluster, &trace);
        assert!(
            !loaned.cluster.loans.is_empty(),
            "the outage must trigger a backfill loan"
        );
        assert!(
            loaned.effective_availability > bare.effective_availability,
            "backfill must raise effective availability: {} vs {}",
            loaned.effective_availability,
            bare.effective_availability
        );
        assert_eq!(
            loaned.base_availability, bare.base_availability,
            "owned-hardware availability is scenario-determined"
        );
        assert!(
            loaned.worst_violation_rate() < bare.worst_violation_rate(),
            "backfill must cut violations: {} vs {}",
            loaned.worst_violation_rate(),
            bare.worst_violation_rate()
        );
    }

    #[test]
    fn mttf_sampling_is_deterministic_and_well_formed() {
        let a = FaultPlan::sample_gpu_mttf(&[4, 2], 2.0, 0.5, 10.0, 77);
        let b = FaultPlan::sample_gpu_mttf(&[4, 2], 2.0, 0.5, 10.0, 77);
        assert_eq!(a.gpu_outages(), b.gpu_outages(), "seeded: identical plans");
        assert!(
            !a.is_empty(),
            "10 s at 2 s MTTF over 6 GPUs must fail something"
        );
        for o in a.gpu_outages() {
            assert!(o.fail_at < o.repair_at);
            assert!(o.shard < 2);
            assert!(o.gpu < 4);
        }
        // Per-lane outages never overlap (alternating up/down times).
        for (i, o1) in a.gpu_outages().iter().enumerate() {
            for o2 in &a.gpu_outages()[i + 1..] {
                if o1.shard == o2.shard && o1.gpu == o2.gpu {
                    assert!(o1.repair_at <= o2.fail_at || o2.repair_at <= o1.fail_at);
                }
            }
        }
        // A different seed gives a different draw.
        let c = FaultPlan::sample_gpu_mttf(&[4, 2], 2.0, 0.5, 10.0, 78);
        assert_ne!(a.gpu_outages(), c.gpu_outages());
    }

    #[test]
    fn availability_integral_matches_hand_computation() {
        // One shard of 4 GPUs, horizon 10 ns: one GPU out over [2, 7) →
        // 5 gpu-units lost of 40.
        let one_gpu = FaultPlan::new().with_gpu_outage(0, 0, 2e-9, 7e-9);
        let (base, eff) = capacity_integrals(&[4], 10, &one_gpu, &[]);
        assert_eq!(base, 40 - 5);
        assert_eq!(eff, base, "no loans: effective equals base");
        // Loans cap at the owned total while healthy, and backfill an
        // outage when one is live.
        let (_, eff) = capacity_integrals(&[4], 10, &FaultPlan::new(), &[(1, 2), (9, -2)]);
        assert_eq!(eff, 40);
        let (base, eff) = capacity_integrals(&[4], 10, &one_gpu, &[(3, 1), (7, -1)]);
        assert_eq!(base, 35);
        assert_eq!(eff, 40 - 1, "borrow at t=3 covers the rest of the outage");
        // Events at/after the horizon are ignored.
        let late = FaultPlan::new().with_gpu_outage(0, 0, 12e-9, 13e-9);
        assert_eq!(capacity_integrals(&[4], 10, &late, &[]).0, 40);
    }

    #[test]
    fn overlapping_gpu_and_shard_outages_never_double_count() {
        // Shards [2, 1] GPUs, horizon 10 ns. Shard 0 drains over [1, 3)
        // while its GPU 0 is also individually failed over [2, 4): during
        // the overlap the shard's 2 GPUs are offline ONCE (max, not sum).
        //   [0,1): online 3   [1,3): online 1 (shard 0 down)
        //   [3,4): online 2 (gpu 0 still failed)   [4,10): online 3
        let plan = FaultPlan::new()
            .with_gpu_outage(0, 0, 2e-9, 4e-9)
            .with_shard_outage(0, 1e-9, 3e-9);
        let (base, eff) = capacity_integrals(&[2, 1], 10, &plan, &[]);
        // 1 ns at 3 online + 2 ns at 1 + 1 ns at 2 + 6 ns at 3.
        assert_eq!(base, 3 + 2 + 2 + 18);
        assert_eq!(eff, base);
    }

    #[test]
    #[should_panic(expected = "overlapping outage")]
    fn overlapping_gpu_outages_panic() {
        let _ = FaultPlan::new()
            .with_gpu_outage(0, 0, 0.5, 1.5)
            .with_gpu_outage(0, 0, 1.0, 2.0);
    }
}
