//! Shard lanes, deterministic mailboxes and the lane thread pool behind the
//! windowed cluster engine.
//!
//! The cluster's shards only couple at gateway decisions — routing, loans,
//! shedding, faults — which all happen on the coordinator. Everything else
//! a shard does is local, so each shard runs as a [`Lane`]: its own
//! [`ShardEngine`] over its own event queue. The coordinator advances every
//! lane up to a synchronization bound (a `(time, key)` stamp), applies the
//! gateway decisions as [`Command`]s at their exact stamps, and repeats.
//!
//! Two properties make the result bit-for-bit reproducible at any thread
//! count (ARCHITECTURE.md invariant 11):
//!
//! * a lane's advancement is a pure function of `(lane state, bound,
//!   mailbox)` — no lane ever reads another lane or the coordinator;
//! * commands are ordered by the same `(time, key)` stamps the event
//!   queues already use, with command-before-event at equal stamps, never
//!   by thread arrival.
//!
//! The [`WorkerPool`] therefore only changes *where* a lane advances, not
//! *what* it computes. [`Lanes`] stores the run's lanes as one contiguous
//! chunk per lane thread; each window, the coordinator advances chunk 0
//! itself and persistent helpers advance the others in place. A window
//! where at most one lane has work before the bound runs inline, and a
//! helper whose chunk has no such lane sits it out.
//!
//! Observability rides the same structure: each lane's `ObsSink` (flight
//! recorder and/or online metric accumulator) is private lane state fed
//! from the lane's own hooks in its own push order, so a traced or
//! instrumented run parallelizes identically — the coordinator
//! only merges the per-lane partials (trace records by `(time, key, lane,
//! seq)`, online aggregates in lane order) after the run, which is how the
//! trace, the online registry (invariant 13), and the report all stay
//! thread-count invariant.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Scope, Thread};

use des_engine::{pack_stamp, unpack_time, SimDuration, SimTime, Simulation};
use inference_server::{ReplanRequest, ShardEngine, ShardEvent};
use inference_workload::{BatchDistribution, TaggedQuerySpec};
use mig_gpu::ProfileSize;
use paris_core::{pack_gpus, GpcBudget, ReconfigMode};

/// How the windowed cluster engine synchronizes its shard lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncWindow {
    /// One synchronization window per gateway event: every lane advances to
    /// exactly the next routing/fault decision's `(time, key)` stamp before
    /// the coordinator acts, so every gateway read (queue depths for JSQ,
    /// busy integrals, in-flight reconfigurations) is exact. This
    /// reproduces the shared-event-queue sequential order precisely — it is
    /// the default mode. A per-event window holds a couple of lane events,
    /// too little to pay for handing lanes to another thread, so this mode
    /// always advances its lanes on the calling thread, whatever thread
    /// count the run asks for.
    PerEvent,
    /// Conservative lookahead windows of the given width on an absolute
    /// grid: the coordinator makes **all** gateway decisions for a window
    /// at its leading edge (queue-depth and busy reads are up to one window
    /// stale — the modeled route-hop information latency), then the lanes
    /// execute the window's arrivals and fault commands at their exact
    /// stamps, in parallel. Deterministic at any thread count, but *not*
    /// equal to [`PerEvent`](SyncWindow::PerEvent): the staleness is a
    /// modeling choice, pinned separately. The width should be the minimum
    /// cross-shard information latency (route hop + decision grid).
    Lookahead(SimDuration),
}

/// An owned re-plan payload — [`ReplanRequest`] with the borrows resolved,
/// so the coordinator can mail it into a lane that fires it later.
#[derive(Debug, Clone)]
pub(crate) struct ArmedReplan {
    /// Monotone per-run id; a lane ignores stale re-arms (`id` at or below
    /// the last fired id) that crossed a window boundary in flight.
    pub id: u64,
    pub budget: GpcBudget,
    pub weights: Vec<f64>,
    pub dists: Vec<BatchDistribution>,
    pub extra_downtime: SimDuration,
    pub mode: ReconfigMode,
}

impl ArmedReplan {
    fn as_request(&self) -> ReplanRequest<'_> {
        ReplanRequest {
            budget: self.budget,
            weights: &self.weights,
            dists: &self.dists,
            extra_downtime: self.extra_downtime,
            mode: self.mode,
        }
    }
}

/// One gateway decision delivered to a lane, executed at its exact
/// `(time, key)` stamp during lane advancement. The rare re-plan payloads
/// are boxed so the per-arrival mailbox entries that cross to a helper
/// thread stay small.
#[derive(Debug)]
pub(crate) enum Command {
    /// A routed (and admitted) arrival enters this shard's frontend.
    Offer(TaggedQuerySpec),
    /// Adopt a new budget now (a capacity loan/reclaim). If the lane
    /// started a reconfiguration the coordinator's edge-stale in-flight
    /// read missed, the in-flight transition aborts first — the ledger
    /// already moved the GPUs, so the budget must be adopted either way.
    Replan(Box<ArmedReplan>),
    /// A GPU failure: abort any in-flight reconfiguration, pack the live
    /// layout into physical-GPU bins, kill bin `gpu`'s instances and record
    /// how many queries requeued against `log_idx` in the fault log.
    Kill { gpu: usize, log_idx: usize },
    /// A slow-GPU fault: throttle the instances packed on bin `gpu` by
    /// `factor_milli / 1000` and remember the victims for the restore.
    Degrade { gpu: usize, factor_milli: u32 },
    /// The slow GPU recovered: un-throttle the recorded victims.
    Restore { gpu: usize },
    /// Arm a recovery re-plan to fire as soon as no reconfiguration is in
    /// flight (retried after every local event, exactly like the
    /// sequential engine's recovery poke).
    Arm(Box<ArmedReplan>),
    /// Recovery became infeasible (e.g. a second failure shrank the
    /// survivor budget below one GPU per model): drop any armed re-plan.
    Disarm,
}

/// First-fit-descending packing of the live layout into physical-GPU bins
/// of worker slots, per model group (groups never share a GPU) — the shared
/// deterministic convention for which instances a GPU fault hits.
fn gpu_bins(engine: &ShardEngine<'_>) -> Vec<Vec<usize>> {
    let mut bins: Vec<Vec<usize>> = Vec::new();
    for group in engine.live_members() {
        let sizes: Vec<ProfileSize> = group.iter().map(|&(_, size)| size).collect();
        for bin in pack_gpus(&sizes) {
            bins.push(bin.into_iter().map(|i| group[i].0).collect());
        }
    }
    bins
}

/// One shard's independent execution lane: the engine, its private event
/// queue, the command mailbox, and the cross-window recovery/fault state
/// the coordinator harvests at window edges.
pub(crate) struct Lane<'a> {
    pub shard: usize,
    pub engine: ShardEngine<'a>,
    pub sim: Simulation<ShardEvent>,
    /// Commands stamped with the **packed** `(time << 64) | key` stamp the
    /// event queues order by ([`pack_stamp`]), non-decreasing — the
    /// deterministic mailbox. The coordinator packs each command's stamp
    /// once at delivery; the merge loop in [`advance`](Lane::advance) then
    /// compares single integers against the lane queue's own packed front.
    /// Only used in [`SyncWindow::Lookahead`]; per-event windows apply
    /// commands synchronously through the same code path.
    pub mailbox: VecDeque<(u128, Command)>,
    /// Armed recovery re-plan waiting for the in-flight transition to end.
    armed: Option<Box<ArmedReplan>>,
    /// Highest recovery id this lane ever fired (stale re-arm guard).
    last_fired: u64,
    /// Recovery ids fired since the last harvest.
    pub fired: Vec<u64>,
    /// `(fault_log index, requeued count)` patches from executed kills.
    pub requeue_patches: Vec<(usize, u64)>,
    /// Per physical-GPU bin: worker slots throttled by an active degrade.
    degraded_victims: Vec<Option<Vec<usize>>>,
}

impl<'a> Lane<'a> {
    /// `capacity` is the lane's event-queue starting capacity, its
    /// structural floor. The command mailbox starts empty and grows to one
    /// lookahead window's commands.
    pub fn new(shard: usize, engine: ShardEngine<'a>, num_gpus: usize, capacity: usize) -> Self {
        Lane {
            shard,
            engine,
            sim: Simulation::with_capacity(capacity),
            mailbox: VecDeque::new(),
            armed: None,
            last_fired: 0,
            fired: Vec::new(),
            requeue_patches: Vec::new(),
            degraded_victims: vec![None; num_gpus],
        }
    }

    /// Whether [`advance`](Self::advance) to the packed `bound` would do
    /// anything: a mailboxed command or a local event stamped before it.
    fn has_work_before(&self, bound: u128) -> bool {
        self.mailbox.front().is_some_and(|&(c, _)| c < bound)
            || self.sim.peek_stamp().is_some_and(|e| e < bound)
    }

    /// Advances this lane up to (strictly before) the packed `bound`: local
    /// events and mailboxed commands merge by packed `(time, key)` stamp,
    /// commands first at equal stamps — the same order a single shared
    /// event queue would have produced with the gateway's items keyed at
    /// their stamps. Every comparison in the loop is a single `u128`
    /// compare: the executor packs the bound once, the mailbox stores
    /// pre-packed stamps, and the lane queue exposes its front as a packed
    /// stamp.
    pub fn advance(&mut self, bound: u128) {
        loop {
            let next_cmd = self.mailbox.front().map(|&(s, _)| s);
            let take_cmd = match (next_cmd, self.sim.peek_stamp()) {
                (Some(c), Some(e)) => c <= e,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_cmd {
                let stamp = next_cmd.expect("checked above");
                if stamp >= bound {
                    break;
                }
                let (_, cmd) = self.mailbox.pop_front().expect("checked above");
                self.apply(unpack_time(stamp), cmd);
            } else {
                let Some((now, event)) = self.sim.next_event_if_before_stamp(bound) else {
                    break;
                };
                self.handle_event(now, event);
            }
        }
    }

    fn handle_event(&mut self, now: SimTime, event: ShardEvent) {
        let (engine, sim) = (&mut self.engine, &mut self.sim);
        engine.handle(now, event, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        self.try_fire(now);
    }

    /// Executes one gateway command at its stamp. Shared by both sync
    /// modes: per-event windows call it synchronously, lookahead windows
    /// through the mailbox — identical lane state either way.
    pub fn apply(&mut self, t: SimTime, cmd: Command) {
        self.sim.advance_to(t);
        let (engine, sim) = (&mut self.engine, &mut self.sim);
        let mut sched = |ti: SimTime, k: u64, e: ShardEvent| sim.schedule_at_keyed(ti, k, e);
        match cmd {
            Command::Offer(tq) => engine.offer(tq, &mut sched),
            Command::Replan(r) => {
                if engine.reconfig_in_flight() {
                    engine.abort_reconfig(t, &mut sched);
                }
                engine.force_replan(&r.as_request(), t, &mut sched);
            }
            Command::Kill { gpu, log_idx } => {
                if engine.reconfig_in_flight() {
                    engine.abort_reconfig(t, &mut sched);
                }
                let bins = gpu_bins(engine);
                let requeued = match bins.get(gpu) {
                    Some(victims) => engine.kill_instances(victims, t, &mut sched),
                    None => 0,
                };
                self.requeue_patches.push((log_idx, requeued));
            }
            Command::Degrade { gpu, factor_milli } => {
                let victims = gpu_bins(engine).get(gpu).cloned().unwrap_or_default();
                if !victims.is_empty() {
                    // Sub-unit factors would mean a *faster* GPU; clamp so a
                    // malformed plan degrades to a recorded no-op.
                    let factor = f64::from(factor_milli.max(1000)) / 1000.0;
                    engine.set_degrade(&victims, factor);
                }
                if let Some(slot) = self.degraded_victims.get_mut(gpu) {
                    *slot = Some(victims);
                }
            }
            Command::Restore { gpu } => {
                if let Some(victims) = self.degraded_victims.get_mut(gpu).and_then(Option::take) {
                    if !victims.is_empty() {
                        engine.set_degrade(&victims, 1.0);
                    }
                }
            }
            Command::Arm(r) => {
                if r.id > self.last_fired {
                    self.armed = Some(r);
                    self.try_fire(t);
                }
            }
            Command::Disarm => self.armed = None,
        }
    }

    /// Fires the armed recovery re-plan if no reconfiguration is in flight
    /// — called after every local event and on arming, mirroring the
    /// sequential engine's poke-after-every-shard-event retry.
    fn try_fire(&mut self, now: SimTime) {
        if self.armed.is_some() && !self.engine.reconfig_in_flight() {
            let r = self.armed.take().expect("checked above");
            let (engine, sim) = (&mut self.engine, &mut self.sim);
            engine.force_replan(&r.as_request(), now, &mut |t, k, e| {
                sim.schedule_at_keyed(t, k, e);
            });
            self.last_fired = r.id;
            self.fired.push(r.id);
        }
    }
}

/// The lane threads a run actually uses for `threads` requested lane
/// threads over `shards` lanes. Per-event windows always run on the
/// calling thread ([`SyncWindow::PerEvent`]); lookahead windows use up to
/// one thread per lane.
pub(crate) fn lane_threads(window: SyncWindow, threads: usize, shards: usize) -> usize {
    match window {
        SyncWindow::PerEvent => 1,
        SyncWindow::Lookahead(_) => threads.clamp(1, shards.max(1)),
    }
}

/// Which of `threads` contiguous chunks lane `shard` of `shards` belongs
/// to. Chunk `c` holds lanes `c·shards/threads .. (c+1)·shards/threads`
/// (floored), so chunk 0 — the coordinator's, which also runs the gateway —
/// is never the larger one.
pub(crate) fn chunk_of(shard: usize, shards: usize, threads: usize) -> usize {
    ((shard + 1) * threads - 1) / shards
}

/// The run's lanes in shard order, stored as one contiguous chunk per lane
/// thread. Chunk 0 belongs to the coordinator; chunk `h` crosses to helper
/// `h` for a window as a `Vec` header, so the lanes themselves never move.
/// Indexing by shard is how the gateway reads and commands them between
/// windows.
pub(crate) struct Lanes<'a> {
    chunks: Vec<Vec<Lane<'a>>>,
    /// Per shard: its chunk and its index within that chunk.
    home: Vec<(usize, usize)>,
    /// The lanes the last window advanced: those with work before its
    /// bound, in shard order. Every other lane is exactly as it was.
    active: Vec<usize>,
    /// Per chunk: how many of `active` it holds.
    chunk_active: Vec<usize>,
}

impl<'a> Lanes<'a> {
    /// Splits shard-ordered `lanes` into chunks for `threads` lane threads.
    pub fn new(lanes: Vec<Lane<'a>>, threads: usize) -> Self {
        let n = lanes.len();
        let threads = threads.clamp(1, n.max(1));
        let mut chunks: Vec<Vec<Lane<'a>>> = (0..threads).map(|_| Vec::new()).collect();
        let mut home = Vec::with_capacity(n);
        for (s, lane) in lanes.into_iter().enumerate() {
            debug_assert_eq!(lane.shard, s, "lanes arrive in shard order");
            let c = chunk_of(s, n, threads);
            home.push((c, chunks[c].len()));
            chunks[c].push(lane);
        }
        Lanes {
            chunks,
            home,
            active: Vec::with_capacity(n),
            chunk_active: vec![0; threads],
        }
    }

    pub fn len(&self) -> usize {
        self.home.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Lane<'a>> {
        self.chunks.iter().flatten()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Lane<'a>> {
        self.chunks.iter_mut().flatten()
    }

    /// The shards the last [`LaneExecutor::advance_all`] advanced, in shard
    /// order — the only lanes whose state it changed.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Records which lanes have work before `bound` (and how many per
    /// chunk); returns how many do.
    fn collect_active(&mut self, bound: u128) -> usize {
        self.active.clear();
        self.chunk_active.iter_mut().for_each(|c| *c = 0);
        for (s, &(c, i)) in self.home.iter().enumerate() {
            if self.chunks[c][i].has_work_before(bound) {
                self.active.push(s);
                self.chunk_active[c] += 1;
            }
        }
        self.active.len()
    }

    /// Advances every lane with work before `bound` on this thread, in
    /// shard order, and records them as active.
    fn advance_here(&mut self, bound: u128) {
        self.active.clear();
        for (s, lane) in self.chunks.iter_mut().flatten().enumerate() {
            if lane.has_work_before(bound) {
                lane.advance(bound);
                self.active.push(s);
            }
        }
    }
}

/// The lanes, in shard order, by value.
impl<'a> IntoIterator for Lanes<'a> {
    type Item = Lane<'a>;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<Lane<'a>>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks.into_iter().flatten()
    }
}

impl<'a> Index<usize> for Lanes<'a> {
    type Output = Lane<'a>;

    fn index(&self, shard: usize) -> &Lane<'a> {
        let (c, i) = self.home[shard];
        &self.chunks[c][i]
    }
}

impl IndexMut<usize> for Lanes<'_> {
    fn index_mut(&mut self, shard: usize) -> &mut Self::Output {
        let (c, i) = self.home[shard];
        &mut self.chunks[c][i]
    }
}

/// Who advances the lanes between gateway decisions. After `advance_all`,
/// [`Lanes::active`] lists the lanes that moved.
pub(crate) trait LaneExecutor<'a> {
    fn advance_all(&mut self, lanes: &mut Lanes<'a>, bound: (SimTime, u64));
}

/// Single-threaded executor: advances the lanes with work in place, in
/// shard order.
pub(crate) struct SerialExecutor;

impl<'a> LaneExecutor<'a> for SerialExecutor {
    fn advance_all(&mut self, lanes: &mut Lanes<'a>, bound: (SimTime, u64)) {
        lanes.advance_here(pack_stamp(bound.0, bound.1));
    }
}

/// The parallel structure of one windowed run, measured in lane events:
/// how much lane work each synchronization window held, and how that work
/// would bucket onto a lane worker pool of each profiled size.
///
/// Wall-clock scaling on a given host confounds the engine's structure
/// with the host's core count; this profile is the structure alone —
/// deterministic, bit-for-bit reproducible, and measured from the same
/// run that produced the report. It is a model: `bench_megacluster`
/// reports it as `modeled_speedup` beside the measured wall-clock speedup.
#[derive(Debug, Clone)]
pub struct WindowProfile {
    /// Synchronization windows executed (lane-advancement barriers).
    pub windows: u64,
    /// Total lane events processed across all shards — the single-thread
    /// critical path.
    pub lane_events: u64,
    /// Per profiled thread count `k`: the sum over windows of the largest
    /// per-thread lane-event count under the pool's real assignment
    /// (contiguous chunks, [`SyncWindow::PerEvent`] always serial) — the
    /// lane work on the critical path when `k` lane threads advance the
    /// lanes. Always ≥ `lane_events / k` (imbalance) and ≤ `lane_events`
    /// (never slower than serial).
    pub critical_path: Vec<(usize, u64)>,
}

impl WindowProfile {
    /// The modeled end-to-end speedup of running this exact window
    /// structure on `threads` workers, with `serial_events` events (the
    /// gateway's own items) that stay on the coordinator regardless:
    /// `(lane + serial) / (critical_path(threads) + serial)`.
    #[must_use]
    pub fn modeled_speedup(&self, threads: usize, serial_events: u64) -> f64 {
        let crit = self
            .critical_path
            .iter()
            .find(|&&(k, _)| k == threads)
            .map_or(self.lane_events, |&(_, c)| c);
        (self.lane_events + serial_events) as f64 / (crit + serial_events).max(1) as f64
    }
}

/// A [`SerialExecutor`] that additionally measures the run's
/// [`WindowProfile`]: per window, each advanced lane's processed-event
/// delta is bucketed by the chunk ([`chunk_of`]) it would advance on at
/// each profiled thread count, and the largest bucket joins that count's
/// critical path.
pub(crate) struct ProfilingExecutor {
    /// Per profiled thread count: the lane threads the run would use.
    workers: Vec<usize>,
    snap: Vec<u64>,
    /// Per-window scratch, reused across the run's thousands of windows so
    /// profiling allocates nothing after the first window.
    deltas: Vec<u64>,
    buckets: Vec<u64>,
    profile: WindowProfile,
}

impl ProfilingExecutor {
    pub fn new(thread_counts: &[usize], window: SyncWindow, shards: usize) -> Self {
        ProfilingExecutor {
            workers: thread_counts
                .iter()
                .map(|&k| lane_threads(window, k, shards))
                .collect(),
            snap: vec![0; shards],
            deltas: Vec::new(),
            buckets: Vec::new(),
            profile: WindowProfile {
                windows: 0,
                lane_events: 0,
                critical_path: thread_counts.iter().map(|&k| (k, 0)).collect(),
            },
        }
    }

    pub fn into_profile(self) -> WindowProfile {
        self.profile
    }
}

impl<'a> LaneExecutor<'a> for ProfilingExecutor {
    fn advance_all(&mut self, lanes: &mut Lanes<'a>, bound: (SimTime, u64)) {
        SerialExecutor.advance_all(lanes, bound);
        let (snap, deltas) = (&mut self.snap, &mut self.deltas);
        deltas.clear();
        deltas.extend(lanes.active().iter().map(|&s| {
            let now = lanes[s].sim.events_processed();
            let d = now - snap[s];
            snap[s] = now;
            d
        }));
        self.profile.windows += 1;
        self.profile.lane_events += deltas.iter().sum::<u64>();
        let n = lanes.len();
        for (idx, &k) in self.workers.iter().enumerate() {
            self.buckets.clear();
            self.buckets.resize(k, 0);
            for (&s, &d) in lanes.active().iter().zip(deltas.iter()) {
                self.buckets[chunk_of(s, n, k)] += d;
            }
            self.profile.critical_path[idx].1 += self.buckets.iter().copied().max().unwrap_or(0);
        }
    }
}

/// Spin-loop hints a waiting lane thread runs before it starts yielding:
/// about a microsecond, which catches a peer that is just finishing.
/// Longer `pause` loops (~25 µs) made 2-thread runs on a KVM guest up to
/// 2× slower than yielding: pause-loop exits hand the spinning vCPU back
/// to the hypervisor, which wakes it late.
const SPIN_ROUNDS: u32 = 64;

/// `yield_now` calls after spinning before a waiting lane thread parks.
/// Long enough that helpers stay awake through the coordinator's gateway
/// work between windows (a park/unpark round trip costs about as much as a
/// window's parallel phase); yielding rather than spinning lets the other
/// threads run when there are more lane threads than cores.
const YIELD_ROUNDS: u32 = 1 << 12;

/// Waits until `ready()` holds: spins, then yields, then parks. Whoever
/// makes `ready()` true must `unpark` the waiter afterwards; a spurious or
/// early unpark only costs a re-check.
fn wait_until(ready: impl Fn() -> bool) {
    for _ in 0..SPIN_ROUNDS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    for _ in 0..YIELD_ROUNDS {
        if ready() {
            return;
        }
        thread::yield_now();
    }
    while !ready() {
        thread::park();
    }
}

/// The `posted` value that ends a helper's loop.
const STOP: u64 = u64::MAX;

/// One helper's hand-off slot.
struct Helper<'a> {
    /// The last window the coordinator posted (counting from 1), or
    /// [`STOP`]. Stored with `Release` after the job is in place; the
    /// helper's `Acquire` load pairs with it.
    posted: AtomicU64,
    /// The last window the helper finished, stored with `Release` after
    /// the job is back in place; the coordinator's `Acquire` load pairs
    /// with it.
    done: AtomicU64,
    job: Mutex<Job<'a>>,
}

/// A helper's chunk and the bound to advance it to.
struct Job<'a> {
    lanes: Vec<Lane<'a>>,
    bound: u128,
    /// A panic caught while advancing `lanes`, re-raised on the
    /// coordinator.
    panic: Option<Box<dyn Any + Send>>,
}

/// The loop each helper thread runs for the length of one pass.
fn helper_loop(me: &Helper<'_>, coordinator: &Thread) {
    let mut seen = 0;
    loop {
        wait_until(|| me.posted.load(Ordering::Acquire) != seen);
        seen = me.posted.load(Ordering::Acquire);
        if seen == STOP {
            return;
        }
        {
            // The lock never poisons: a lane panic is caught inside it.
            let mut job = me.job.lock().expect("helper job lock");
            let job = &mut *job;
            let (bound, lanes) = (job.bound, &mut job.lanes);
            let advanced = panic::catch_unwind(AssertUnwindSafe(|| {
                for lane in lanes.iter_mut() {
                    lane.advance(bound);
                }
            }));
            job.panic = advanced.err();
        }
        me.done.store(seen, Ordering::Release);
        coordinator.unpark();
    }
}

/// The lane thread pool of one run: the coordinator (the calling thread)
/// advances chunk 0 of [`Lanes`] itself and `threads − 1` persistent
/// helpers advance the other chunks in place — each window hands a helper
/// its chunk's `Vec` header, not its lanes. Only windows where at least
/// two lanes have work are split; the rest run inline. Between windows the
/// helpers spin, then yield, then park ([`wait_until`]). Because each
/// lane's advancement is self-contained the assignment is pure bookkeeping
/// — any thread count computes identical lanes. A lane that panics on a
/// helper re-raises its panic on the coordinator.
pub(crate) struct WorkerPool<'a> {
    helpers: Arc<[Helper<'a>]>,
    /// Helper threads, for unparking them.
    threads: Vec<Thread>,
    window: u64,
}

impl<'a> WorkerPool<'a> {
    /// Spawns `threads − 1` helpers inside `scope`, for lanes split into
    /// `threads` chunks.
    pub fn new<'scope, 'env>(scope: &'scope Scope<'scope, 'env>, threads: usize) -> Self
    where
        'a: 'scope,
    {
        let helpers: Arc<[Helper<'a>]> = (1..threads)
            .map(|_| Helper {
                posted: AtomicU64::new(0),
                done: AtomicU64::new(0),
                job: Mutex::new(Job {
                    lanes: Vec::new(),
                    bound: 0,
                    panic: None,
                }),
            })
            .collect();
        let coordinator = thread::current();
        let threads = (0..helpers.len())
            .map(|h| {
                let (helpers, coordinator) = (Arc::clone(&helpers), coordinator.clone());
                scope
                    .spawn(move || helper_loop(&helpers[h], &coordinator))
                    .thread()
                    .clone()
            })
            .collect();
        WorkerPool {
            helpers,
            threads,
            window: 0,
        }
    }
}

impl<'a> LaneExecutor<'a> for WorkerPool<'a> {
    fn advance_all(&mut self, lanes: &mut Lanes<'a>, bound: (SimTime, u64)) {
        let bound = pack_stamp(bound.0, bound.1);
        if lanes.collect_active(bound) <= 1 {
            lanes.advance_here(bound);
            return;
        }
        debug_assert_eq!(lanes.chunks.len(), self.helpers.len() + 1);
        self.window += 1;
        let window = self.window;
        for (h, helper) in self.helpers.iter().enumerate() {
            if lanes.chunk_active[h + 1] == 0 {
                continue;
            }
            {
                let mut job = helper.job.lock().expect("helper job lock");
                std::mem::swap(&mut job.lanes, &mut lanes.chunks[h + 1]);
                job.bound = bound;
            }
            helper.posted.store(window, Ordering::Release);
            self.threads[h].unpark();
        }
        for lane in &mut lanes.chunks[0] {
            lane.advance(bound);
        }
        for (h, helper) in self.helpers.iter().enumerate() {
            if lanes.chunk_active[h + 1] == 0 {
                continue;
            }
            wait_until(|| helper.done.load(Ordering::Acquire) == window);
            let mut job = helper.job.lock().expect("helper job lock");
            std::mem::swap(&mut job.lanes, &mut lanes.chunks[h + 1]);
            if let Some(payload) = job.panic.take() {
                drop(job);
                panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for WorkerPool<'_> {
    /// Ends every helper's loop — also while unwinding from a lane panic,
    /// so the enclosing scope can join the helpers and re-raise it.
    fn drop(&mut self) {
        for (helper, thread) in self.helpers.iter().zip(&self.threads) {
            helper.posted.store(STOP, Ordering::Release);
            thread.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, RouterPolicy, RunSpec};
    use dnn_zoo::ModelKind;
    use inference_server::{ModelSpec, MultiModelConfig, MultiModelServer, ReportDetail};
    use inference_workload::QuerySpec;
    use mig_gpu::{DeviceSpec, PerfModel};
    use paris_core::ProfileTable;

    #[test]
    fn chunks_are_contiguous_balanced_and_cover_every_lane() {
        for shards in 1..=12 {
            for threads in 1..=shards {
                let chunks: Vec<usize> =
                    (0..shards).map(|s| chunk_of(s, shards, threads)).collect();
                assert_eq!(chunks[0], 0);
                assert_eq!(chunks[shards - 1], threads - 1);
                assert!(chunks.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
                let sizes: Vec<usize> = (0..threads)
                    .map(|c| chunks.iter().filter(|&&x| x == c).count())
                    .collect();
                let (lo, hi) = (shards / threads, shards.div_ceil(threads));
                assert!(sizes.iter().all(|&n| n == lo || n == hi), "{sizes:?}");
                assert_eq!(sizes[0], lo, "the coordinator's chunk is never the larger");
            }
        }
    }

    #[test]
    fn a_lane_panic_on_a_helper_reraises_on_the_caller() {
        // Two shards at two lane threads: shard 1 is the helper's chunk.
        // Shard 1 is sent a query for a model it does not host, which
        // panics when the lane dispatches it; shard 0 gets a valid query
        // in the same window so the window is split across both threads
        // rather than run inline.
        let perf = PerfModel::new(DeviceSpec::a100());
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let dist = BatchDistribution::paper_default();
        let shard = MultiModelServer::new(
            vec![ModelSpec::new("mobilenet", table, dist)],
            GpcBudget::new(7, 1),
            MultiModelConfig::new(),
        )
        .expect("plan builds");
        let cluster = Cluster::new(vec![shard.clone(), shard], RouterPolicy::JoinShortestQueue);
        assert_eq!(chunk_of(1, 2, 2), 1, "shard 1 advances on the helper");
        let query = |model: usize| TaggedQuerySpec {
            model,
            spec: QuerySpec {
                arrival_ns: 1_000,
                batch: 1,
            },
        };
        let arrivals = vec![(Some(0), query(0)), (Some(1), query(7))];
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            let window = SyncWindow::Lookahead(SimDuration::from_nanos(1_000_000));
            cluster.run_with(
                arrivals,
                &RunSpec::new(ReportDetail::Summary).with_window(window, 2),
            )
        }));
        let payload = run.expect_err("the helper's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("out of bounds"),
            "the lane's own panic is re-raised, got {message:?}"
        );
    }
}
