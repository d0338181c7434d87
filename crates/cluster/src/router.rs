//! Routing tagged arrivals to shards.
//!
//! The cluster frontend sees one merged arrival stream; a [`RouterPolicy`]
//! decides, per query and *before* the shard's serial frontend stamps it,
//! which shard serves it. Both policies are deterministic — two runs
//! of the same cluster over the same trace route identically.

/// Which shard-selection policy the cluster frontend runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Static hash partitioning: shard = `hash(arrival index) % shards`.
    /// Load-oblivious — the baseline every production gateway starts from.
    StaticHash,
    /// Join-shortest-queue: the shard with the fewest outstanding
    /// (offered-but-uncompleted) queries takes the arrival; ties go to the
    /// lowest shard index.
    JoinShortestQueue,
}

/// One run's mutable routing state.
#[derive(Debug, Clone)]
pub(crate) struct RouterState {
    policy: RouterPolicy,
    /// Arrival counter feeding the static hash.
    counter: u64,
    /// Join-shortest-queue keys, one per shard:
    /// `dead << 63 | load << 32 | shard`. The smallest key is the live
    /// shard with the least load, lowest index first — and, when every
    /// shard is dead, the same `(load, index)` argmin over all of them.
    /// The gateway refreshes a key only when its shard's load or liveness
    /// can have changed ([`set_load`](Self::set_load)), so a pick is one
    /// branch-free `min()`.
    keys: Vec<u64>,
}

/// The dead-shard bit of a JSQ key: sorts every dead shard after every
/// live one.
const DEAD: u64 = 1 << 63;

/// Loads saturate below the dead bit. No simulated shard holds 2³¹
/// outstanding queries.
const LOAD_MAX: u64 = (1 << 31) - 1;

/// SplitMix64 — the same cheap deterministic mixer the treap priorities
/// use; avalanches the arrival counter so static hashing does not stripe.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shard liveness as the load-oblivious policies route by: a fully dead
/// fleet counts as fully alive.
fn routable(alive: &[bool]) -> impl Fn(usize) -> bool + '_ {
    let any_alive = alive.iter().any(|&a| a);
    move |s| !any_alive || alive[s]
}

impl RouterState {
    /// Every one of `shards` shards starts alive and empty.
    pub(crate) fn new(policy: RouterPolicy, shards: usize) -> Self {
        debug_assert!(
            shards as u64 <= u64::from(u32::MAX),
            "shard index fits the key"
        );
        RouterState {
            policy,
            counter: 0,
            keys: (0..shards as u64).collect(),
        }
    }

    /// Records shard `s`'s offered-but-uncompleted query count and its
    /// liveness for join-shortest-queue.
    pub(crate) fn set_load(&mut self, s: usize, load: u64, alive: bool) {
        debug_assert!(load <= LOAD_MAX, "shard load {load} overflows its key");
        let dead = if alive { 0 } else { DEAD };
        self.keys[s] = dead | load.min(LOAD_MAX) << 32 | s as u64;
    }

    /// Picks the shard for the next arrival. `alive[s]` is shard `s`'s
    /// liveness — failed shards are excluded from every policy, and join-
    /// shortest-queue reads the loads and liveness last passed to
    /// [`set_load`](Self::set_load). A fully dead fleet routes as if
    /// everyone were alive (the query must land somewhere; it waits out
    /// the outage in the shard). With every shard alive each policy is
    /// bit-for-bit its historical self.
    pub(crate) fn pick(&mut self, alive: &[bool]) -> usize {
        let n = self.keys.len();
        debug_assert_eq!(alive.len(), n);
        match self.policy {
            RouterPolicy::JoinShortestQueue => {
                let key = self.keys.iter().fold(u64::MAX, |m, &k| m.min(k));
                (key & u64::from(u32::MAX)) as usize
            }
            RouterPolicy::StaticHash => {
                let live = routable(alive);
                let h = splitmix64(self.counter);
                self.counter += 1;
                let count = (0..n).filter(|&s| live(s)).count() as u64;
                let k = (h % count) as usize;
                (0..n).filter(|&s| live(s)).nth(k).expect("k < live count")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sets every shard's load and liveness, then picks.
    fn pick_with(r: &mut RouterState, loads: &[u64], alive: &[bool]) -> usize {
        for (s, (&load, &a)) in loads.iter().zip(alive).enumerate() {
            r.set_load(s, load, a);
        }
        r.pick(alive)
    }

    #[test]
    fn static_hash_spreads_and_reproduces() {
        let mut a = RouterState::new(RouterPolicy::StaticHash, 4);
        let mut b = RouterState::new(RouterPolicy::StaticHash, 4);
        let alive = [true; 4];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let s = a.pick(&alive);
            assert_eq!(s, b.pick(&alive), "deterministic");
            counts[s] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "roughly uniform: {counts:?}");
        }
    }

    #[test]
    fn jsq_picks_least_loaded_lowest_index() {
        let mut r = RouterState::new(RouterPolicy::JoinShortestQueue, 3);
        let alive = [true; 3];
        assert_eq!(r.pick(&alive), 0, "an empty fleet starts at shard 0");
        assert_eq!(pick_with(&mut r, &[5, 2, 9], &alive), 1);
        assert_eq!(
            pick_with(&mut r, &[4, 4, 9], &alive),
            0,
            "ties go to the lowest index"
        );
        assert_eq!(pick_with(&mut r, &[4, 3, 3], &alive), 1);
    }

    #[test]
    fn every_policy_excludes_dead_shards() {
        let dead_mid = [true, false, true];
        let mut hash = RouterState::new(RouterPolicy::StaticHash, 3);
        for _ in 0..100 {
            assert_ne!(hash.pick(&dead_mid), 1);
        }
        let mut jsq = RouterState::new(RouterPolicy::JoinShortestQueue, 3);
        // Shard 1 is emptiest but dead.
        assert_eq!(pick_with(&mut jsq, &[5, 0, 3], &dead_mid), 2);
    }

    #[test]
    fn fully_dead_fleet_falls_back_to_all_shards() {
        let dead = [false, false];
        let mut jsq = RouterState::new(RouterPolicy::JoinShortestQueue, 2);
        assert_eq!(
            pick_with(&mut jsq, &[3, 1], &dead),
            1,
            "routes as if all were alive"
        );
        let mut hash = RouterState::new(RouterPolicy::StaticHash, 2);
        let mut seen = [false; 2];
        for _ in 0..50 {
            seen[hash.pick(&dead)] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn jsq_key_pick_matches_linear_argmin(
            shards in 1usize..9,
            ops in prop::collection::vec((0u8..4, 0usize..8, 0u64..4), 1..300)
        ) {
            // The packed-key pick against the linear `(load, index)` argmin
            // over live shards (all shards when none is live), under random
            // interleavings of the updates the gateway makes: an offer
            // loads the picked shard, a lane advance moves one shard's load
            // anywhere (small values, so ties are common), and shards fail
            // and repair (small fleets are often entirely dead).
            let mut router = RouterState::new(RouterPolicy::JoinShortestQueue, shards);
            let mut load = vec![0u64; shards];
            let mut alive = vec![true; shards];
            for (op, s, x) in ops {
                let s = s % shards;
                match op {
                    0 => {
                        let p = router.pick(&alive);
                        load[p] += 1;
                        router.set_load(p, load[p], alive[p]);
                    }
                    1 => {
                        load[s] = x;
                        router.set_load(s, x, alive[s]);
                    }
                    2 => {
                        alive[s] = false;
                        router.set_load(s, load[s], false);
                    }
                    _ => {
                        alive[s] = true;
                        router.set_load(s, load[s], true);
                    }
                }
                let any_alive = alive.iter().any(|&a| a);
                let oracle = (0..shards)
                    .filter(|&i| !any_alive || alive[i])
                    .min_by_key(|&i| (load[i], i))
                    .expect("at least one shard");
                prop_assert_eq!(router.pick(&alive), oracle, "loads {:?} alive {:?}", load, alive);
            }
        }
    }
}
