//! Time-ordered event queue with stable FIFO tie-breaking.
//!
//! # Hot-path layout
//!
//! The queue is the innermost data structure of every simulation loop, so it
//! is built for throughput without ever weakening the ordering contract:
//! events pop in ascending `(time, key, seq)` order, exactly as a totally
//! ordered sequential queue would produce.
//!
//! Three pieces cooperate:
//!
//! * **Packed stamps.** Each pending event carries a `u128` stamp
//!   `(time << 64) | key`. Both halves use the full 64 bits, so the packing
//!   is *bijective* with `(time, key)` — no overflow case exists and the
//!   lexicographic `(time, key)` order is exactly the integer order of the
//!   stamps. The third ordering field, the insertion sequence number, lives
//!   in the payload slab and is consulted only when two stamps compare
//!   equal (same instant *and* same key — rare by construction, since most
//!   callers derive unique keys). Sift steps therefore cost a single
//!   `u128` compare in the common case.
//! * **4-ary implicit heap over structure-of-arrays.** The "far" heap keeps
//!   stamps in one flat `Vec<u128>` and 32-bit slab slots in a parallel
//!   `Vec<u32>`; payloads sit in a slab indexed by slot and never move
//!   during sifts. A 4-ary layout halves the tree depth of a binary heap
//!   and keeps the four children of a node in at most two cache lines of
//!   stamps.
//! * **Bucketed near-future calendar.** Once the queue is deep enough
//!   (`ARM_DEPTH` events), a ring of `N_BUCKETS` fixed-width time buckets
//!   fronts the heap: a push whose time lands inside the ring is an O(1)
//!   append to its bucket; only pushes beyond the ring's horizon fall
//!   through to the heap. The earliest nonempty bucket is kept *activated*
//!   — sorted descending so pops take from its back in O(1). Bucket width
//!   is chosen from the observed spread of pending events when the
//!   calendar arms; the policy is a pure performance knob, because …
//!
//! … correctness never depends on where an event is stored: `pop` compares
//! the activated bucket's head against the far heap's root (with the slab
//! sequence number breaking exact stamp ties) and takes the smaller, so
//! the two-structure split is invisible to callers. Buckets hold disjoint
//! time ranges, which is why only the earliest nonempty bucket can hold
//! the calendar's minimum.
//!
//! The queue also caches its front `(stamp, slot)`: mutations refresh the
//! cache (pushes with a cheap compare, pops with one O(1) recompute), so
//! the windowed cluster drivers — which peek many queues per event they
//! actually pop — pay a single field read per probe. Finally,
//! [`EventQueue::pop_push`] fuses the ubiquitous
//! handle-an-event-then-schedule-its-successor cycle into a replace-top:
//! the popped slab slot is reused for the new payload and one sift-down
//! replaces the pop's sift-down + the push's sift-up.

use crate::time::SimTime;

/// Queue depth at which the calendar front-end arms itself. Below this the
/// heap alone is at most a couple of levels deep and the calendar
/// bookkeeping would cost more than it saves.
const ARM_DEPTH: usize = 8;

/// Number of calendar buckets (power of two; the ring index is a mask).
const N_BUCKETS: usize = 64;

const BUCKET_MASK: u64 = N_BUCKETS as u64 - 1;

/// Calendar bucket width bounds, as log2 nanoseconds: 64 ns … ~67 ms.
const MIN_WIDTH_LOG2: u32 = 6;
const MAX_WIDTH_LOG2: u32 = 26;

/// Sentinel terminating the slab's intrusive free list.
const NO_SLOT: u32 = u32::MAX;

/// Packs an event stamp: `time` in the high 64 bits, `key` in the low 64.
///
/// The packing is bijective — every `(time, key)` pair has exactly one
/// stamp and vice versa — so comparing stamps as integers *is* comparing
/// `(time, key)` lexicographically. This is the same stamp order the
/// windowed cluster drivers use for their synchronization bounds, exposed
/// so coordinator mailboxes can pre-pack once instead of re-comparing two
/// fields per merge step.
#[inline]
#[must_use]
pub fn pack_stamp(time: SimTime, key: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(key)
}

/// Recovers the `time` half of a [`pack_stamp`]ed stamp — what a mailbox
/// that stores pre-packed stamps uses to timestamp a command when it
/// finally executes.
#[inline]
#[must_use]
pub fn unpack_time(stamp: u128) -> SimTime {
    SimTime::from_nanos((stamp >> 64) as u64)
}

#[inline]
fn stamp_time(stamp: u128) -> SimTime {
    unpack_time(stamp)
}

/// Hole-pattern sift-up: the element at `i` rides in registers, parents
/// shift down one write each, and the element lands with a single store.
/// In the dominant push pattern (scheduling later than everything pending)
/// the first compare fails and this is one load + one branch.
fn sift_up<E>(stamp: &mut [u128], slot: &mut [u32], slab: &[(u64, Option<E>)], mut i: usize) {
    let s = stamp[i];
    let sl = slot[i];
    while i > 0 {
        let parent = (i - 1) / 4;
        let ps = stamp[parent];
        if s < ps || (s == ps && slab[sl as usize].0 < slab[slot[parent] as usize].0) {
            stamp[i] = ps;
            slot[i] = slot[parent];
            i = parent;
        } else {
            break;
        }
    }
    stamp[i] = s;
    slot[i] = sl;
}

/// Hole-pattern sift-down: the element at `i` rides in registers while the
/// smallest child of each level shifts up (one write per level instead of
/// a three-store swap), then lands with a single store. Child stamps are
/// compared directly; the slab sequence number is consulted only on exact
/// stamp ties.
fn sift_down<E>(stamp: &mut [u128], slot: &mut [u32], slab: &[(u64, Option<E>)], mut i: usize) {
    let len = stamp.len();
    let s = stamp[i];
    let sl = slot[i];
    loop {
        let first = 4 * i + 1;
        if first >= len {
            break;
        }
        let mut min = first;
        let mut min_s = stamp[first];
        for c in first + 1..(first + 4).min(len) {
            let cs = stamp[c];
            if cs < min_s || (cs == min_s && slab[slot[c] as usize].0 < slab[slot[min] as usize].0)
            {
                min = c;
                min_s = cs;
            }
        }
        if min_s < s || (min_s == s && slab[slot[min] as usize].0 < slab[sl as usize].0) {
            stamp[i] = min_s;
            slot[i] = slot[min];
            i = min;
        } else {
            break;
        }
    }
    stamp[i] = s;
    slot[i] = sl;
}

/// A priority queue of timestamped events.
///
/// Events pop in non-decreasing time order; events scheduled for the same
/// instant pop in the order they were pushed (or, with
/// [`push_keyed`](Self::push_keyed), in ascending key order). This
/// determinism is what makes whole-server simulations reproducible
/// bit-for-bit. See the module docs for the packed-stamp hybrid
/// layout behind the API.
///
/// # Examples
///
/// ```
/// use des_engine::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(30), "late");
/// q.push(SimTime::from_nanos(10), "first");
/// q.push(SimTime::from_nanos(10), "second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Far-heap packed stamps: implicit 4-ary min-heap, structure-of-arrays.
    far_stamp: Vec<u128>,
    /// Slab slot of each far-heap entry, parallel to `far_stamp`.
    far_slot: Vec<u32>,
    /// Slab: `(sequence number, payload)` addressed by slot; payloads are
    /// never moved by sifts. Free slots thread an intrusive free list
    /// through the sequence field (the payload is `None`), so allocation
    /// and release touch no other structure.
    slab: Vec<(u64, Option<E>)>,
    /// Head of the intrusive free list ([`NO_SLOT`] when empty).
    free_head: u32,
    /// Calendar armed: pushes route through the bucket ring.
    armed: bool,
    /// Bucket width, as log2 nanoseconds.
    width_log2: u32,
    /// Absolute bucket number of the activated (earliest) bucket.
    cur_bucket: u64,
    /// Bucket ring, indexed by absolute bucket number & `BUCKET_MASK`.
    /// Buckets hold unsorted `(stamp, slot)` pairs. Allocated on arming.
    ring: Vec<Vec<(u128, u32)>>,
    /// Occupancy bitmask over `ring` (bit *i* set ⇔ `ring[i]` nonempty),
    /// so activating the next bucket is a rotate + trailing-zero count
    /// instead of a linear scan over mostly-empty buckets.
    ring_occ: u64,
    /// Total entries across the ring (excluding `active`).
    ring_count: usize,
    /// The activated bucket, sorted descending by `(stamp, seq)` so the
    /// earliest entry pops from the back in O(1).
    active: Vec<(u128, u32)>,
    /// Cached front: the minimum `(stamp, slot)` over the active bucket
    /// and the far heap, plus whether it sits in the far heap. Recomputed
    /// once per mutation so the peek-heavy windowed drivers (which probe
    /// many queues per pop) read a single field.
    front: Option<(u128, u32, bool)>,
    /// Total pending events across heap, ring and active bucket.
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            far_stamp: Vec::with_capacity(capacity),
            far_slot: Vec::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free_head: NO_SLOT,
            armed: false,
            width_log2: MIN_WIDTH_LOG2,
            cur_bucket: 0,
            ring: Vec::new(),
            ring_occ: 0,
            ring_count: 0,
            active: Vec::new(),
            front: None,
            len: 0,
            next_seq: 0,
        }
    }

    fn alloc_slot(&mut self, seq: u64, payload: E) -> u32 {
        let slot = self.free_head;
        if slot == NO_SLOT {
            let slot = u32::try_from(self.slab.len()).expect("slab outgrew u32 slots");
            assert!(slot != NO_SLOT, "slab outgrew u32 slots");
            self.slab.push((seq, Some(payload)));
            slot
        } else {
            let entry = &mut self.slab[slot as usize];
            self.free_head = entry.0 as u32;
            *entry = (seq, Some(payload));
            slot
        }
    }

    fn free_slot(&mut self, slot: u32) -> E {
        let entry = &mut self.slab[slot as usize];
        let payload = entry.1.take().expect("popped slot holds a payload");
        entry.0 = u64::from(self.free_head);
        self.free_head = slot;
        payload
    }

    fn far_push(&mut self, stamp: u128, slot: u32) {
        self.far_stamp.push(stamp);
        self.far_slot.push(slot);
        let i = self.far_stamp.len() - 1;
        sift_up(&mut self.far_stamp, &mut self.far_slot, &self.slab, i);
    }

    /// Removes and returns the far heap's minimum: the root, refilled by
    /// moving the last entry up and sifting it down.
    fn far_pop(&mut self) -> (u128, u32) {
        let last_stamp = self.far_stamp.pop().expect("far heap is nonempty");
        let last_slot = self.far_slot.pop().expect("far heap is nonempty");
        if self.far_stamp.is_empty() {
            return (last_stamp, last_slot);
        }
        let stamp = self.far_stamp[0];
        let slot = self.far_slot[0];
        self.far_stamp[0] = last_stamp;
        self.far_slot[0] = last_slot;
        sift_down(&mut self.far_stamp, &mut self.far_slot, &self.slab, 0);
        (stamp, slot)
    }

    /// Sizes the calendar from the observed spread of pending events (all
    /// of which sit in the far heap when this runs): bucket width ≈ twice
    /// the mean inter-event gap, clamped, rounded to a power of two.
    fn arm(&mut self) {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for &s in &self.far_stamp {
            let t = (s >> 64) as u64;
            min = min.min(t);
            max = max.max(t);
        }
        if min > max {
            (min, max) = (0, 0);
        }
        let per = ((max - min) / self.len.max(1) as u64).max(1);
        let width = per.saturating_mul(2).next_power_of_two();
        self.width_log2 = width.trailing_zeros().clamp(MIN_WIDTH_LOG2, MAX_WIDTH_LOG2);
        self.cur_bucket = min >> self.width_log2;
        if self.ring.is_empty() {
            self.ring = (0..N_BUCKETS).map(|_| Vec::new()).collect();
        }
        self.armed = true;
    }

    /// Routes an armed-calendar push: O(1) ring append inside the horizon,
    /// sorted insert into the activated bucket for the (rare) past band,
    /// far heap beyond the horizon. Maintains the front cache: only the
    /// active-bucket branches can produce a new minimum — a ring or far
    /// entry lands in a strictly later bucket than every active entry, so
    /// it can never undercut the current front.
    fn calendar_push(&mut self, t_ns: u64, stamp: u128, slot: u32) {
        let b = t_ns >> self.width_log2;
        if self.active.is_empty() && self.ring_count == 0 {
            // Empty calendar: slide the window to wherever time has moved.
            self.cur_bucket = b;
            self.active.push((stamp, slot));
            self.push_updates_front(stamp, slot, false);
            return;
        }
        if b <= self.cur_bucket {
            // Descending order, and this push holds the largest sequence
            // number, so it sorts *before* any equal-stamp entry: position
            // by stamp alone.
            let pos = self.active.partition_point(|&(s, _)| s > stamp);
            self.active.insert(pos, (stamp, slot));
            self.push_updates_front(stamp, slot, false);
        } else if b - self.cur_bucket < N_BUCKETS as u64 {
            let idx = (b & BUCKET_MASK) as usize;
            self.ring[idx].push((stamp, slot));
            self.ring_occ |= 1 << idx;
            self.ring_count += 1;
        } else {
            self.far_push(stamp, slot);
        }
    }

    /// Activates the earliest nonempty ring bucket: swap it into `active`
    /// (buffer capacities rotate, no allocation in steady state) and sort
    /// descending. Buckets cover disjoint time ranges, so the earliest
    /// nonempty one holds the calendar's minimum.
    fn advance_calendar(&mut self) {
        debug_assert!(self.active.is_empty() && self.ring_count > 0);
        debug_assert!(
            self.ring_occ != 0,
            "ring_count > 0 but every bucket is empty"
        );
        // Ring entries live in buckets `cur_bucket + 1 ..= cur_bucket + 63`,
        // so rotating the occupancy mask right puts the nearest future
        // bucket at bit 0 and a trailing-zero count finds it.
        let shift = ((self.cur_bucket + 1) & BUCKET_MASK) as u32;
        let i = 1 + u64::from(self.ring_occ.rotate_right(shift).trailing_zeros());
        let idx = ((self.cur_bucket + i) & BUCKET_MASK) as usize;
        self.cur_bucket += i;
        std::mem::swap(&mut self.active, &mut self.ring[idx]);
        self.ring_occ &= !(1 << idx);
        self.ring_count -= self.active.len();
        let slab = &self.slab;
        self.active.sort_unstable_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| slab[b.1 as usize].0.cmp(&slab[a.1 as usize].0))
        });
    }

    /// Recomputes the cached front after a structural change: activate the
    /// next calendar bucket if needed, then take the smaller of the active
    /// bucket's head and the far heap's root (exact stamp ties broken by
    /// slab sequence number).
    fn refresh_front(&mut self) {
        if self.active.is_empty() && self.ring_count > 0 {
            self.advance_calendar();
        }
        let far = self.far_stamp.first().map(|&s| (s, self.far_slot[0]));
        self.front = match (self.active.last().copied(), far) {
            (Some((sa, aslot)), Some((sf, fslot))) => {
                let far_first = sf < sa
                    || (sf == sa && self.slab[fslot as usize].0 < self.slab[aslot as usize].0);
                Some(if far_first {
                    (sf, fslot, true)
                } else {
                    (sa, aslot, false)
                })
            }
            (Some((sa, aslot)), None) => Some((sa, aslot, false)),
            (None, Some((sf, fslot))) => Some((sf, fslot, true)),
            (None, None) => None,
        };
    }

    /// O(1) front-cache update for a push: the new entry takes the front
    /// exactly when its stamp is strictly smaller (an equal stamp loses on
    /// the sequence number, which grows monotonically).
    #[inline]
    fn push_updates_front(&mut self, stamp: u128, slot: u32, in_far: bool) {
        match self.front {
            Some((s, _, _)) if stamp >= s => {}
            _ => self.front = Some((stamp, slot, in_far)),
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.push_keyed(time, seq, payload);
    }

    /// Schedules `payload` to fire at `time`, breaking same-instant ties by
    /// `key` (ascending) before insertion order.
    ///
    /// Mixing keyed and unkeyed pushes in one queue is well-defined (plain
    /// pushes use their sequence number as the key) but rarely what you
    /// want, since sequence numbers grow past explicit keys.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot(seq, payload);
        let stamp = pack_stamp(time, key);
        self.len += 1;
        if !self.armed {
            if self.len < ARM_DEPTH {
                self.far_push(stamp, slot);
                self.push_updates_front(stamp, slot, true);
                return;
            }
            self.arm();
        }
        self.calendar_push(time.as_nanos(), stamp, slot);
    }

    /// Bulk-schedules `items` (`(time, key, payload)` triples), bypassing
    /// the calendar: entries are appended to the far heap and heapified in
    /// one pass when that is cheaper than sifting each. The preload
    /// pattern — filling a whole trace before the first pop — becomes
    /// O(n) instead of O(n log n).
    pub fn push_batch<I: IntoIterator<Item = (SimTime, u64, E)>>(&mut self, items: I) {
        let start = self.far_stamp.len();
        for (time, key, payload) in items {
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = self.alloc_slot(seq, payload);
            self.far_stamp.push(pack_stamp(time, key));
            self.far_slot.push(slot);
            self.len += 1;
        }
        let end = self.far_stamp.len();
        if end == start {
            return;
        }
        if end - start > start {
            // The batch dominates: Floyd heapify the whole array.
            if end > 1 {
                for i in (0..=(end - 2) / 4).rev() {
                    sift_down(&mut self.far_stamp, &mut self.far_slot, &self.slab, i);
                }
            }
        } else {
            for i in start..end {
                sift_up(&mut self.far_stamp, &mut self.far_slot, &self.slab, i);
            }
        }
        self.refresh_front();
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// The cached front *is* the element to remove: when it sits in the far
    /// heap it is the heap minimum (so the far-heap pop retrieves
    /// exactly it), and when it sits in the active bucket it is the back of
    /// the descending-sorted vector.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (stamp, slot, in_far) = self.front?;
        if in_far {
            let popped = self.far_pop();
            debug_assert_eq!(popped, (stamp, slot));
        } else {
            let popped = self.active.pop();
            debug_assert_eq!(popped, Some((stamp, slot)));
        }
        self.len -= 1;
        let payload = self.free_slot(slot);
        self.refresh_front();
        Some((stamp_time(stamp), payload))
    }

    /// Pops the earliest event, then schedules `payload` at `(time, key)` —
    /// the fused replace-top for the ubiquitous handle-then-reschedule
    /// cycle. Exactly equivalent to [`pop`](Self::pop) followed by
    /// [`push_keyed`](Self::push_keyed) (the new event is *not* a
    /// candidate for the pop, even if earlier), but while the calendar is
    /// unarmed the popped root's slab slot is reused for the new payload —
    /// no free-list traffic — and one sift-down from the root replaces the
    /// pop's sift-down + the push's sift-up.
    pub fn pop_push(&mut self, time: SimTime, key: u64, payload: E) -> Option<(SimTime, E)> {
        if self.armed || self.far_stamp.is_empty() {
            let popped = self.pop();
            self.push_keyed(time, key, payload);
            return popped;
        }
        // Unarmed: every pending event sits in the far heap, and the front
        // cache points at its root.
        debug_assert!(matches!(self.front, Some((_, _, true))));
        let stamp = self.far_stamp[0];
        let slot = self.far_slot[0];
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = &mut self.slab[slot as usize];
        let popped = entry
            .1
            .replace(payload)
            .expect("front slot holds a payload");
        entry.0 = seq;
        self.far_stamp[0] = pack_stamp(time, key);
        sift_down(&mut self.far_stamp, &mut self.far_slot, &self.slab, 0);
        self.front = Some((self.far_stamp[0], self.far_slot[0], true));
        Some((stamp_time(stamp), popped))
    }

    /// Schedules `payload` at `(time, key)`, then pops the earliest pending
    /// event — exactly equivalent to [`push_keyed`](Self::push_keyed)
    /// followed by [`pop`](Self::pop) (the new event **is** a candidate for
    /// the pop), fused. A new event that beats the front outright passes
    /// straight through without touching the heap: it holds the largest
    /// sequence number, so skipping its insertion leaves every remaining
    /// element's relative sequence order — and thus every future tie-break
    /// — unchanged.
    pub fn push_pop(&mut self, time: SimTime, key: u64, payload: E) -> (SimTime, E) {
        let stamp = pack_stamp(time, key);
        match self.front {
            Some((s, _, _)) if stamp >= s => {
                // The incumbent front wins the pop (an equal stamp beats
                // the new event on sequence number); what remains is
                // remove-front + insert-new — exactly the pop_push fusion.
                self.pop_push(time, key, payload)
                    .expect("front was nonempty")
            }
            _ => (time, payload),
        }
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.map(|(s, _, _)| stamp_time(s))
    }

    /// The packed `(time << 64) | key` stamp of the earliest pending event,
    /// if any — the position a windowed driver compares directly against
    /// [`pack_stamp`]ed synchronization bounds without consuming the event.
    #[must_use]
    #[inline]
    pub fn peek_stamp(&self) -> Option<u128> {
        self.front.map(|(s, _, _)| s)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_ties_pop_in_key_order_regardless_of_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for &k in &[7u64, 3, 9, 1, 5] {
            q.push_keyed(t, k, k);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_keys_fall_back_to_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.push_keyed(t, 1, "a");
        q.push_keyed(t, 1, "b");
        q.push_keyed(t, 0, "c");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, vec!["c", "a", "b"]);
    }

    #[test]
    fn time_still_dominates_keys() {
        let mut q = EventQueue::new();
        q.push_keyed(SimTime::from_nanos(20), 0, "later");
        q.push_keyed(SimTime::from_nanos(10), 99, "earlier");
        assert_eq!(q.pop().map(|(_, v)| v), Some("earlier"));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(8), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn with_capacity_starts_empty() {
        let q: EventQueue<u8> = EventQueue::with_capacity(64);
        assert!(q.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    #[test]
    fn stamp_packing_is_bijective_and_ordered() {
        let pairs = [
            (0u64, 0u64),
            (0, u64::MAX),
            (1, 0),
            (1, 1 << 63),
            (u64::MAX, u64::MAX),
        ];
        let mut stamps: Vec<u128> = pairs
            .iter()
            .map(|&(t, k)| pack_stamp(SimTime::from_nanos(t), k))
            .collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "lexicographic (time, key) == stamp order");
        stamps.dedup();
        assert_eq!(
            stamps.len(),
            pairs.len(),
            "distinct pairs map to distinct stamps"
        );
        for (&(t, k), &s) in pairs.iter().zip(&stamps) {
            assert_eq!(stamp_time(s), SimTime::from_nanos(t));
            assert_eq!(s as u64, k);
        }
    }

    /// Deep interleaved push/pop so the calendar arms and all three
    /// structures (active bucket, ring, far heap) hold events at once.
    #[test]
    fn deep_queue_pops_in_exact_order() {
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u64, u64)> = Vec::new(); // (time, key, seq)
                                                             // Deterministic scattered times: multiplicative hash over a range
                                                             // wide enough to arm the calendar and spill past its horizon.
                                                             // The push index doubles as the expected sequence number.
        for i in 0u64..3000 {
            let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
            let key = i % 7; // plenty of (time, key) collisions
            q.push_keyed(SimTime::from_nanos(t), key, i);
            expected.push((t, key, i));
            if i % 3 == 0 {
                if let Some((t_pop, s_pop)) = q.pop() {
                    let min = expected
                        .iter()
                        .copied()
                        .min_by_key(|&(t, k, s)| (t, k, s))
                        .unwrap();
                    assert_eq!((t_pop.as_nanos(), s_pop), (min.0, min.2));
                    expected.retain(|&(_, _, s)| s != min.2);
                }
            }
        }
        expected.sort_unstable();
        for &(t, _, s) in &expected {
            let (t_pop, s_pop) = q.pop().unwrap();
            assert_eq!((t_pop.as_nanos(), s_pop), (t, s));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_push_equals_pop_then_push() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for &t in &[40u64, 10, 30, 20] {
            a.push_keyed(SimTime::from_nanos(t), t, t);
            b.push_keyed(SimTime::from_nanos(t), t, t);
        }
        let fused = a.pop_push(SimTime::from_nanos(5), 5, 5);
        let popped = b.pop();
        b.push_keyed(SimTime::from_nanos(5), 5, 5);
        assert_eq!(fused, popped);
        // The new event was not eligible for the fused pop even though it
        // is the earliest; it must be the *next* pop.
        assert_eq!(a.pop().map(|(_, v)| v), Some(5));
        assert_eq!(b.pop().map(|(_, v)| v), Some(5));
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_push_on_empty_queue_still_pushes() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_push(SimTime::from_nanos(3), 0, "only"), None);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), "only")));
    }

    #[test]
    fn push_batch_merges_with_pushed_events() {
        let mut q = EventQueue::new();
        q.push_keyed(SimTime::from_nanos(15), 0, 15u64);
        q.push_batch((0..10u64).map(|i| (SimTime::from_nanos(i * 4), i, i * 4)));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), 11);
        assert!(popped.contains(&15));
    }

    #[test]
    fn push_batch_preload_pops_in_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push_batch(vec![
            (SimTime::from_nanos(7), 1, "b"),
            (SimTime::from_nanos(7), 1, "c"),
            (SimTime::from_nanos(7), 0, "a"),
            (SimTime::from_nanos(2), 9, "first"),
        ]);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, vec!["first", "a", "b", "c"]);
    }

    #[test]
    fn peek_stamp_matches_time_key() {
        let mut q = EventQueue::new();
        q.push_keyed(SimTime::from_nanos(100), 7, ());
        q.push_keyed(SimTime::from_nanos(50), 9, ());
        assert_eq!(q.peek_stamp(), Some(pack_stamp(SimTime::from_nanos(50), 9)));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
    }

    /// Back-to-back pops and peeks with no push in between must keep the
    /// cached front coherent.
    #[test]
    fn pops_and_peeks_interleave_coherently() {
        let mut q = EventQueue::new();
        for &t in &[9u64, 2, 7, 4, 8, 1, 6, 3, 5] {
            q.push(SimTime::from_nanos(t), t);
        }
        assert_eq!(q.pop().map(|(_, v)| v), Some(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        assert_eq!(q.pop().map(|(_, v)| v), Some(2));
        q.push(SimTime::from_nanos(0), 0); // fills the hole, becomes front
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(rest, vec![0, 3, 4, 5, 6, 7, 8, 9]);
    }

    /// Model-based check against a `BinaryHeap` reference: random
    /// interleavings of every queue operation must produce identical pop
    /// sequences, lengths, and front stamps. The oracle mirrors the
    /// sequence-number contract exactly — unkeyed pushes use `next_seq` as
    /// their key, `pop_push` always consumes one sequence number, and the
    /// `push_pop` passthrough (new event beats the front outright) consumes
    /// none — so any drift in tie-breaking shows up as a payload mismatch.
    #[test]
    fn matches_binary_heap_reference_on_random_workload() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Oracle entry: (packed stamp, insertion seq, payload id).
        type Entry = Reverse<(u128, u64, u32)>;
        let time_of = |stamp: u128| SimTime::from_nanos((stamp >> 64) as u64);

        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        for trial in 0..40 {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut oracle: BinaryHeap<Entry> = BinaryHeap::new();
            let mut seq: u64 = 0;
            let mut next_id: u32 = 0;
            // Narrow time/key ranges force stamp collisions; the occasional
            // wide jump forces calendar re-slides past the armed window.
            let rand_time = |r: u64| {
                let base = r % 1000;
                if r % 97 == 0 {
                    SimTime::from_nanos(base * 1_000_000_000)
                } else {
                    SimTime::from_nanos(base)
                }
            };
            for _ in 0..600 {
                let r = rng();
                let t = rand_time(rng());
                let k = rng() % 8;
                match r % 100 {
                    0..=24 => {
                        // push: the implementation keys it by next_seq.
                        oracle.push(Reverse((pack_stamp(t, seq), seq, next_id)));
                        seq += 1;
                        q.push(t, next_id);
                        next_id += 1;
                    }
                    25..=44 => {
                        oracle.push(Reverse((pack_stamp(t, k), seq, next_id)));
                        seq += 1;
                        q.push_keyed(t, k, next_id);
                        next_id += 1;
                    }
                    45..=64 => {
                        let want = oracle.pop().map(|Reverse((s, _, id))| (time_of(s), id));
                        assert_eq!(q.pop(), want, "pop diverged (trial {trial})");
                    }
                    65..=79 => {
                        let want = oracle.pop().map(|Reverse((s, _, id))| (time_of(s), id));
                        oracle.push(Reverse((pack_stamp(t, k), seq, next_id)));
                        seq += 1;
                        assert_eq!(q.pop_push(t, k, next_id), want, "pop_push diverged");
                        next_id += 1;
                    }
                    80..=89 => {
                        let stamp = pack_stamp(t, k);
                        let want = match oracle.peek() {
                            Some(&Reverse((s, _, _))) if stamp >= s => {
                                let Reverse((s, _, id)) = oracle.pop().expect("peeked nonempty");
                                oracle.push(Reverse((stamp, seq, next_id)));
                                seq += 1;
                                (time_of(s), id)
                            }
                            // Passthrough: no insertion, no seq consumed.
                            _ => (t, next_id),
                        };
                        assert_eq!(q.push_pop(t, k, next_id), want, "push_pop diverged");
                        next_id += 1;
                    }
                    _ => {
                        let batch: Vec<(SimTime, u64, u32)> = (0..rng() % 12)
                            .map(|_| {
                                let (t, k) = (rand_time(rng()), rng() % 8);
                                let item = (t, k, next_id);
                                oracle.push(Reverse((pack_stamp(t, k), seq, next_id)));
                                seq += 1;
                                next_id += 1;
                                item
                            })
                            .collect();
                        q.push_batch(batch);
                    }
                }
                assert_eq!(q.len(), oracle.len(), "len diverged (trial {trial})");
                assert_eq!(
                    q.peek_stamp(),
                    oracle.peek().map(|&Reverse((s, _, _))| s),
                    "front stamp diverged (trial {trial})"
                );
            }
            // Drain both completely: the full pop order must match.
            while let Some(Reverse((s, _, id))) = oracle.pop() {
                assert_eq!(q.pop(), Some((time_of(s), id)), "drain diverged");
            }
            assert!(q.is_empty());
        }
    }
}
