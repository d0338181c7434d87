//! A per-lane table of in-flight queries, keyed by query id.
//!
//! Engine lanes number their queries densely from zero, and only a handful
//! are in flight at once, so the table keeps a dense window of slots that
//! starts at the oldest id still in flight (`base`) and advances as the
//! front completes. An id too far past the window — which only a
//! hand-built lane uses — lives in an ordered map instead, so no
//! allocation is ever sized by an id. [`InFlight::release_spare`] gives
//! back a drained backlog's slots, so the window can be sized by the work
//! in flight now, not by the worst backlog of the run.

use std::collections::{BTreeMap, VecDeque};

/// Ids at or beyond `base + DENSE_WINDOW` go to the ordered map.
const DENSE_WINDOW: u64 = 1 << 16;

/// The dense window keeps at least this many slots when it shrinks.
const MIN_SLOTS: usize = 64;

/// Query id → `T` for the queries a lane has seen arrive and not yet
/// consumed. Ids below `base` count as consumed: inserting one is a no-op
/// and taking one yields `None`.
#[derive(Debug, Clone)]
pub(crate) struct InFlight<T> {
    base: u64,
    dense: VecDeque<Option<T>>,
    far: BTreeMap<u64, T>,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight {
            base: 0,
            dense: VecDeque::new(),
            far: BTreeMap::new(),
        }
    }
}

impl<T: Copy> InFlight<T> {
    /// Sets `query`'s entry, replacing any earlier one.
    #[inline]
    pub(crate) fn insert(&mut self, query: u64, value: T) {
        if query < self.base {
            return; // a consumed id
        }
        let idx = query - self.base;
        if idx >= DENSE_WINDOW {
            self.far.insert(query, value);
            return;
        }
        let idx = idx as usize;
        if idx >= self.dense.len() {
            self.dense.resize(idx + 1, None);
        }
        self.dense[idx] = Some(value);
        if !self.far.is_empty() {
            self.far.remove(&query);
        }
    }

    /// Removes and returns `query`'s entry, then reclaims the consumed
    /// front of the dense window.
    #[inline]
    pub(crate) fn take(&mut self, query: u64) -> Option<T> {
        let taken = match self.dense_index(query) {
            Some(i) if self.dense[i].is_some() => self.dense[i].take(),
            _ => self.far.remove(&query),
        };
        // The front advances past empty slots, but never past an id the
        // ordered map still holds.
        while self.dense.front().is_some_and(Option::is_none)
            && (self.far.is_empty() || !self.far.contains_key(&self.base))
        {
            self.dense.pop_front();
            self.base += 1;
        }
        taken
    }

    /// Gives back the dense window's spare slots when they outnumber the
    /// live ones three to one, keeping twice the live ones. Not on the
    /// per-query path: a backlog that swings by 4× between calls would
    /// otherwise reallocate the window on every swing.
    pub(crate) fn release_spare(&mut self) {
        if self.dense.capacity() > MIN_SLOTS && self.dense.len() < self.dense.capacity() / 4 {
            self.dense.shrink_to(MIN_SLOTS.max(2 * self.dense.len()));
        }
    }

    #[inline]
    fn dense_index(&self, query: u64) -> Option<usize> {
        let idx = query.checked_sub(self.base)?;
        (idx < self.dense.len() as u64).then_some(idx as usize)
    }

    #[cfg(test)]
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    #[cfg(test)]
    pub(crate) fn dense_len(&self) -> usize {
        self.dense.len()
    }

    #[cfg(test)]
    pub(crate) fn dense_capacity(&self) -> usize {
        self.dense.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_ids_use_the_map_and_come_back_out() {
        let mut t: InFlight<u32> = InFlight::default();
        t.insert(0, 10);
        t.insert(u64::MAX - 1, 20);
        t.insert(5, 30);
        assert_eq!(t.dense_len(), 6, "the far id sized nothing");
        assert_eq!(t.take(0), Some(10));
        assert_eq!(t.base(), 5, "consumed front reclaimed");
        assert_eq!(t.take(u64::MAX - 1), Some(20));
        assert_eq!(t.take(u64::MAX - 1), None);
        assert_eq!(t.take(5), Some(30));
        t.insert(2, 40);
        assert_eq!(t.take(2), None, "ids below the base are consumed");
    }

    #[test]
    fn a_drained_backlog_gives_its_slots_back() {
        let mut t: InFlight<u64> = InFlight::default();
        for q in 0..5_000 {
            t.insert(q, q);
        }
        assert!(t.dense_capacity() >= 5_000);
        // The backlog drains to the newest few queries, in order.
        for q in 0..4_990 {
            assert_eq!(t.take(q), Some(q));
        }
        assert_eq!(t.dense_len(), 10);
        assert!(t.dense_capacity() >= 5_000, "takes alone keep the slots");
        t.release_spare();
        assert_eq!(t.dense_capacity(), MIN_SLOTS, "spare slots released");
        // A backlog drained out of order shrinks too, keeping its hole; its
        // takes also find the ten entries that lived through the shrink.
        for q in 5_000..9_000 {
            t.insert(q, q);
        }
        for q in (4_990..9_000).filter(|q| q % 1_000 != 7) {
            assert_eq!(t.take(q), Some(q));
        }
        assert_eq!((t.base(), t.dense_len()), (5_007, 3_993));
        let before = t.dense_capacity();
        t.release_spare();
        assert_eq!(t.dense_capacity(), before, "a quarter or more is live");
        for q in [5_007, 6_007, 7_007] {
            assert_eq!(t.take(q), Some(q));
        }
        t.release_spare();
        assert_eq!(t.dense_len(), 993);
        assert!(t.dense_capacity() < before && t.dense_capacity() >= 2 * 993);
        assert_eq!(t.take(8_007), Some(8_007));
        t.release_spare();
        assert_eq!((t.dense_len(), t.dense_capacity()), (0, MIN_SLOTS));
    }

    #[test]
    fn the_front_never_passes_an_id_the_map_holds() {
        let mut t: InFlight<u32> = InFlight::default();
        t.insert(DENSE_WINDOW, 1); // beyond the window: the map
        t.insert(0, 3);
        t.insert(1, 5);
        assert_eq!((t.take(0), t.take(1)), (Some(3), Some(5)));
        assert_eq!(t.base(), 2);
        // Now inside the window: the dense slots cover the mapped id.
        t.insert(DENSE_WINDOW + 1, 2);
        assert_eq!(t.take(DENSE_WINDOW + 1), Some(2));
        assert_eq!(t.base(), DENSE_WINDOW, "stopped at the mapped id");
        assert_eq!(t.take(DENSE_WINDOW), Some(1));
        assert_eq!(t.base(), DENSE_WINDOW + 2);
        assert_eq!(t.dense_len(), 0);
    }
}
