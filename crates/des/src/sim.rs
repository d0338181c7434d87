//! The simulation driver: a clock plus an event queue.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A discrete-event simulation: a monotonically advancing clock and a queue
/// of future events.
///
/// The API is pull-style: the caller repeatedly asks for
/// [`next_event`](Simulation::next_event) and handles it, scheduling
/// follow-up events in the process. This sidesteps the aliasing problems of
/// callback-driven engines — handler code may borrow the world mutably while
/// holding `&mut Simulation`.
///
/// # Examples
///
/// A single-server queue where each job takes 10 µs:
///
/// ```
/// use des_engine::{SimDuration, SimTime, Simulation};
///
/// enum Ev { Arrive, Done }
///
/// let mut sim = Simulation::new();
/// for i in 0..3u64 {
///     sim.schedule_at(SimTime::ZERO + SimDuration::from_micros(i * 4), Ev::Arrive);
/// }
/// let (mut busy_until, mut completed) = (sim.now(), 0u32);
/// while let Some((now, ev)) = sim.next_event() {
///     match ev {
///         Ev::Arrive => {
///             let start = busy_until.max(now);
///             busy_until = start + SimDuration::from_micros(10);
///             sim.schedule_at(busy_until, Ev::Done);
///         }
///         Ev::Done => completed += 1,
///     }
/// }
/// assert_eq!(completed, 3);
/// assert_eq!(sim.now().as_nanos(), 30_000); // 3 back-to-back 10 µs jobs
/// ```
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    peak_pending: usize,
}

impl<E> Simulation<E> {
    /// Creates a simulation with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a simulation whose event queue has room for `capacity`
    /// events before reallocating.
    ///
    /// Sizing the queue to the simulation's steady-state event population
    /// (for the inference server: one completion per partition plus the
    /// next streamed arrival) makes the event loop allocation-free after
    /// startup.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Simulation {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            processed: 0,
            peak_pending: 0,
        }
    }

    /// The current simulated instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The largest number of events that were ever pending at once.
    #[must_use]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Events scheduled in the past are clamped to fire "now": simulated time
    /// never runs backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Schedules `event` at the absolute instant `at`, breaking
    /// same-instant ties by `key` (ascending) before insertion order — see
    /// [`EventQueue::push_keyed`](crate::EventQueue::push_keyed).
    ///
    /// Events scheduled in the past are clamped to fire "now".
    pub fn schedule_at_keyed(&mut self, at: SimTime, key: u64, event: E) {
        self.queue.push_keyed(at.max(self.now), key, event);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Advances the clock to the earliest pending event and returns it, or
    /// `None` when the queue has drained.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue produced time travel");
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }

    /// Schedules `event` at `(at, key)` and advances to the earliest
    /// pending event in one fused step — exactly
    /// [`schedule_at_keyed`](Self::schedule_at_keyed) followed by
    /// [`next_event`](Self::next_event), including the past-clamp, the
    /// high-water accounting and the processed count. Always returns an
    /// event (the queue is nonempty after the push). The streamed server
    /// drivers hold each handler's final schedule in a one-slot register
    /// and feed it here, turning the dispatch/complete cycle's push + pop
    /// pair into one [`EventQueue::push_pop`](crate::EventQueue::push_pop).
    pub fn push_pop(&mut self, at: SimTime, key: u64, event: E) -> (SimTime, E) {
        self.peak_pending = self.peak_pending.max(self.queue.len() + 1);
        let (time, event) = self.queue.push_pop(at.max(self.now), key, event);
        debug_assert!(time >= self.now, "event queue produced time travel");
        self.now = time;
        self.processed += 1;
        (time, event)
    }

    /// The packed `(time << 64) | key` stamp of the earliest pending event,
    /// if any — the lexicographic position the queue will pop next, what a
    /// conservative windowed driver merges against its own pending items.
    /// The packing is bijective (see [`pack_stamp`](crate::pack_stamp)), so
    /// comparing stamps is exactly comparing `(time, key)` pairs
    /// lexicographically.
    #[must_use]
    pub fn peek_stamp(&self) -> Option<u128> {
        self.queue.peek_stamp()
    }

    /// Like [`next_event`](Simulation::next_event), but only pops while the
    /// earliest pending event's stamp is **strictly before** the
    /// pre-[`pack_stamp`](crate::pack_stamp)ed `bound` — the
    /// conservative-window advancement primitive: a shard lane drains
    /// everything it already knows about up to the next synchronization
    /// point without ever touching an event at or beyond it. The windowed
    /// drivers pack each bound once and merge mailboxed commands against
    /// lane events with single-integer compares.
    ///
    /// A declined pop leaves the clock untouched: the lane's `now` keeps
    /// meaning "last local activity", which windowed utilization and
    /// loan-integral accounting rely on.
    pub fn next_event_if_before_stamp(&mut self, bound: u128) -> Option<(SimTime, E)> {
        match self.queue.peek_stamp() {
            Some(stamp) if stamp < bound => self.next_event(),
            _ => None,
        }
    }

    /// Advances the clock to `at` if it lags (never backwards). A windowed
    /// driver calls this before applying an externally timestamped action
    /// (a routed arrival, a fault) so that follow-up events the handler
    /// schedules "now" land at the action's instant, exactly as they would
    /// in a single shared event queue.
    pub fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::pack_stamp;

    #[test]
    fn clock_starts_at_zero() {
        let sim: Simulation<()> = Simulation::new();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.events_processed(), 0);
        assert_eq!(sim.peek_stamp(), None);
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_nanos(100), "a");
        sim.schedule_at(SimTime::from_nanos(40), "b");
        assert_eq!(sim.peak_pending(), 2);

        let (t1, e1) = sim.next_event().unwrap();
        assert_eq!((t1.as_nanos(), e1), (40, "b"));
        assert_eq!(sim.now(), t1);

        let (t2, e2) = sim.next_event().unwrap();
        assert_eq!((t2.as_nanos(), e2), (100, "a"));
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.next_event(), None);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_nanos(50), 1);
        sim.next_event().unwrap();
        sim.schedule_at(SimTime::from_nanos(10), 2); // in the past
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t, SimTime::from_nanos(50));
    }

    #[test]
    fn keyed_scheduling_orders_same_instant_events() {
        let mut sim = Simulation::new();
        let t = SimTime::from_nanos(100);
        sim.schedule_at_keyed(t, 2, "second");
        sim.schedule_at_keyed(t, 1, "first");
        assert_eq!(sim.next_event().map(|(_, e)| e), Some("first"));
        assert_eq!(sim.next_event().map(|(_, e)| e), Some("second"));
    }

    #[test]
    fn bounded_pop_respects_the_time_key_order() {
        let mut sim = Simulation::new();
        let t = SimTime::from_nanos(100);
        sim.schedule_at_keyed(t, 3, "k3");
        sim.schedule_at_keyed(t, 7, "k7");
        sim.schedule_at_keyed(SimTime::from_nanos(50), 9, "early");
        assert_eq!(
            sim.peek_stamp(),
            Some(pack_stamp(SimTime::from_nanos(50), 9))
        );
        // Everything strictly before (100, 7) pops; (100, 7) itself stays.
        let bound = pack_stamp(t, 7);
        assert_eq!(
            sim.next_event_if_before_stamp(bound).map(|(_, e)| e),
            Some("early")
        );
        assert_eq!(
            sim.next_event_if_before_stamp(bound).map(|(_, e)| e),
            Some("k3")
        );
        assert_eq!(sim.next_event_if_before_stamp(bound), None);
        assert_eq!(sim.now(), t, "clock sits at the last popped event");
        assert_eq!(
            sim.peek_stamp(),
            Some(bound),
            "the bound event is untouched"
        );
        // A declined pop never advances the clock past the last activity.
        assert_eq!(sim.next_event_if_before_stamp(bound), None);
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.advance_to(SimTime::from_nanos(40));
        assert_eq!(sim.now(), SimTime::from_nanos(40));
        sim.advance_to(SimTime::from_nanos(10));
        assert_eq!(sim.now(), SimTime::from_nanos(40), "never backwards");
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut sim = Simulation::with_capacity(8);
        assert_eq!(sim.peak_pending(), 0);
        for i in 0..5u64 {
            sim.schedule_at(SimTime::from_nanos(i), i);
        }
        assert_eq!(sim.peak_pending(), 5);
        while sim.next_event().is_some() {}
        // Draining does not lower the high-water mark.
        assert_eq!(sim.peak_pending(), 5);
    }
}
