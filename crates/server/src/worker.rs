//! Per-partition worker state: local queue, current execution, busy
//! accounting, and the snapshots ELSA's slack predictor reads.

use std::collections::VecDeque;

use des_engine::{SimDuration, SimTime};
use mig_gpu::ProfileSize;
use paris_core::PartitionSnapshot;
use server_metrics::BusyTracker;

use crate::query::Query;

/// A queued query together with its profiled execution estimate (the
/// `T_estimated,queued` entries of Equation 1).
#[derive(Debug, Clone, Copy)]
struct QueuedQuery {
    query: Query,
    estimate: SimDuration,
}

/// One MIG partition acting as an inference worker.
///
/// Holds the local scheduling queue the paper describes ("all GPU partitions
/// have \[a\] local scheduling queue that buffers all the queries yet to be
/// executed", §IV-C) plus the execution timestamp ELSA uses to derive
/// `T_remaining,current`.
#[derive(Debug, Clone)]
pub struct PartitionWorker {
    size: ProfileSize,
    queue: VecDeque<QueuedQuery>,
    queued_work: SimDuration,
    /// The currently executing query with its start and predicted end.
    current: Option<(Query, SimTime, SimTime)>,
    busy: BusyTracker,
    idle_since: SimTime,
}

impl PartitionWorker {
    /// Creates an idle worker for a partition of the given size.
    #[must_use]
    pub fn new(size: ProfileSize) -> Self {
        PartitionWorker {
            size,
            queue: VecDeque::new(),
            queued_work: SimDuration::ZERO,
            current: None,
            busy: BusyTracker::new(),
            idle_since: SimTime::ZERO,
        }
    }

    /// The partition's MIG profile.
    #[must_use]
    pub fn size(&self) -> ProfileSize {
        self.size
    }

    /// Whether the worker is executing nothing and has an empty queue.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    /// When the worker last became idle (meaningful only while idle).
    #[must_use]
    pub fn idle_since(&self) -> SimTime {
        self.idle_since
    }

    /// When the currently executing query will finish (`None` when nothing
    /// is executing).
    #[must_use]
    pub fn busy_until(&self) -> Option<SimTime> {
        self.current.map(|(_, _, end)| end)
    }

    /// The execution estimates of the queued queries, front to back — what
    /// a rebuilt [`paris_core::ElsaState`] must replay to reconstruct this
    /// worker's `queued_work` exactly.
    pub fn queued_estimates(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.queue.iter().map(|q| q.estimate)
    }

    /// Total busy time accumulated so far, nanoseconds.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.busy.busy_ns()
    }

    /// The Equation-1 snapshot at `now`: queued work plus the remaining
    /// execution of the current query.
    #[must_use]
    pub fn snapshot(&self, now: SimTime) -> PartitionSnapshot {
        let remaining = self
            .current
            .map_or(SimDuration::ZERO, |(_, _, end)| end.saturating_since(now));
        PartitionSnapshot {
            size: self.size,
            queued_work_ns: self.queued_work.as_nanos(),
            remaining_current_ns: remaining.as_nanos(),
        }
    }

    /// Appends a query to the local queue with its execution estimate.
    pub fn enqueue(&mut self, query: Query, estimate: SimDuration) {
        self.queued_work += estimate;
        self.queue.push_back(QueuedQuery { query, estimate });
    }

    /// Begins executing `query` at `now` for `duration`. Returns the
    /// completion time the caller must schedule.
    ///
    /// # Panics
    ///
    /// Panics if the worker is already executing a query.
    pub fn begin(&mut self, query: Query, now: SimTime, duration: SimDuration) -> SimTime {
        assert!(self.current.is_none(), "worker already busy");
        let end = now + duration;
        self.current = Some((query, now, end));
        self.busy.add_busy_ns(duration.as_nanos());
        end
    }

    /// Pops the next queued query (front of the local FIFO), adjusting the
    /// queued-work accounting.
    pub fn pop_next(&mut self) -> Option<(Query, SimDuration)> {
        let q = self.queue.pop_front()?;
        self.queued_work = self.queued_work.saturating_sub(q.estimate);
        Some((q.query, q.estimate))
    }

    /// Completes the current query at `now`, returning it and its start
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the worker is idle.
    pub fn finish(&mut self, now: SimTime) -> (Query, SimTime) {
        let (query, started, _) = self.current.take().expect("no query executing");
        self.idle_since = now;
        (query, started)
    }

    /// Aborts the currently executing query at `now` — a fault killed the
    /// partition mid-execution — returning the query so the caller can
    /// requeue it elsewhere. The busy time [`begin`](Self::begin) charged
    /// up front for the unserved remainder is refunded. `None` if nothing
    /// was executing.
    pub fn abort(&mut self, now: SimTime) -> Option<Query> {
        let (query, _started, end) = self.current.take()?;
        self.busy
            .remove_busy_ns(end.saturating_since(now).as_nanos());
        self.idle_since = now;
        Some(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryId;

    fn query(id: u64, batch: usize) -> Query {
        Query {
            id: QueryId(id),
            batch,
            arrival: SimTime::ZERO,
            dispatched: SimTime::ZERO,
        }
    }

    #[test]
    fn fresh_worker_is_idle_with_zero_snapshot() {
        let w = PartitionWorker::new(ProfileSize::G2);
        assert!(w.is_idle());
        let s = w.snapshot(SimTime::from_nanos(500));
        assert_eq!(s.wait_ns(), 0);
        assert_eq!(s.size, ProfileSize::G2);
    }

    #[test]
    fn snapshot_tracks_remaining_execution() {
        let mut w = PartitionWorker::new(ProfileSize::G1);
        let end = w.begin(
            query(1, 4),
            SimTime::from_nanos(100),
            SimDuration::from_nanos(1_000),
        );
        assert_eq!(end, SimTime::from_nanos(1_100));
        let s = w.snapshot(SimTime::from_nanos(600));
        assert_eq!(s.remaining_current_ns, 500);
        // Past the end, remaining clamps to zero.
        assert_eq!(
            w.snapshot(SimTime::from_nanos(2_000)).remaining_current_ns,
            0
        );
    }

    #[test]
    fn queue_accounting_balances() {
        let mut w = PartitionWorker::new(ProfileSize::G3);
        w.enqueue(query(1, 2), SimDuration::from_nanos(300));
        w.enqueue(query(2, 8), SimDuration::from_nanos(700));
        assert_eq!(w.snapshot(SimTime::ZERO).queued_work_ns, 1_000);
        let (q, est) = w.pop_next().unwrap();
        assert_eq!(q.id, QueryId(1));
        assert_eq!(est, SimDuration::from_nanos(300));
        assert_eq!(w.snapshot(SimTime::ZERO).queued_work_ns, 700);
    }

    #[test]
    fn queue_is_fifo() {
        let mut w = PartitionWorker::new(ProfileSize::G1);
        for i in 0..5 {
            w.enqueue(query(i, 1), SimDuration::from_nanos(10));
        }
        for i in 0..5 {
            assert_eq!(w.pop_next().unwrap().0.id, QueryId(i));
        }
        assert!(w.pop_next().is_none());
    }

    #[test]
    fn finish_restores_idle_and_stamps_idle_since() {
        let mut w = PartitionWorker::new(ProfileSize::G1);
        w.begin(
            query(7, 1),
            SimTime::from_nanos(50),
            SimDuration::from_nanos(100),
        );
        assert!(!w.is_idle());
        let (q, started) = w.finish(SimTime::from_nanos(150));
        assert_eq!(q.id, QueryId(7));
        assert_eq!(started, SimTime::from_nanos(50));
        assert!(w.is_idle());
        assert_eq!(w.idle_since(), SimTime::from_nanos(150));
    }

    #[test]
    fn busy_time_accumulates_per_execution() {
        let mut w = PartitionWorker::new(ProfileSize::G1);
        w.begin(query(1, 1), SimTime::ZERO, SimDuration::from_nanos(400));
        w.finish(SimTime::from_nanos(400));
        w.begin(
            query(2, 1),
            SimTime::from_nanos(500),
            SimDuration::from_nanos(100),
        );
        w.finish(SimTime::from_nanos(600));
        assert_eq!(w.busy_ns(), 500);
    }

    #[test]
    fn abort_returns_the_query_and_refunds_unserved_busy_time() {
        let mut w = PartitionWorker::new(ProfileSize::G2);
        w.begin(query(3, 2), SimTime::ZERO, SimDuration::from_nanos(1_000));
        // Killed 400 ns in: 600 ns of the up-front charge come back.
        let q = w.abort(SimTime::from_nanos(400)).expect("was executing");
        assert_eq!(q.id, QueryId(3));
        assert_eq!(w.busy_ns(), 400);
        assert!(w.busy_until().is_none());
        assert_eq!(w.idle_since(), SimTime::from_nanos(400));
        // Idle worker: nothing to abort.
        assert!(w.abort(SimTime::from_nanos(500)).is_none());
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_begin_panics() {
        let mut w = PartitionWorker::new(ProfileSize::G1);
        w.begin(query(1, 1), SimTime::ZERO, SimDuration::from_nanos(10));
        w.begin(query(2, 1), SimTime::ZERO, SimDuration::from_nanos(10));
    }
}
