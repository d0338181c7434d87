//! The online plane keeps nothing per query: an [`OnlineLane`] holds the
//! same live bytes whether 1,000 or 64,000 arrivals are in flight in one
//! window. A per-query table coming back (the lane once kept each
//! in-flight query's model and SLA) would grow with the backlog.
//!
//! This file is its own test binary with one test, so the counting
//! allocator sees no other test's allocations.

use des_engine::SimTime;
use inference_obs::{OnlineLane, TraceEvent, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Tracks live heap bytes: allocations add, deallocations subtract.
struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Adds `bytes` to the live count (negative for a free).
fn add_live(bytes: i64) {
    LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter has no effect on
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc_zeroed` is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The live bytes an `OnlineLane` holds once `n` arrivals of two models
/// have landed 10 ns apart in one 1 s window, none of them completed.
fn bytes_with_in_flight(n: u64) -> i64 {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut lane = OnlineLane::new(0, 1_000_000_000);
    for q in 0..n {
        let at = 10 * q;
        lane.record(
            SimTime::from_nanos(at),
            q,
            TraceEvent::Arrival {
                query: q,
                group: (q % 2) as usize,
                batch: 1,
                dispatched_ns: at,
                sla_ns: 5_000_000,
            },
        );
    }
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    drop(lane);
    held
}

#[test]
fn an_online_lane_holds_nothing_per_query_in_flight() {
    let few = bytes_with_in_flight(1_000);
    let many = bytes_with_in_flight(64_000);
    assert!(
        (many - few).abs() <= 1024,
        "an online lane holds {few} B with 1,000 queries in flight but {many} B with 64,000"
    );
}
