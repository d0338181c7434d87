//! # des-engine — deterministic discrete-event simulation kernel
//!
//! A small, allocation-light discrete-event simulation (DES) core used by the
//! PARIS+ELSA inference-server simulator. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond time types that make
//!   the event loop fully deterministic (no floating-point drift) and keep
//!   instants and durations statically distinct,
//! * [`EventQueue`] — a time-ordered priority queue with stable FIFO
//!   tie-breaking for events scheduled at the same instant,
//! * [`Simulation`] — a clock plus event queue with a pull-style stepping API
//!   that avoids the borrow gymnastics of callback-based designs.
//!
//! The engine is payload-generic: the simulated world defines its own event
//! enum and drives the loop itself, which keeps handler code free to borrow
//! world state mutably while scheduling follow-up events.
//!
//! ```
//! use des_engine::{SimDuration, SimTime, Simulation};
//!
//! #[derive(Debug, PartialEq)]
//! enum Event {
//!     Ping(u32),
//! }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_at(SimTime::ZERO + SimDuration::from_millis(5), Event::Ping(1));
//! sim.schedule_at(SimTime::ZERO + SimDuration::from_millis(2), Event::Ping(2));
//!
//! let mut order = Vec::new();
//! while let Some((time, event)) = sim.next_event() {
//!     let Event::Ping(id) = event;
//!     order.push((time.as_millis_f64(), id));
//! }
//! assert_eq!(order, vec![(2.0, 2), (5.0, 1)]);
//! ```

mod queue;
mod sim;
mod time;

pub use queue::{pack_stamp, unpack_time, EventQueue};
pub use sim::Simulation;
pub use time::{SimDuration, SimTime};
