//! # wadc-sim — deterministic discrete-event simulation kernel
//!
//! The paper evaluated its placement algorithms "using a detailed discrete
//! event simulation of the system using CSIM". CSIM is a commercial,
//! closed-source C library; this crate is the substitute substrate: a small,
//! fully deterministic DES kernel providing
//!
//! - simulated time ([`time::SimTime`], [`time::SimDuration`]) with integer
//!   microsecond resolution,
//! - a future event list ([`event::EventQueue`]) with a stable
//!   `(time, scheduling order)` total order, popped one event at a time,
//! - statistics collectors ([`stats`]), seeded random streams ([`rng`])
//!   and run digests ([`digest`]).
//!
//! Queueing at a host's disk and CPU is plain first-come-first-served
//! and lives with the engine that owns the hosts; the network's two
//! priority classes live in `wadc-net`.
//!
//! Unlike CSIM's process-oriented style, the kernel is event-oriented: the
//! caller owns all world state and handles each popped event. This fits
//! Rust's ownership model and keeps the simulation single-threaded and
//! exactly reproducible.
//!
//! # Examples
//!
//! A two-event simulation:
//!
//! ```
//! use wadc_sim::event::EventQueue;
//! use wadc_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut q = EventQueue::new();
//! q.schedule_in(SimDuration::from_millis(10), Ev::Ping);
//! let mut log = Vec::new();
//! while let Some((t, _, ev)) = q.pop() {
//!     match ev {
//!         Ev::Ping => {
//!             log.push((t, "ping"));
//!             q.schedule_in(SimDuration::from_millis(5), Ev::Pong);
//!         }
//!         Ev::Pong => log.push((t, "pong")),
//!     }
//! }
//! assert_eq!(log[1].0, SimTime::from_millis(15));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue};
pub use time::{SimDuration, SimTime};
