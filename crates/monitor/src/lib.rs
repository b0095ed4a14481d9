//! # wadc-monitor — bandwidth monitoring substrate
//!
//! The paper's infrastructure requirement (2): "the placement algorithm
//! should be able to request bandwidth information for any pair of
//! participating hosts", provided by on-demand, user-level monitoring in
//! the spirit of Komodo and the Network Weather Service. This crate
//! implements the monitoring scheme the paper simulates:
//!
//! - [`cache::BandwidthCache`] — per-host measurement cache with passive
//!   observation of transfers ≥ `S_thres` (16 KB) and `T_thres` (40 s)
//!   expiry,
//! - [`piggyback`] — dissemination of the most recent values that fit in
//!   1 KB on every outgoing message,
//! - [`vector::LocationVector`] — the timestamp-vector / location-vector
//!   pair used by the local algorithm to track operator positions.
//!
//! # Examples
//!
//! ```
//! use wadc_monitor::cache::{BandwidthCache, MonitorConfig};
//! use wadc_monitor::piggyback;
//! use wadc_plan::ids::HostId;
//! use wadc_sim::time::{SimDuration, SimTime};
//!
//! let mut sender = BandwidthCache::new(MonitorConfig::paper_defaults());
//! sender.observe_transfer(
//!     HostId::new(0),
//!     HostId::new(1),
//!     128 * 1024,
//!     SimDuration::from_secs(2),
//!     SimTime::from_secs(2),
//! );
//! let payload = piggyback::collect(&mut sender, SimTime::from_secs(2));
//! let mut receiver = BandwidthCache::new(MonitorConfig::paper_defaults());
//! assert_eq!(piggyback::absorb(&mut receiver, &payload), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod forecast;
pub mod gauge;
pub mod observe;
pub mod piggyback;
pub mod vector;

pub use cache::{BandwidthCache, Measurement, MonitorConfig};
pub use daemon::ProbeScheduler;
pub use forecast::{Forecaster, Predictor};
pub use gauge::Gauge;
pub use observe::EstimateGauges;
pub use piggyback::{Piggyback, PiggybackEntry};
pub use vector::LocationVector;
