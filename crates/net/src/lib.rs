//! # wadc-net — the simulated wide-area network
//!
//! The network substrate of the paper's simulation, built on the
//! [`wadc_sim`] kernel and driven by the [`wadc_trace`] bandwidth traces
//! of a [`wadc_topo`] topology:
//!
//! - [`network::Network`] — half-duplex single-NIC hosts, 50 ms message
//!   startup, priority queueing of control traffic, exact transfer times
//!   integrated over the time-varying traces,
//! - [`faults::FaultPlan`] — deterministic, seed-derived fault injection:
//!   link outages, host blackouts, message loss, probe black-holing and
//!   operator-move failures,
//! - [`topo::TopoModel`] — the throughput model behind the `Network`
//!   surface: flows over shared links split them max-min fairly, and a
//!   pair's private link is its own path, as in the paper's per-pair
//!   model.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use wadc_net::network::{Network, NetworkParams};
//! use wadc_topo::graph::Topology;
//! use wadc_topo::link::LinkTable;
//! use wadc_trace::model::BandwidthTrace;
//!
//! // The paper's network: nine hosts, a pool trace on every pair's link.
//! let pool = vec![Arc::new(BandwidthTrace::constant(64_000.0))];
//! let links = LinkTable::random_from_pool(9, &pool, 42);
//! let net: Network<()> = Network::new(
//!     NetworkParams::paper_defaults(),
//!     Arc::new(Topology::per_pair(links)),
//! );
//! assert_eq!(net.in_flight_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod network;
pub mod topo;

pub use faults::{FaultInjector, FaultPlan, HostBlackout, LinkOutage, TrafficKind};
pub use network::{
    Delivery, KindStats, NetStats, Network, NetworkParams, Priority, StartedTransfer, TransferId,
    TransferSpec,
};
pub use topo::{expand_backbone_outage, TopoModel};
