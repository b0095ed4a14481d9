//! # wadc-topo — the network model
//!
//! Every simulated world is a [`graph::Topology`]. The paper's network
//! model is per-host-pair trace-driven bandwidth with no cross-pair
//! coupling: a topology that gives each pair one private link
//! ([`graph::Topology::per_pair`]). Real wide-area networks also fail
//! collectively: many flows contend for one congested oceanic link. This
//! crate supplies both:
//!
//! - [`link::LinkTable`] — a bandwidth trace per host pair, including the
//!   paper's 300-configuration generator (random assignment of study
//!   traces to the links of a complete graph); every topology owns one
//!   as its per-pair nominal table,
//! - [`graph::Topology`] — hosts behind edge (access) links, joined by
//!   shared backbone links, each link carrying a
//!   [`wadc_trace::model::BandwidthTrace`]; plus a routing table mapping
//!   every host pair to its link path,
//! - [`fair::max_min_shares`] — a max-min fair-share allocator that
//!   splits each shared link's instantaneous bandwidth among the
//!   concurrent flows crossing it (progressive filling), and
//!   [`fair::check_max_min`], an independent certificate of its output,
//! - [`preset::TopoPreset`] — paper-shaped presets: US / EU / Brazil
//!   regions behind two oceanic bottlenecks.
//!
//! The crate is pure data + arithmetic: it owns no clocks, queues or
//! transfers. `wadc-net` plugs it behind the `Network` surface and drives
//! the fairness recompute on every flow start, flow finish and
//! bandwidth-trace step.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use wadc_plan::ids::HostId;
//! use wadc_topo::graph::TopologyBuilder;
//! use wadc_trace::model::BandwidthTrace;
//!
//! // Two hosts behind private access links, sharing one backbone.
//! let mut b = TopologyBuilder::new(2);
//! let a0 = b.add_link("access-0", Arc::new(BandwidthTrace::constant(1_000_000.0)));
//! let a1 = b.add_link("access-1", Arc::new(BandwidthTrace::constant(1_000_000.0)));
//! let ocean = b.add_link("ocean", Arc::new(BandwidthTrace::constant(50_000.0)));
//! b.route(HostId::new(0), HostId::new(1), &[a0, ocean, a1]);
//! let topo = b.build();
//! // The pair's nominal (uncontended) bandwidth is the path bottleneck.
//! assert_eq!(
//!     topo.nominal_trace(HostId::new(0), HostId::new(1))
//!         .bandwidth_at(wadc_sim::time::SimTime::ZERO),
//!     50_000.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fair;
pub mod graph;
pub mod link;
pub mod preset;

pub use fair::{check_max_min, max_min_shares, FairScratch};
pub use graph::{LinkId, TopoLink, Topology, TopologyBuilder};
pub use link::{LinkTable, OracleView};
pub use preset::{build_preset, TopoPreset};
