//! # wadc — wide-area data combination with adaptive operator placement
//!
//! A from-scratch reproduction of *"Adapting to Bandwidth Variations in
//! Wide-Area Data Combination"* (M. Ranganathan, Anurag Acharya, Joel
//! Saltz — ICDCS 1998): combining data from geographically distributed
//! servers through a tree of relocatable operators, adapting operator
//! placement to wide-area bandwidth variation.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event simulation kernel (CSIM substitute) |
//! | [`trace`] | calibrated synthetic wide-area bandwidth traces and the multi-day study |
//! | [`plan`] | combination trees, placements, cost model, critical path |
//! | [`net`] | simulated WAN: half-duplex NICs, priority transfers, disks |
//! | [`topo`] | explicit topology graphs: shared backbones, max-min fair shares, presets |
//! | [`monitor`] | passive monitoring, caches, piggybacking, timestamp vectors |
//! | [`app`] | the satellite-image composition workload |
//! | [`core`] | the placement algorithms and the adaptive execution engine |
//! | [`mobile`] | operator-mobility substrate: prices a move (framed state, code on a first visit) |
//! | [`obs`] | observability: span/event tracing, metrics, trace exporters, run reports |
//!
//! # Quickstart
//!
//! Compare the four placement strategies on one network configuration:
//!
//! ```
//! use wadc::core::engine::Algorithm;
//! use wadc::core::experiment::Experiment;
//!
//! let exp = Experiment::quick(4, 42);
//! let baseline = exp.run(Algorithm::DownloadAll);
//! let adaptive = exp.run(Algorithm::OneShot);
//! println!("one-shot speedup: {:.2}×", adaptive.speedup_over(&baseline));
//! # assert!(baseline.completed && adaptive.completed);
//! ```
//!
//! See `examples/` for full scenarios and `crates/bench` for the binaries
//! that regenerate every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wadc_app as app;
pub use wadc_core as core;
pub use wadc_mobile as mobile;
pub use wadc_monitor as monitor;
pub use wadc_net as net;
pub use wadc_obs as obs;
pub use wadc_plan as plan;
pub use wadc_sim as sim;
pub use wadc_topo as topo;
pub use wadc_trace as trace;
pub use wadc_verify as verify;

// Convenient top-level re-exports of the items nearly every user touches.
pub use wadc_core::engine::{Algorithm, Engine, EngineConfig, RunResult};
pub use wadc_core::experiment::Experiment;
pub use wadc_core::knowledge::KnowledgeMode;
pub use wadc_plan::tree::TreeShape;
