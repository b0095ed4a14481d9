//! # wadc-core — adaptive operator placement for wide-area data combination
//!
//! The primary contribution of *"Adapting to Bandwidth Variations in
//! Wide-Area Data Combination"* (Ranganathan, Acharya, Saltz — ICDCS
//! 1998): relocating the operators of a data-combination tree in response
//! to wide-area bandwidth variation.
//!
//! - [`algorithms`] — the **one-shot** placement search and the **local**
//!   algorithm's per-operator decision (pure, independently testable),
//! - [`engine`] — the demand-driven execution engine on the simulated
//!   network, with the **global** algorithm's barrier-coordinated
//!   change-over and the **local** algorithm's staggered epoch wavefront,
//! - [`knowledge`] — what planners know (monitored cache + on-demand
//!   probes, or a perfect oracle),
//! - [`analysis`] — post-run diagnostics over the adaptation audit log
//!   (transit time, barrier latency, convergence),
//! - [`gauging`] — the forecaster-vs-gauger instrument comparison on a
//!   shared bottleneck (the committed contention analysis table),
//! - [`experiment`] — single-run setup: network configurations built from
//!   a trace study, paired baseline runs, speedups,
//! - [`study`] — the paper's 300-configuration evaluation methodology and
//!   the per-figure series generators,
//! - [`sweep`] — the work-stealing sweep fabric the study (and any other
//!   indexed job list) runs on: deterministic, index-ordered merges
//!   regardless of thread count.
//!
//! # Examples
//!
//! Run one configuration under two strategies and compare:
//!
//! ```
//! use wadc_core::engine::Algorithm;
//! use wadc_core::experiment::Experiment;
//!
//! let mut exp = Experiment::quick(4, 42); // small: doctest-speed
//! let base = exp.run(Algorithm::DownloadAll);
//! let adapted = exp.run(Algorithm::OneShot);
//! assert!(base.completed && adapted.completed);
//! let _speedup = adapted.speedup_over(&base);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod analysis;
pub mod engine;
pub mod experiment;
pub mod gauging;
pub mod knowledge;
pub mod study;
pub mod sweep;

pub use engine::{Algorithm, Engine, EngineConfig, RunResult};
pub use experiment::Experiment;
pub use knowledge::KnowledgeMode;
pub use sweep::SweepDriver;
