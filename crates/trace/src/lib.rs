//! # wadc-trace — wide-area bandwidth traces
//!
//! The paper's experiments are driven by "actual Internet bandwidth traces"
//! collected in a multi-day study of host pairs across the US, Europe and
//! Brazil. Those traces are not available, so this crate substitutes a
//! calibrated synthetic model (see `DESIGN.md` for the substitution
//! argument):
//!
//! - [`model::BandwidthTrace`] — piecewise-constant bandwidth with exact
//!   transfer-time integration,
//! - [`synth`] — the generative model (diurnal cycle × lognormal AR(1)
//!   fluctuation × congestion episodes), calibrated so significant (≥10%)
//!   bandwidth changes arrive about every 2 minutes as the paper measured,
//! - [`study::BandwidthStudy`] — the synthetic multi-day study over the
//!   paper's host regions, with noon-aligned segment extraction,
//! - [`stats`] — change-interval analysis and Figure-2-style summaries.
//!
//! # Examples
//!
//! ```
//! use wadc_sim::time::SimDuration;
//! use wadc_trace::study::BandwidthStudy;
//!
//! let study = BandwidthStudy::default_study(42);
//! assert_eq!(study.pair_count(), 45); // 10 hosts → 45 pairs
//! let pool = study.noon_trace_pool(SimDuration::from_hours(6));
//! assert_eq!(pool.len(), 45);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod stats;
pub mod study;
pub mod synth;

pub use model::{BandwidthTrace, Sample, TraceError};
pub use study::{BandwidthStudy, Region, StudyHost};
pub use synth::SynthParams;
