//! # wadc-app — the satellite-image composition workload
//!
//! The paper evaluates its placement algorithms on "composition of
//! satellite images from geographically distributed sites", modelled on
//! the NASA Goddard AVHRR Pathfinder processing of NOAA satellite data.
//! This crate implements that application:
//!
//! - [`image`] — images, the paper's measured size distribution
//!   (Normal(128 KB, 25%)), synthetic pixel generation,
//! - [`mod@compose`] — pairwise pixel-select composition with expansion of the
//!   smaller image, and the 7 µs/pixel cost model,
//! - [`workload`] — the experiment workload: 180-image sequences per
//!   server, deterministically seeded.
//!
//! # Examples
//!
//! ```
//! use wadc_app::compose::{compose, SelectRule};
//! use wadc_app::image::{Image, ImageDims};
//!
//! let pass1 = Image::synthetic(ImageDims::new(64, 48), 1);
//! let pass2 = Image::synthetic(ImageDims::new(32, 24), 2);
//! let composite = compose(&pass1, &pass2, SelectRule::Max);
//! assert_eq!(composite.dims(), pass1.dims()); // larger image wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod image;
pub mod workload;

pub use compose::{compose, compose_secs, expand, SelectRule, PAPER_SECS_PER_PIXEL};
pub use image::{Image, ImageDims, SizeDistribution};
pub use workload::{ServerWorkload, Workload, WorkloadParams};
