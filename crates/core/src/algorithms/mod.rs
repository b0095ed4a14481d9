//! The placement algorithms (paper §2).
//!
//! - [`one_shot`] — the startup-time search (also the global algorithm's
//!   re-planning procedure),
//! - [`local_step`] — the local algorithm's per-operator decision.
//!
//! The trivial fourth strategy, download-all, is
//! [`wadc_plan::placement::Placement::download_all`]. The *runtime* parts
//! of the on-line algorithms (barrier change-over, epoch wavefront) live in
//! [`crate::engine`].

pub mod local_step;
pub mod one_shot;

pub use local_step::{best_local_site, local_path_cost, LocalContext, LocalDecision};
pub use one_shot::{improve_placement, one_shot_placement, Objective, SearchResult, SearchScratch};
