//! Conformance, determinism and differential testing for the simulation
//! engine.
//!
//! The simulator makes claims — the barrier change-over is ordered, light
//! moves happen only between output dispatch and the next demand, runs are
//! reproducible — and this crate checks them *from the outside*, consuming
//! only what a run already exposes ([`wadc_core::engine::RunResult`] and
//! its audit log). Its modules:
//!
//! - [`invariants`] — a checker that replays a run's audit log and network
//!   statistics against the protocol rules: monotone event times, barrier
//!   ordering (propose → every server suspends → commit), single residency
//!   per operator, relocation timing bounds, and byte conservation across
//!   links.
//! - [`determinism`] — [`check_conformance`], the one check every suite
//!   runs: the same `(seed, config)` twice with bit-identical digests,
//!   and the run clean under the invariant checker; [`golden`] pins a set
//!   of scenarios to fixture digests under `tests/golden/` so drift is
//!   caught across commits, not just within one process.
//! - [`differential`] — metamorphic relations that need no oracle: host
//!   relabeling permutes nothing observable, a local algorithm with an
//!   infinite adaptation period degenerates to one-shot, constant-bandwidth
//!   worlds agree with the analytic cost model, and scaling every link by
//!   `k` speeds network-bound runs by about `k`. The measured checks
//!   return the ratio they compared, which the `calibrate` example prints.
//! - [`chaos`] — the same invariants and determinism demands under
//!   injected faults ([`wadc_net::faults`]): a matrix of message loss,
//!   link outages, host blackouts, permanent host crashes and failing
//!   operator moves across all four algorithms
//!   ([`worlds::all_algorithms`]), each cell through
//!   [`check_conformance`].
//! - [`soak`] — the chaos matrix at scale: seed-derived *random* fault
//!   plans by the hundreds on the sweep driver, every run demanded to
//!   terminate with an explicit outcome and pass [`check_conformance`] —
//!   plus a deterministic fault-plan shrinker
//!   that reduces any failing plan to a minimal reproduction.
//!
//! The `wadc verify` subcommand drives the golden fixtures, the
//! conformance check on the quick and paper-WAN worlds, the differential
//! suite and the chaos matrix from the command line; `--quick` skips the
//! last two (the CI gate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod determinism;
pub mod differential;
pub mod golden;
pub mod invariants;
pub mod soak;
pub mod worlds;

pub use chaos::{run_chaos_suite, ChaosOutcome};
pub use determinism::{check_conformance, RunDigests};
pub use invariants::{assert_clean, check_run, Violation};
pub use soak::{run_soak, shrink_plan, SoakFailure, SoakReport};
