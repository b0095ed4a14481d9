//! Layer 2: the conformance check every verification suite runs.
//!
//! The engine promises that a run is a pure function of `(seed, config,
//! links)` and that its audit log obeys the protocol rules.
//! [`check_conformance`] enforces both: it runs the same experiment twice,
//! demands bit-identical audit-log and result digests, and replays the
//! run through the invariant checker. The golden fixtures under
//! `tests/golden/` extend the determinism half across commits.

use wadc_core::engine::{Algorithm, RunResult};
use wadc_core::experiment::Experiment;

use crate::invariants::check_run;

/// The two digests that pin down a run: the audit log alone, and the full
/// result (arrivals, counters, network statistics, audit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigests {
    /// [`wadc_core::engine::AuditLog::digest`].
    pub audit: u64,
    /// [`RunResult::digest`].
    pub result: u64,
}

impl RunDigests {
    /// Extracts both digests from a finished run.
    pub fn of(result: &RunResult) -> Self {
        RunDigests {
            audit: result.audit.digest(),
            result: result.digest(),
        }
    }
}

impl std::fmt::Display for RunDigests {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit={:016x} result={:016x}", self.audit, self.result)
    }
}

/// Runs `algorithm` twice against `exp`, demands bit-identical digests,
/// and checks the first run against every protocol invariant under the
/// template's configuration. Returns that run and its digests.
///
/// # Errors
///
/// Returns the two digests if the runs diverge, then every invariant
/// violation of the first run, one per line.
pub fn check_conformance(
    exp: &Experiment,
    algorithm: Algorithm,
) -> Result<(RunResult, RunDigests), String> {
    let first = exp.run(algorithm);
    let digests = RunDigests::of(&first);
    let second = RunDigests::of(&exp.run(algorithm));
    let mut cfg = exp.template().clone();
    cfg.algorithm = algorithm;
    let violations = check_run(&cfg, &first);
    let mut errors = Vec::new();
    if digests != second {
        errors.push(format!(
            "identical (seed, config) diverged: first {digests}, second {second}"
        ));
    }
    if !violations.is_empty() {
        errors.push(format!("{} invariant violation(s):", violations.len()));
        errors.extend(violations.iter().map(|v| format!("  - {v}")));
    }
    if errors.is_empty() {
        Ok((first, digests))
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_sim::time::SimDuration;

    #[test]
    fn quick_world_is_deterministic_for_every_algorithm() {
        let exp = Experiment::quick(4, 42);
        for alg in [
            Algorithm::DownloadAll,
            Algorithm::OneShot,
            Algorithm::Global {
                period: SimDuration::from_secs(30),
            },
            Algorithm::Local {
                period: SimDuration::from_secs(30),
                extra_candidates: 0,
            },
        ] {
            check_conformance(&exp, alg).unwrap();
        }
    }

    #[test]
    fn different_seeds_change_the_digest() {
        let (_, a) = check_conformance(&Experiment::quick(4, 1), Algorithm::OneShot).unwrap();
        let (_, b) = check_conformance(&Experiment::quick(4, 2), Algorithm::OneShot).unwrap();
        assert_ne!(a.result, b.result);
    }
}
