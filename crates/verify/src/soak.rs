//! Layer 5: the chaos soak — randomized fault plans at scale, plus a
//! deterministic fault-plan shrinker for minimal reproductions.
//!
//! Where the chaos matrix ([`crate::chaos`]) runs a handful of
//! hand-picked scenarios, the soak generates an arbitrary number of
//! *random* fault plans — transient loss, outages, blackouts, and
//! permanent host crashes, all rolled from a seed — and pushes every one
//! through the same gauntlet: the plan must validate eagerly, the run
//! must reproduce bit for bit, every protocol invariant must hold, and
//! the run must end in an explicit [`RunOutcome`]. Plans are a pure
//! function of `(base_seed, index)`, so a soak is reproducible and
//! shardable across threads on the sweep driver.
//!
//! When a plan breaks the gauntlet, [`shrink_plan`] reduces it: drop
//! events, zero probabilities, shorten windows, and retarget hosts — in
//! a fixed greedy order, re-checking the failure after each candidate —
//! until no smaller plan still reproduces it. The minimal plan plus the
//! seed is the whole bug report.

use wadc_core::engine::{Algorithm, RunOutcome};
use wadc_core::experiment::Experiment;
use wadc_core::sweep::SweepDriver;
use wadc_net::faults::FaultPlan;
use wadc_plan::ids::HostId;
use wadc_sim::rng::{derive_seed2, Rng64};
use wadc_sim::time::{SimDuration, SimTime};

use crate::determinism::check_conformance;

/// Seed stream for soak plan generation (disjoint from the engine's
/// streams, which derive from the *run* seed, not the soak seed).
const SOAK_STREAM: u64 = 0x50_41_4b;

/// How one soak run ended, with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakFailure {
    /// Index of the plan in the soak sequence.
    pub index: usize,
    /// The seed the plan was generated from.
    pub plan_seed: u64,
    /// The offending plan — shrunk to a minimal reproduction when the
    /// soak was asked to shrink, verbatim otherwise.
    pub plan: FaultPlan,
    /// The algorithm the failing cell ran under.
    pub algorithm: &'static str,
    /// Whether the cell ran on the shared-bottleneck topology world
    /// instead of the flat per-pair quick world.
    pub topo: bool,
    /// What broke: a validation error, a digest divergence, or the
    /// rendered invariant violations.
    pub error: String,
}

impl std::fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "soak plan #{} (seed {:#018x}, {}{}): {}\nreproducing plan: {:?}",
            self.index,
            self.plan_seed,
            self.algorithm,
            if self.topo { ", topology world" } else { "" },
            self.error,
            self.plan
        )
    }
}

/// Tally of a finished soak: every run terminated, split by outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoakReport {
    /// Plans run.
    pub runs: usize,
    /// Runs that finished the whole workload cleanly.
    pub completed: usize,
    /// Runs that survived in degraded form (host deaths, partial data,
    /// or the safety cap).
    pub degraded: usize,
    /// Runs the engine deliberately aborted (client death, total
    /// collapse).
    pub aborted: usize,
    /// Order-sensitive fold of every run digest: two soaks agree on this
    /// iff they agree on every run, regardless of thread count.
    pub digest: u64,
}

impl std::fmt::Display for SoakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} plans: {} completed, {} degraded, {} aborted | digest {:016x}",
            self.runs, self.completed, self.degraded, self.aborted, self.digest
        )
    }
}

/// Generates the `index`-th random fault plan of a soak.
///
/// Plans mix transient faults (loss, probe black-holes, move failures,
/// outages, blackouts) with up to two permanent host crashes — client
/// included, so planner death is exercised. Event times concentrate in
/// the first simulated minute, where the quick world actually has
/// traffic in flight; a fault scheduled after the last image lands is a
/// no-op. Every plan passes [`FaultPlan::validate_for_hosts`] by
/// construction.
pub fn random_plan(base_seed: u64, index: usize, n_hosts: usize) -> FaultPlan {
    let mut rng = Rng64::seed_from_u64(derive_seed2(base_seed, SOAK_STREAM, index as u64));
    let mut plan = FaultPlan::none();
    if rng.bool_with(0.5) {
        plan = plan.with_loss(rng.range_f64(0.01, 0.15));
    }
    if rng.bool_with(0.3) {
        plan = plan.with_probe_blackhole(rng.range_f64(0.05, 0.4));
    }
    if rng.bool_with(0.3) {
        plan = plan.with_move_failure(rng.range_f64(0.1, 0.8));
    }
    for _ in 0..rng.range_usize(3) {
        let a = rng.range_usize(n_hosts);
        let b = rng.range_usize(n_hosts);
        if a == b {
            continue;
        }
        let from = SimTime::from_micros(rng.range_u64(1_000_000, 40_000_000));
        let until = from + SimDuration::from_micros(rng.range_u64(5_000_000, 60_000_000));
        plan = plan.outage(HostId::new(a), HostId::new(b), from, until);
    }
    if rng.bool_with(0.3) {
        let host = HostId::new(rng.range_usize(n_hosts));
        let from = SimTime::from_micros(rng.range_u64(1_000_000, 30_000_000));
        let until = from + SimDuration::from_micros(rng.range_u64(5_000_000, 45_000_000));
        plan = plan.blackout(host, from, until);
    }
    for _ in 0..rng.range_usize(3) {
        let host = HostId::new(rng.range_usize(n_hosts));
        let at = SimTime::from_micros(rng.range_u64(1_000_000, 45_000_000));
        plan = plan.crash(host, at);
    }
    if rng.bool_with(0.2) {
        plan = plan.with_random_outages(
            1 + rng.range_usize(3),
            SimDuration::from_secs(rng.range_u64(10, 45)),
            SimDuration::from_mins(2),
        );
    }
    plan
}

/// Whether the `index`-th soak plan runs on the shared-bottleneck
/// topology world: every fifth plan rides the paper-WAN topology, so the
/// fair-share model faces the same random loss/outage/crash gauntlet as
/// the flat per-pair world. 5 is coprime to the 4-cycle of
/// [`soak_algorithm`], so over any 20 consecutive plans every algorithm
/// sees the topology world.
fn soak_topology(index: usize) -> bool {
    index % 5 == 4
}

/// The algorithm the `index`-th soak plan runs under: the soak rotates
/// through all four so crash handling is exercised everywhere.
fn soak_algorithm(index: usize) -> Algorithm {
    let thirty = SimDuration::from_secs(30);
    match index % 4 {
        0 => Algorithm::Global { period: thirty },
        1 => Algorithm::DownloadAll,
        2 => Algorithm::Local {
            period: thirty,
            extra_candidates: 0,
        },
        _ => Algorithm::OneShot,
    }
}

/// Runs one soak cell: validate, run twice, compare digests, check every
/// invariant. Returns the outcome tag and the run digest on success.
fn run_soak_cell(
    n_servers: usize,
    seed: u64,
    plan: &FaultPlan,
    algorithm: Algorithm,
    topo: bool,
) -> Result<(RunOutcome, u64), String> {
    // n_servers servers plus the client in the canonical quick roster.
    plan.validate_for_hosts(n_servers + 1)
        .map_err(|e| format!("generated plan failed validation: {e}"))?;
    let mut exp = if topo {
        Experiment::quick_topo(n_servers, seed)
    } else {
        Experiment::quick(n_servers, seed)
    };
    exp.template_mut().faults = plan.clone();
    let (run, digests) = check_conformance(&exp, algorithm)?;
    Ok((run.outcome, digests.result ^ digests.audit.rotate_left(32)))
}

/// Runs `n_plans` random fault plans on the sweep driver and tallies the
/// outcomes. The report — including its digest — is identical for every
/// thread count.
///
/// # Errors
///
/// Returns the lowest-indexed failing plan. When `shrink` is set the
/// plan is first reduced to a minimal reproduction (re-running the cell
/// per candidate, so shrinking a failure costs more runs than the soak
/// itself — an investment made only once a bug exists).
pub fn run_soak(
    n_servers: usize,
    seed: u64,
    n_plans: usize,
    threads: usize,
    shrink: bool,
) -> Result<SoakReport, Box<SoakFailure>> {
    let cells = SweepDriver::new(threads).sweep(
        n_plans,
        |_worker| (),
        |(), i| {
            let plan = random_plan(seed, i, n_servers + 1);
            let algorithm = soak_algorithm(i);
            let topo = soak_topology(i);
            (
                i,
                plan.clone(),
                run_soak_cell(n_servers, seed, &plan, algorithm, topo),
            )
        },
    );
    let mut report = SoakReport::default();
    for (i, plan, cell) in cells {
        match cell {
            Ok((outcome, digest)) => {
                report.runs += 1;
                match outcome {
                    RunOutcome::Completed => report.completed += 1,
                    RunOutcome::Degraded => report.degraded += 1,
                    RunOutcome::Aborted => report.aborted += 1,
                }
                report.digest = report
                    .digest
                    .rotate_left(7)
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(digest);
            }
            Err(error) => {
                let algorithm = soak_algorithm(i);
                let topo = soak_topology(i);
                let minimal = if shrink {
                    shrink_plan(&plan, |candidate| {
                        run_soak_cell(n_servers, seed, candidate, algorithm, topo).is_err()
                    })
                } else {
                    plan
                };
                return Err(Box::new(SoakFailure {
                    index: i,
                    plan_seed: derive_seed2(seed, SOAK_STREAM, i as u64),
                    plan: minimal,
                    algorithm: algorithm.name(),
                    topo,
                    error,
                }));
            }
        }
    }
    Ok(report)
}

/// Greedily shrinks `plan` while `fails` still returns `true` for the
/// shrunk candidate.
///
/// Candidate moves, tried in a fixed order each round: drop one crash /
/// outage / blackout, drop the random-outage request, zero one
/// probability, halve one outage or blackout window, retarget one crash
/// or blackout to host 0. The first candidate that still fails is
/// adopted and the round restarts; the result is the fixed point — no
/// single move keeps the failure alive. Every move strictly shrinks the
/// plan (fewer events, smaller windows, lower host indices), so the
/// greedy loop always terminates, and with a deterministic `fails` the
/// result is a pure function of the input plan.
pub fn shrink_plan(plan: &FaultPlan, mut fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    debug_assert!(fails(plan), "shrinking a plan that does not reproduce");
    let mut current = plan.clone();
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&current) {
            if fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Every single-step simplification of `plan`, in the deterministic
/// order [`shrink_plan`] tries them.
fn shrink_candidates(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    for i in 0..plan.crashes.len() {
        let mut p = plan.clone();
        p.crashes.remove(i);
        out.push(p);
    }
    for i in 0..plan.outages.len() {
        let mut p = plan.clone();
        p.outages.remove(i);
        out.push(p);
    }
    for i in 0..plan.blackouts.len() {
        let mut p = plan.clone();
        p.blackouts.remove(i);
        out.push(p);
    }
    if plan.random_outages.is_some() {
        let mut p = plan.clone();
        p.random_outages = None;
        out.push(p);
    }
    for zero in [
        |p: &mut FaultPlan| p.loss = 0.0,
        |p: &mut FaultPlan| p.probe_blackhole = 0.0,
        |p: &mut FaultPlan| p.move_failure = 0.0,
    ] {
        let mut p = plan.clone();
        zero(&mut p);
        if p != *plan {
            out.push(p);
        }
    }
    for i in 0..plan.outages.len() {
        let o = &plan.outages[i];
        let half = SimDuration::from_micros(o.until.saturating_since(o.from).as_micros() / 2);
        if half.as_micros() >= 1_000_000 {
            let mut p = plan.clone();
            p.outages[i].until = o.from + half;
            out.push(p);
        }
    }
    for i in 0..plan.blackouts.len() {
        let b = &plan.blackouts[i];
        let half = SimDuration::from_micros(b.until.saturating_since(b.from).as_micros() / 2);
        if half.as_micros() >= 1_000_000 {
            let mut p = plan.clone();
            p.blackouts[i].until = b.from + half;
            out.push(p);
        }
    }
    for i in 0..plan.crashes.len() {
        if plan.crashes[i].host.index() > 0 {
            let mut p = plan.clone();
            p.crashes[i].host = HostId::new(0);
            out.push(p);
        }
    }
    for i in 0..plan.blackouts.len() {
        if plan.blackouts[i].host.index() > 0 {
            let mut p = plan.clone();
            p.blackouts[i].host = HostId::new(0);
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible_and_valid() {
        for i in 0..64 {
            let a = random_plan(1998, i, 5);
            let b = random_plan(1998, i, 5);
            assert_eq!(a, b, "plan #{i} is not a pure function of (seed, index)");
            a.validate_for_hosts(5)
                .unwrap_or_else(|e| panic!("plan #{i} invalid: {e}"));
        }
        // The generator actually produces crashes somewhere in a small
        // sample — the soak must exercise permanent death, not just
        // transient faults.
        assert!(
            (0..64).any(|i| !random_plan(1998, i, 5).crashes.is_empty()),
            "no generated plan ever crashes a host"
        );
    }

    #[test]
    fn small_soak_is_clean_and_thread_invariant() {
        let a = run_soak(4, 42, 8, 1, false).expect("soak found a real failure");
        let b = run_soak(4, 42, 8, 3, false).expect("soak found a real failure");
        assert_eq!(a, b, "soak report depends on thread count");
        assert_eq!(a.runs, 8);
        assert_eq!(a.completed + a.degraded + a.aborted, 8);
    }

    #[test]
    fn shrinker_reduces_to_the_minimal_reproduction() {
        // A synthetic failure predicate: the "bug" reproduces whenever
        // the plan crashes host 2. The shrinker must strip everything
        // else and keep exactly one crash (retargeting cannot apply:
        // moving the crash to host 0 stops the failure).
        let messy = random_plan(7, 3, 5)
            .crash(HostId::new(2), SimTime::from_secs(30))
            .crash(HostId::new(2), SimTime::from_secs(60))
            .with_loss(0.1)
            .blackout(
                HostId::new(1),
                SimTime::from_secs(10),
                SimTime::from_secs(90),
            );
        let fails = |p: &FaultPlan| p.crashes.iter().any(|c| c.host == HostId::new(2));
        let minimal = shrink_plan(&messy, fails);
        assert_eq!(minimal.crashes.len(), 1, "one crash suffices: {minimal:?}");
        assert_eq!(minimal.crashes[0].host, HostId::new(2));
        assert!(minimal.outages.is_empty());
        assert!(minimal.blackouts.is_empty());
        assert!(minimal.random_outages.is_none());
        assert_eq!(minimal.loss, 0.0);
        assert_eq!(minimal.probe_blackhole, 0.0);
        assert_eq!(minimal.move_failure, 0.0);
    }

    #[test]
    fn shrinker_is_deterministic() {
        let messy = random_plan(11, 5, 5).crash(HostId::new(1), SimTime::from_secs(20));
        let fails = |p: &FaultPlan| !p.crashes.is_empty();
        let a = shrink_plan(&messy, fails);
        let b = shrink_plan(&messy, fails);
        assert_eq!(a, b);
        // The fixed point of "any crash fails" is a single crash of
        // host 0 (retargeted) and nothing else.
        assert_eq!(a.crashes.len(), 1);
        assert_eq!(a.crashes[0].host, HostId::new(0));
        assert!(a.outages.is_empty() && a.blackouts.is_empty());
    }

    #[test]
    fn soak_surfaces_and_shrinks_an_injected_engine_bug() {
        // Sabotage one cell through the failure path end to end: claim
        // plan #0 "fails" by checking it against a tampered n_servers so
        // validation rejects out-of-range hosts. This exercises the
        // SoakFailure plumbing without needing a real engine bug.
        let plan = random_plan(1998, 0, 99).crash(HostId::new(42), SimTime::from_secs(9));
        let err = run_soak_cell(4, 42, &plan, Algorithm::OneShot, false)
            .expect_err("host 42 cannot be valid in a 5-host world");
        assert!(err.contains("validation"), "unexpected error: {err}");
    }

    #[test]
    fn soak_includes_topology_cells() {
        // Ten plans cover indices 4 and 9 — both topology cells — and the
        // report must stay clean and thread-count invariant with them in.
        assert!(soak_topology(4) && soak_topology(9));
        assert!(!soak_topology(0) && !soak_topology(3));
        let a = run_soak(4, 77, 10, 1, false).expect("topology soak failed");
        let b = run_soak(4, 77, 10, 2, false).expect("topology soak failed");
        assert_eq!(a, b);
        assert_eq!(a.runs, 10);
    }
}
