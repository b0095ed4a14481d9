//! Layer 4: the chaos suite — invariants and determinism under injected
//! faults.
//!
//! The fault-injection subsystem ([`wadc_net::faults`]) promises that a
//! faulty run is still a *valid* run: every protocol invariant the clean
//! suite checks must also hold when messages are lost, links go dark, or
//! operator moves fail — only the fault-specific bookkeeping events
//! (losses, rollbacks, barrier aborts) are added. It also promises that a
//! fault plan is part of the deterministic input: the same `(seed, config,
//! plan)` must reproduce the same run bit for bit.
//!
//! [`run_chaos_suite`] drives a small scenario matrix — message loss, a
//! finite link outage, a host blackout, failing operator moves, permanent
//! host crashes (a lone server, a cascading pair, and the client/planner
//! itself), and the transient classes combined — across all four placement
//! algorithms on the quick world, running each cell twice (determinism)
//! and through the full invariant checker. A run need not *complete*
//! under faults (a collapsed network ends at the safety cap, a crashed
//! client aborts the run), but it must never wedge: every cell terminates
//! with an explicit [`wadc_core::engine::RunOutcome`], and whatever audit
//! trail it leaves must conform.

use wadc_core::engine::{Algorithm, RunOutcome};
use wadc_core::experiment::Experiment;
use wadc_core::sweep::SweepDriver;
use wadc_net::faults::FaultPlan;
use wadc_net::topo::expand_backbone_outage;
use wadc_plan::ids::HostId;
use wadc_sim::time::{SimDuration, SimTime};

use crate::determinism::{check_conformance, RunDigests};
use crate::worlds::all_algorithms;

/// One cell of the chaos matrix: a named fault plan run under one
/// algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// The scenario's name (e.g. `"loss"`, `"blackout"`).
    pub scenario: &'static str,
    /// The algorithm it ran under.
    pub algorithm: &'static str,
    /// Whether the workload finished before the safety cap.
    pub completed: bool,
    /// The run's explicit liveness verdict.
    pub outcome: RunOutcome,
    /// Hosts the failure detector declared dead.
    pub deaths: u32,
    /// Messages fault injection destroyed.
    pub dropped: u64,
    /// Messages the engine resent.
    pub retransmits: u64,
    /// The (reproduced) run digests.
    pub digests: RunDigests,
}

impl std::fmt::Display for ChaosOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<14} {:<12} {:<9} deaths={:<2} dropped={:<4} retransmits={:<4} {}",
            self.scenario,
            self.algorithm,
            self.outcome.name(),
            self.deaths,
            self.dropped,
            self.retransmits,
            self.digests
        )
    }
}

/// How a scenario's faults are specified: a literal plan on the flat
/// per-pair quick world, or a named-backbone outage on the paper-WAN
/// topology world, expanded at cell-build time to cover every host pair
/// routed over that backbone.
#[derive(Debug, Clone)]
enum Fault {
    /// A literal plan on [`Experiment::quick`].
    Flat(FaultPlan),
    /// An outage of one named backbone link on [`Experiment::quick_topo`].
    Backbone {
        link: &'static str,
        from: SimTime,
        until: SimTime,
    },
}

/// The scenario matrix: every fault class alone, then combined. Host
/// indices are `0..n_servers` for the servers and `n_servers` for the
/// client, so crash rows can target the planner explicitly.
fn scenarios(n_servers: usize) -> Vec<(&'static str, Fault)> {
    let flat = vec![
        (
            "loss",
            FaultPlan::none().with_loss(0.1).with_probe_blackhole(0.1),
        ),
        (
            "outage",
            // One link dark for two minutes mid-run.
            FaultPlan::none().outage(
                HostId::new(0),
                HostId::new(1),
                SimTime::from_secs(30),
                SimTime::from_secs(150),
            ),
        ),
        (
            "blackout",
            // A server host unreachable for a minute.
            FaultPlan::none().blackout(
                HostId::new(2),
                SimTime::from_secs(20),
                SimTime::from_secs(80),
            ),
        ),
        ("move-failure", FaultPlan::none().with_move_failure(1.0)),
        (
            // One server dies for good early in the run (t = 5 s is
            // mid-iteration-2 of 8 on the quick world, so the host still
            // owes data and the detector has traffic to observe).
            "crash",
            FaultPlan::none().crash(HostId::new(1), SimTime::from_secs(5)),
        ),
        (
            // Cascading pair: a second host dies while failover from the
            // first is (potentially) still in progress.
            "double-crash",
            FaultPlan::none()
                .crash(HostId::new(1), SimTime::from_secs(5))
                .crash(HostId::new(2), SimTime::from_secs(60)),
        ),
        (
            // The client host — and with it the planner — dies. The run
            // must abort explicitly rather than wedge.
            "planner-crash",
            FaultPlan::none().crash(HostId::new(n_servers), SimTime::from_secs(10)),
        ),
        (
            "combined",
            FaultPlan::none()
                .with_loss(0.05)
                .with_probe_blackhole(0.2)
                .with_move_failure(0.5)
                .blackout(
                    HostId::new(1),
                    SimTime::from_secs(40),
                    SimTime::from_secs(100),
                )
                .with_random_outages(3, SimDuration::from_secs(45), SimDuration::from_secs(600)),
        ),
    ];
    let mut rows: Vec<(&'static str, Fault)> = flat
        .into_iter()
        .map(|(name, plan)| (name, Fault::Flat(plan)))
        .collect();
    rows.push((
        // Shared-link congestion: the transatlantic backbone of the
        // paper-WAN topology goes dark mid-run, degrading every host
        // pair routed over it at once — the failure mode a per-pair
        // link table cannot express.
        "backbone-congestion",
        Fault::Backbone {
            link: "transatlantic",
            from: SimTime::from_secs(30),
            until: SimTime::from_secs(150),
        },
    ));
    rows
}

/// Runs one cell of the matrix from scratch: builds the quick world,
/// applies the plan, runs the algorithm twice, checks determinism and
/// invariants. Every cell is a pure function of `(n_servers, seed,
/// scenario, algorithm)`, which is what lets the sweep driver run cells
/// in any order on any thread.
fn run_cell(
    n_servers: usize,
    seed: u64,
    scenario: &'static str,
    fault: &Fault,
    algorithm: Algorithm,
) -> Result<ChaosOutcome, String> {
    let mut exp = match fault {
        Fault::Flat(_) => Experiment::quick(n_servers, seed),
        Fault::Backbone { .. } => Experiment::quick_topo(n_servers, seed),
    };
    let plan = match fault {
        Fault::Flat(plan) => plan.clone(),
        Fault::Backbone { link, from, until } => {
            let topo = exp.topology().expect("quick_topo sets a topology").clone();
            expand_backbone_outage(FaultPlan::none(), &topo, link, *from, *until)
        }
    };
    exp.template_mut().faults = plan;
    let (run, digests) = check_conformance(&exp, algorithm)
        .map_err(|e| format!("chaos[{scenario}/{}]: {e}", algorithm.name()))?;
    Ok(ChaosOutcome {
        scenario,
        algorithm: algorithm.name(),
        completed: run.completed,
        outcome: run.outcome,
        deaths: run.hosts_declared_dead,
        dropped: run.net_stats.dropped,
        retransmits: run.net_stats.retransmits,
        digests,
    })
}

/// Runs the full chaos matrix on a [`SweepDriver`] and returns one
/// outcome per cell: the 36 scenario × algorithm cells are sharded across
/// `threads` OS threads and merged in cell order, so the outcome vector —
/// including which failing cell is reported first — is the same for every
/// thread count.
///
/// # Errors
///
/// Returns the lowest-indexed cell that diverges between two identical
/// runs or breaks a protocol invariant.
pub fn run_chaos_suite(
    n_servers: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<ChaosOutcome>, String> {
    let cells: Vec<(&'static str, Fault, Algorithm)> = scenarios(n_servers)
        .into_iter()
        .flat_map(|(scenario, fault)| {
            all_algorithms()
                .into_iter()
                .map(move |algorithm| (scenario, fault.clone(), algorithm))
        })
        .collect();
    SweepDriver::new(threads)
        .sweep(
            cells.len(),
            |_worker| (),
            |(), i| {
                let (scenario, fault, algorithm) = &cells[i];
                run_cell(n_servers, seed, scenario, fault, *algorithm)
            },
        )
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_conforms_and_reproduces() {
        let outcomes = run_chaos_suite(4, 42, 1).unwrap();
        assert_eq!(outcomes.len(), scenarios(4).len() * all_algorithms().len());
        // The loss scenario must actually exercise the machinery: with 10%
        // loss on every class something gets dropped, and every dropped
        // non-probe message gets resent.
        let lossy: Vec<_> = outcomes.iter().filter(|o| o.scenario == "loss").collect();
        assert!(lossy.iter().any(|o| o.dropped > 0), "loss never dropped");
        assert!(
            lossy.iter().any(|o| o.retransmits > 0),
            "loss never retransmitted"
        );
        // Crash rows never claim a clean completion: the dead host owed
        // data, so the best possible end state is Degraded.
        for o in outcomes.iter().filter(|o| o.scenario.contains("crash")) {
            assert_ne!(
                o.outcome,
                RunOutcome::Completed,
                "{}/{} completed cleanly despite a crash",
                o.scenario,
                o.algorithm
            );
        }
        // The single-server crash is actually *detected* somewhere in the
        // matrix (the global algorithm's periodic retry traffic gives the
        // detector evidence even when the workload has gone quiet).
        assert!(
            outcomes
                .iter()
                .any(|o| o.scenario == "crash" && o.deaths > 0),
            "no algorithm ever declared the crashed host dead"
        );
        // Killing the planner's host aborts rather than wedges.
        assert!(
            outcomes
                .iter()
                .any(|o| o.scenario == "planner-crash" && o.outcome == RunOutcome::Aborted),
            "client crash never aborted a run"
        );
    }

    #[test]
    fn backbone_congestion_degrades_every_algorithm() {
        // The congestion row must actually bite: under every algorithm,
        // the run with the transatlantic backbone dark differs from the
        // clean topology run — a blackout of a shared link perturbs all
        // pairs routed over it, so no placement fully escapes it.
        let outcomes = run_chaos_suite(4, 42, 1).unwrap();
        let congested: Vec<_> = outcomes
            .iter()
            .filter(|o| o.scenario == "backbone-congestion")
            .collect();
        assert_eq!(congested.len(), 4);
        let clean = Experiment::quick_topo(4, 42);
        for (o, alg) in congested.iter().zip(all_algorithms()) {
            let baseline = clean.run(alg);
            assert_ne!(
                o.digests,
                RunDigests::of(&baseline),
                "{}: backbone outage did not perturb the run",
                o.algorithm
            );
        }
        // Download-all cannot adapt: a dark backbone in the middle of
        // its downloads strictly delays completion.
        let da = &congested[0];
        assert_eq!(da.algorithm, "download-all");
        let clean_da = clean.run(Algorithm::DownloadAll);
        assert!(clean_da.completed);
    }

    #[test]
    fn faulty_runs_differ_from_clean_runs() {
        let exp = Experiment::quick(4, 42);
        let clean = exp.run(Algorithm::OneShot);
        let mut faulty_exp = Experiment::quick(4, 42);
        faulty_exp.template_mut().faults = FaultPlan::none().with_loss(0.2);
        let faulty = faulty_exp.run(Algorithm::OneShot);
        assert!(faulty.net_stats.dropped > 0, "20% loss dropped nothing");
        assert_ne!(clean.digest(), faulty.digest());
    }

    #[test]
    fn empty_fault_plan_is_a_no_op() {
        let clean = Experiment::quick(4, 7).run(Algorithm::OneShot);
        let mut gated = Experiment::quick(4, 7);
        gated.template_mut().faults = FaultPlan::none();
        let second = gated.run(Algorithm::OneShot);
        assert_eq!(clean.digest(), second.digest());
        assert_eq!(clean.audit.digest(), second.audit.digest());
    }
}
