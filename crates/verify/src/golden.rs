//! Golden digest fixtures.
//!
//! A handful of small scenarios whose audit-log and result digests are
//! pinned under `tests/golden/digests.txt`. Any drift means the engine's
//! observable behaviour changed — either a real regression (most often
//! accidental nondeterminism) or an intentional change that must be
//! acknowledged by regenerating the fixture with
//! `wadc verify --print-golden`.

use wadc_core::engine::config::MobilityMode;
use wadc_core::engine::{Algorithm, RunResult};
use wadc_core::experiment::Experiment;
use wadc_core::knowledge::KnowledgeMode;
use wadc_net::faults::FaultPlan;
use wadc_plan::ids::HostId;
use wadc_sim::time::{SimDuration, SimTime};

use crate::determinism::RunDigests;

/// One pinned scenario: an algorithm run on a world.
pub struct GoldenCase {
    /// Stable fixture key.
    pub name: &'static str,
    world: fn() -> Experiment,
    algorithm: Algorithm,
}

impl GoldenCase {
    /// Runs the scenario.
    pub fn run(&self) -> RunResult {
        (self.world)().run(self.algorithm)
    }
}

fn case(name: &'static str, world: fn() -> Experiment, algorithm: Algorithm) -> GoldenCase {
    GoldenCase {
        name,
        world,
        algorithm,
    }
}

fn global(secs: u64) -> Algorithm {
    Algorithm::Global {
        period: SimDuration::from_secs(secs),
    }
}

fn local(secs: u64) -> Algorithm {
    Algorithm::Local {
        period: SimDuration::from_secs(secs),
        extra_candidates: 0,
    }
}

/// `Experiment::quick(4, seed)` under the fault plan `faults`.
fn quick4_faulty(seed: u64, faults: FaultPlan) -> Experiment {
    let mut exp = Experiment::quick(4, seed);
    exp.template_mut().faults = faults;
    exp
}

/// Server host 1 crashes for good at t = 5 s.
fn host1_crash() -> FaultPlan {
    FaultPlan::none().crash(HostId::new(1), SimTime::from_secs(5))
}

/// `exp` on mobile objects: a move to a host the code has not yet
/// visited ships the code package too.
fn mobile_objects(mut exp: Experiment) -> Experiment {
    exp.template_mut().mobility = MobilityMode::MobileObjects;
    exp
}

/// The pinned scenarios: every placement algorithm on a quick world, one
/// larger world to exercise a different trace assignment, one case per
/// engine path clean monitored runs never take (forecast knowledge,
/// message loss, failed moves, crash failover under both on-line
/// algorithms, and relocations and a respawn that ship the code package
/// on mobile objects), then every placement algorithm on the paper-WAN
/// topology quick world plus one cell under gauged knowledge, which pin
/// the fair-share model on shared links.
pub fn golden_cases() -> Vec<GoldenCase> {
    fn quick4() -> Experiment {
        Experiment::quick(4, 11)
    }
    fn topo4() -> Experiment {
        Experiment::quick_topo(4, 11)
    }
    vec![
        case("quick4-download-all", quick4, Algorithm::DownloadAll),
        case("quick4-one-shot", quick4, Algorithm::OneShot),
        case("quick4-global-30s", quick4, global(30)),
        case("quick4-local-30s", quick4, local(30)),
        case("quick6-global-60s", || Experiment::quick(6, 23), global(60)),
        case(
            "quick4-global-5s-forecast",
            || quick4().with_knowledge(KnowledgeMode::Forecast),
            global(5),
        ),
        case(
            "quick4-local-5s-loss",
            || quick4_faulty(42, FaultPlan::none().with_loss(0.1)),
            local(5),
        ),
        case(
            "quick4-global-5s-move-failure",
            || quick4_faulty(42, FaultPlan::none().with_move_failure(1.0)),
            global(5),
        ),
        // Host 1 is declared dead and an operator respawned; the local
        // run then stalls at 4 of 8 images (a respawned consumer
        // re-demands an iteration its producer no longer holds) and is
        // pinned as it behaves today.
        case(
            "quick4-global-30s-crash",
            || quick4_faulty(12, host1_crash()),
            global(30),
        ),
        case(
            "quick4-local-30s-crash",
            || quick4_faulty(23, host1_crash()),
            local(30),
        ),
        case(
            "quick4-global-5s-mobile-objects",
            || mobile_objects(Experiment::quick(4, 42)),
            global(5),
        ),
        case(
            "quick4-global-30s-crash-mobile-objects",
            || mobile_objects(quick4_faulty(12, host1_crash())),
            global(30),
        ),
        // The paper-WAN quick world finishes in ~13 simulated seconds (its
        // access links are 4-8x the flat pool), so the adaptive cases use
        // a 5 s period to pin actual replanning, not just the initial
        // placement.
        case("topo4-download-all", topo4, Algorithm::DownloadAll),
        case("topo4-one-shot", topo4, Algorithm::OneShot),
        case("topo4-global-5s", topo4, global(5)),
        case("topo4-local-5s", topo4, local(5)),
        case(
            "topo4-global-5s-gauged",
            || topo4().with_knowledge(KnowledgeMode::Gauged),
            global(5),
        ),
    ]
}

/// Renders the current digests of every golden case in fixture format:
/// one `name audit=<hex16> result=<hex16>` line per case.
pub fn render_fixture() -> String {
    let mut out = String::from(
        "# Golden run digests — regenerate with `wadc verify --print-golden`.\n\
         # Any drift here means the engine's observable behaviour changed.\n",
    );
    for case in golden_cases() {
        let d = RunDigests::of(&case.run());
        out.push_str(&format!("{} {d}\n", case.name));
    }
    out
}

/// Compares the current digests of every golden case against `fixture`
/// (the contents of `tests/golden/digests.txt`) and returns one message
/// per mismatch, missing entry, or stale entry.
pub fn compare_fixture(fixture: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut pinned = std::collections::HashMap::new();
    for line in fixture.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(name), Some(audit), Some(result)) => {
                pinned.insert(name.to_string(), format!("{audit} {result}"));
            }
            _ => failures.push(format!("unparseable fixture line: {line:?}")),
        }
    }
    for case in golden_cases() {
        let current = RunDigests::of(&case.run()).to_string();
        match pinned.remove(case.name) {
            None => failures.push(format!(
                "{}: no pinned digests (regenerate the fixture)",
                case.name
            )),
            Some(want) if want != current => failures.push(format!(
                "{}: digest drift — pinned {want}, current {current}",
                case.name
            )),
            Some(_) => {}
        }
    }
    for stale in pinned.keys() {
        failures.push(format!("{stale}: pinned but no longer a golden case"));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_round_trips() {
        let fixture = render_fixture();
        let failures = compare_fixture(&fixture);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn topo_fixture_round_trips() {
        // The five paper-WAN topology cases render into the one fixture,
        // and their lines alone satisfy them: compared against just those
        // lines, only the flat-pool cases lack a pinned entry.
        let fixture = render_fixture();
        let topo: String = fixture
            .lines()
            .filter(|line| line.starts_with("topo4-"))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(topo.lines().count(), 5, "{fixture}");
        let failures = compare_fixture(&topo);
        let flat: Vec<_> = golden_cases()
            .into_iter()
            .map(|case| case.name)
            .filter(|name| !name.starts_with("topo4-"))
            .collect();
        assert_eq!(failures.len(), flat.len(), "{failures:?}");
        for (failure, name) in failures.iter().zip(&flat) {
            assert_eq!(
                failure,
                &format!("{name}: no pinned digests (regenerate the fixture)")
            );
        }
    }

    #[test]
    fn detects_drift_and_staleness() {
        let mut fixture = render_fixture();
        fixture = fixture.replacen("audit=", "audit=f", 1);
        fixture.push_str("retired-case audit=0000000000000000 result=0000000000000000\n");
        let failures = compare_fixture(&fixture);
        assert!(failures.iter().any(|f| f.contains("digest drift")));
        assert!(failures
            .iter()
            .any(|f| f.contains("no longer a golden case")));
    }
}
