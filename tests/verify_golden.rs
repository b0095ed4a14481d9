//! Tier-1 gate for the verification subsystem: golden digest fixtures,
//! the determinism acceptance criterion, and the differential suite.

use wadc::core::engine::Algorithm;
use wadc::core::experiment::Experiment;
use wadc::sim::time::SimDuration;
use wadc::verify::determinism::check_conformance;
use wadc::verify::differential::{run_suite, suite_algorithms};
use wadc::verify::golden;
use wadc::verify::invariants::assert_clean;

/// The same fixture `wadc verify` embeds.
const GOLDEN_FIXTURE: &str = include_str!("golden/digests.txt");

#[test]
fn golden_digests_have_not_drifted() {
    let failures = golden::compare_fixture(GOLDEN_FIXTURE);
    assert!(
        failures.is_empty(),
        "golden digest drift (acknowledge intentional changes with \
         `wadc verify --print-golden > tests/golden/digests.txt`):\n{}",
        failures.join("\n")
    );
}

#[test]
fn topo_golden_digests_have_not_drifted() {
    // The paper-WAN topology cases, the only pinned runs on shared
    // fair-share links, checked on their own lines of the one fixture so
    // that their drift is reported apart from the flat-pool cases'.
    let topo: String = GOLDEN_FIXTURE
        .lines()
        .filter(|line| line.starts_with("topo4-"))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(
        topo.lines().count(),
        5,
        "the fixture pins five topo4-* cases"
    );
    let failures: Vec<_> = golden::compare_fixture(&topo)
        .into_iter()
        .filter(|failure| {
            failure.starts_with("topo4-")
                || !failure.ends_with(": no pinned digests (regenerate the fixture)")
        })
        .collect();
    assert!(
        failures.is_empty(),
        "topology golden digest drift (acknowledge intentional changes with \
         `wadc verify --print-golden > tests/golden/digests.txt`):\n{}",
        failures.join("\n")
    );
}

#[test]
fn identical_seed_and_config_give_identical_digests() {
    // The acceptance criterion, word for word: two runs of `Experiment`
    // with identical `(seed, config)` produce identical audit-log digests.
    let exp = Experiment::quick(8, 1998);
    for algorithm in [
        Algorithm::DownloadAll,
        Algorithm::OneShot,
        Algorithm::Global {
            period: SimDuration::from_secs(60),
        },
        Algorithm::Local {
            period: SimDuration::from_secs(60),
            extra_candidates: 1,
        },
    ] {
        let (_, digests) = check_conformance(&exp, algorithm)
            .unwrap_or_else(|e| panic!("nondeterministic run: {e}"));
        // A rebuilt experiment with the same (seed, config) also agrees.
        let rebuilt = Experiment::quick(8, 1998).run(algorithm);
        assert_eq!(
            rebuilt.audit.digest(),
            digests.audit,
            "{}: rebuilt experiment diverged",
            algorithm.name()
        );
    }
}

#[test]
fn differential_suite_passes_for_all_three_algorithms() {
    let failures = run_suite(42);
    assert!(
        failures.is_empty(),
        "differential/metamorphic failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn quick_world_runs_satisfy_every_invariant() {
    let exp = Experiment::quick(4, 7);
    for algorithm in suite_algorithms() {
        let mut cfg = exp.template().clone();
        cfg.algorithm = algorithm;
        let result = exp.run(algorithm);
        assert_clean(&cfg, &result);
    }
}
