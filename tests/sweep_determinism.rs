//! The sweep fabric's determinism gate: a study swept across N worker
//! threads must be **byte-identical** to the sequential study — same
//! merged study digest, same per-config `RunResult` digests — for every
//! thread count, for all four algorithms, under fault plans, and with
//! observability recorders attached. Completion order, worker identity,
//! and the warmth of each worker's run arena must never leak into results.
//!
//! Extends the `parallel_equals_sequential` pattern of PR 5 from a single
//! run pair to the whole `SweepDriver` fabric.

use wadc::core::engine::Algorithm;
use wadc::core::experiment::Experiment;
use wadc::core::study::{run_study, run_study_parallel, StudyParams, StudyResults};
use wadc::core::sweep::SweepDriver;
use wadc::net::faults::FaultPlan;
use wadc::obs::Tracer;
use wadc::trace::study::BandwidthStudy;
use wadc::verify::chaos::run_chaos_suite;

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread counts every property sweeps: boundary (1), even/odd small
/// counts, a deliberately oversubscribed prime, and whatever this machine
/// actually has.
fn thread_counts() -> Vec<usize> {
    vec![1, 2, 3, 7, available_threads()]
}

fn assert_studies_identical(seq: &StudyResults, par: &StudyResults, label: &str) {
    assert_eq!(
        seq.digest(),
        par.digest(),
        "{label}: merged study digest diverged"
    );
    assert_eq!(seq.outcomes.len(), par.outcomes.len(), "{label}");
    for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
        assert_eq!(a.config, b.config, "{label}: merge order broke");
        assert_eq!(
            a.download_all.digest(),
            b.download_all.digest(),
            "{label}: download-all digest diverged at config {}",
            a.config
        );
        for (i, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
            assert_eq!(
                x.digest(),
                y.digest(),
                "{label}: algorithm {i} digest diverged at config {}",
                a.config
            );
        }
    }
}

/// The headline property: threads=1 == threads=N across thread counts ×
/// seeds, over the quick study's full algorithm portfolio (download-all
/// plus one-shot, global, local — all four).
#[test]
fn study_digests_are_thread_count_invariant() {
    for seed in [7u64, 1998] {
        let params = StudyParams::quick(seed);
        let seq = run_study(&params);
        for threads in thread_counts() {
            let par = run_study_parallel(&params, threads);
            assert_studies_identical(&seq, &par, &format!("seed {seed}, threads {threads}"));
        }
    }
}

/// Fault plans draw from their own seeded streams, never from shared
/// state, so a *faulty* sweep is just as thread-count invariant — and the
/// plan must actually perturb the run (the property is not vacuous).
#[test]
fn faulty_study_digests_are_thread_count_invariant() {
    let clean = run_study(&StudyParams::quick(33));
    let mut params = StudyParams::quick(33);
    params.faults = FaultPlan::none().with_loss(0.05).with_probe_blackhole(0.1);
    let seq = run_study(&params);
    assert_ne!(
        seq.digest(),
        clean.digest(),
        "a lossy plan must perturb the study"
    );
    for threads in [2, 7] {
        let par = run_study_parallel(&params, threads);
        assert_studies_identical(&seq, &par, &format!("lossy study, threads {threads}"));
    }
}

/// The heaviest arena churn the fabric can see: a lossy study over the
/// paper-WAN shared-bottleneck topology, where each worker's [`RunScratch`]
/// arena recycles fair-share flow state, retransmission timers, and the
/// planner's search buffers across configurations. Threads {1, 4} must
/// both reproduce the sequential study exactly — at threads=1 a single
/// progressively warmer arena serves every configuration, at threads=4
/// four arenas each see an unpredictable subset.
///
/// [`RunScratch`]: wadc::core::engine::RunScratch
#[test]
fn faulty_topology_sweep_arenas_are_thread_count_invariant() {
    let mut params = StudyParams::quick(27);
    params.topology = Some(wadc::topo::preset::TopoPreset::PaperWan);
    params.faults = FaultPlan::none().with_loss(0.05);
    let seq = run_study(&params);
    for threads in [1, 4] {
        let par = run_study_parallel(&params, threads);
        assert_studies_identical(
            &seq,
            &par,
            &format!("lossy paper-wan study, threads {threads}"),
        );
    }
}

/// Observability is passive even inside sweep workers: every swept
/// config installs its own recorder on its worker's thread (recorders are
/// `Rc`-based and scoped to one run — sim time restarts per run — so
/// they cannot be worker-global) and the observed, swept runs must
/// reproduce the unobserved sequential study's digests exactly.
#[test]
fn observed_sweep_reproduces_unobserved_digests() {
    let params = StudyParams::quick(21);
    let seq = run_study(&params);
    let study = BandwidthStudy::default_study(params.master_seed);
    let pool = study.noon_trace_pool(params.trace_window);
    let observed: Vec<u64> = SweepDriver::new(3).sweep(
        params.n_configs,
        |_worker| (),
        |(), i| {
            let exp =
                Experiment::from_study_pool(params.n_servers, &pool, i as u64, params.master_seed)
                    .with_tree_shape(params.tree_shape)
                    .with_knowledge(params.knowledge)
                    .with_workload(params.workload);
            let (obs, _tracer) = Tracer::install();
            exp.run_observed(params.algorithms[0], obs).digest()
        },
    );
    for (i, digest) in observed.iter().enumerate() {
        assert_eq!(
            *digest,
            seq.outcomes[i].results[0].digest(),
            "recorder-attached sweep worker perturbed config {i}"
        );
    }
}

/// Chaos × parallel conformance: the 36-cell scenario × algorithm matrix
/// through the sweep driver at threads=4 must equal the sequential matrix
/// cell for cell.
#[test]
fn chaos_matrix_swept_at_four_threads_matches_sequential() {
    let seq = run_chaos_suite(4, 42, 1).expect("sequential chaos matrix conforms");
    let par = run_chaos_suite(4, 42, 4).expect("swept chaos matrix conforms");
    assert_eq!(seq.len(), 36, "the matrix is 9 scenarios x 4 algorithms");
    assert_eq!(seq, par, "swept chaos matrix diverged from sequential");
}

/// Edge case: an empty sweep returns an empty study for any thread count.
#[test]
fn zero_config_study_is_empty_for_every_thread_count() {
    let mut params = StudyParams::quick(5);
    params.n_configs = 0;
    for threads in [1, 4] {
        let results = run_study_parallel(&params, threads);
        assert!(results.outcomes.is_empty());
        assert_eq!(results.digest(), run_study(&params).digest());
    }
}

/// Edge case: far more workers than configurations — the driver clamps
/// its team to the item count and the merge still lands in config order.
#[test]
fn more_threads_than_configs_is_exact() {
    let mut params = StudyParams::quick(11);
    params.n_configs = 2;
    let seq = run_study(&params);
    let par = run_study_parallel(&params, 16);
    assert_studies_identical(&seq, &par, "2 configs on 16 threads");
}

/// Edge case: a panicking configuration must propagate out of the sweep
/// (poisoning nothing, deadlocking nowhere) while the surviving workers
/// drain the remaining work and exit.
#[test]
fn panicking_config_propagates_out_of_the_sweep() {
    let result = std::panic::catch_unwind(|| {
        SweepDriver::new(3).sweep(
            12,
            |_worker| (),
            |(), i| {
                assert!(i != 4, "injected config failure");
                Experiment::quick(4, i as u64)
                    .run(Algorithm::OneShot)
                    .digest()
            },
        )
    });
    assert!(
        result.is_err(),
        "a worker panic must reach the sweep's caller"
    );
}

/// Warm vs cold per-worker arenas: a threads=1 sweep runs every config
/// through ONE progressively warmer `RunScratch`, while `Experiment::run`
/// starts from a cold one — the digests must agree bit for bit anyway.
#[test]
fn warm_worker_pools_match_cold_runs() {
    let params = StudyParams::quick(13);
    let swept = run_study_parallel(&params, 1);
    let study = BandwidthStudy::default_study(params.master_seed);
    let pool = study.noon_trace_pool(params.trace_window);
    for (i, outcome) in swept.outcomes.iter().enumerate() {
        let exp =
            Experiment::from_study_pool(params.n_servers, &pool, i as u64, params.master_seed)
                .with_tree_shape(params.tree_shape)
                .with_knowledge(params.knowledge)
                .with_workload(params.workload);
        assert_eq!(
            outcome.download_all.digest(),
            exp.run(Algorithm::DownloadAll).digest(),
            "warm-arena download-all diverged from cold at config {i}"
        );
        for (j, result) in outcome.results.iter().enumerate() {
            assert_eq!(
                result.digest(),
                exp.run(params.algorithms[j]).digest(),
                "warm-arena run diverged from cold at config {i}, algorithm {j}"
            );
        }
    }
}
