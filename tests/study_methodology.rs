//! Tests of the 300-configuration study methodology and its aggregation.

use wadc::core::engine::Algorithm;
use wadc::core::experiment::Experiment;
use wadc::core::study::{run_study, run_study_parallel, StudyParams};
use wadc::sim::time::{SimDuration, SimTime};
use wadc::trace::study::BandwidthStudy;

#[test]
fn study_speedups_are_finite_and_positive() {
    let params = StudyParams::quick(101);
    let results = run_study(&params);
    for alg in 0..params.algorithms.len() {
        for s in results.speedups(alg) {
            assert!(s.is_finite() && s > 0.0);
        }
        let sorted = results.sorted_speedups(alg);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert!(results.mean_speedup(alg) > 0.0);
        assert!(results.median_speedup(alg) > 0.0);
    }
}

#[test]
fn configurations_differ_but_are_reproducible() {
    let study = BandwidthStudy::default_study(5);
    let window = SimDuration::from_hours(2);
    let pool = study.noon_trace_pool(window);
    let a0 = Experiment::from_study_pool(4, &pool, 0, 5);
    let a0_again = Experiment::from_study_pool(4, &study.noon_trace_pool(window), 0, 5);
    let a1 = Experiment::from_study_pool(4, &pool, 1, 5);

    let probe = |e: &Experiment| -> Vec<f64> {
        let mut v = Vec::new();
        for x in 0..5usize {
            for y in (x + 1)..5 {
                v.push(
                    e.links()
                        .bandwidth_at(
                            wadc::plan::ids::HostId::new(x),
                            wadc::plan::ids::HostId::new(y),
                            SimTime::ZERO,
                        )
                        .expect("complete link table"),
                );
            }
        }
        v
    };
    assert_eq!(probe(&a0), probe(&a0_again), "same index → same links");
    assert_ne!(probe(&a0), probe(&a1), "different index → different links");
}

#[test]
fn parallel_study_is_deterministic_across_thread_counts() {
    let params = StudyParams::quick(77);
    let t1 = run_study_parallel(&params, 1);
    let t4 = run_study_parallel(&params, 4);
    for (a, b) in t1.outcomes.iter().zip(&t4.outcomes) {
        assert_eq!(a.config, b.config);
        assert_eq!(
            a.download_all.completion_time,
            b.download_all.completion_time
        );
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.completion_time, y.completion_time);
        }
    }
}

#[test]
fn download_all_speedup_over_itself_is_one() {
    let mut params = StudyParams::quick(9);
    params.algorithms = vec![Algorithm::DownloadAll];
    let results = run_study(&params);
    for s in results.speedups(0) {
        assert!((s - 1.0).abs() < 1e-12);
    }
    assert!((results.median_ratio(0, 0) - 1.0).abs() < 1e-12);
}

#[test]
fn interarrival_aggregation_matches_runs() {
    let params = StudyParams::quick(13);
    let results = run_study(&params);
    let manual: f64 = results
        .outcomes
        .iter()
        .map(|o| o.download_all.mean_interarrival_secs())
        .sum::<f64>()
        / results.outcomes.len() as f64;
    assert!((results.mean_interarrival_download_all() - manual).abs() < 1e-12);
}
