//! End-to-end integration tests spanning the whole workspace: traces →
//! network configurations → engine runs → study aggregation.

use wadc::app::image::SizeDistribution;
use wadc::app::workload::WorkloadParams;
use wadc::core::engine::Algorithm;
use wadc::core::experiment::Experiment;
use wadc::sim::time::SimDuration;
use wadc::trace::study::BandwidthStudy;
use wadc::KnowledgeMode;

/// A mid-sized world: 8 servers, 20 images of ~32 KB — big enough to
/// exercise relocation, small enough for debug-mode CI.
fn mid_world(seed: u64) -> Experiment {
    let study = BandwidthStudy::conduct(
        wadc::trace::study::default_hosts(),
        SimDuration::from_hours(8),
        seed,
    );
    let pool = study.noon_trace_pool(SimDuration::from_hours(6));
    Experiment::from_study_pool(8, &pool, 0, seed).with_workload(WorkloadParams {
        images_per_server: 20,
        sizes: SizeDistribution {
            mean_bytes: 32.0 * 1024.0,
            rel_std_dev: 0.25,
            aspect: 4.0 / 3.0,
        },
    })
}

const ALL_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::DownloadAll,
    Algorithm::OneShot,
    Algorithm::Global {
        period: SimDuration::from_mins(2),
    },
    Algorithm::Local {
        period: SimDuration::from_mins(2),
        extra_candidates: 1,
    },
];

#[test]
fn every_algorithm_delivers_the_full_sequence_in_order() {
    let exp = mid_world(11);
    for alg in ALL_ALGORITHMS {
        let r = exp.run(alg);
        assert!(r.completed, "{} did not complete", alg.name());
        assert_eq!(r.images_delivered, 20, "{}", alg.name());
        assert_eq!(r.arrivals.len(), 20);
        for w in r.arrivals.windows(2) {
            assert!(w[0] < w[1], "{}: arrivals out of order", alg.name());
        }
    }
}

#[test]
fn relocation_beats_download_all_on_average() {
    let mut speedups = (0.0, 0.0, 0.0);
    let n = 6;
    for seed in 0..n {
        let exp = mid_world(seed);
        let da = exp.run(Algorithm::DownloadAll);
        speedups.0 += exp.run(Algorithm::OneShot).speedup_over(&da);
        speedups.1 += exp
            .run(Algorithm::Global {
                period: SimDuration::from_mins(2),
            })
            .speedup_over(&da);
        speedups.2 += exp
            .run(Algorithm::Local {
                period: SimDuration::from_mins(2),
                extra_candidates: 0,
            })
            .speedup_over(&da);
    }
    let n = n as f64;
    assert!(
        speedups.0 / n > 1.2,
        "one-shot mean speedup {} too low",
        speedups.0 / n
    );
    assert!(
        speedups.1 / n > 1.2,
        "global mean speedup {} too low",
        speedups.1 / n
    );
    assert!(
        speedups.2 / n > 1.2,
        "local mean speedup {} too low",
        speedups.2 / n
    );
}

#[test]
fn online_relocation_does_not_lose_to_static_on_average() {
    // Over several worlds, global ≥ one-shot (within noise): the paper's
    // central claim that on-line relocation adds to one-shot gains.
    let mut global_total = 0.0;
    let mut one_shot_total = 0.0;
    for seed in 20..26 {
        let exp = mid_world(seed);
        let da = exp.run(Algorithm::DownloadAll);
        one_shot_total += exp.run(Algorithm::OneShot).speedup_over(&da);
        global_total += exp
            .run(Algorithm::Global {
                period: SimDuration::from_mins(2),
            })
            .speedup_over(&da);
    }
    assert!(
        global_total > one_shot_total * 0.95,
        "global ({global_total:.2}) should not lose to one-shot ({one_shot_total:.2})"
    );
}

#[test]
fn global_runs_use_the_barrier_protocol() {
    let exp = mid_world(31);
    let r = exp.run(Algorithm::Global {
        period: SimDuration::from_mins(2),
    });
    assert!(r.completed);
    // Every committed change-over required barrier traffic at high
    // priority; relocations can only follow change-overs.
    if r.changeovers > 0 {
        assert!(r.net_stats.high_priority_completed > 0);
        assert!(r.relocations > 0, "a change-over should move operators");
    }
    assert!(
        r.changeovers <= r.planner_runs,
        "cannot commit more change-overs than planning rounds"
    );
    // Static strategies never use priority traffic or move operators.
    let os = exp.run(Algorithm::OneShot);
    assert_eq!(os.relocations, 0);
    assert_eq!(os.changeovers, 0);
    assert_eq!(os.net_stats.high_priority_completed, 0);
}

#[test]
fn local_runs_relocate_without_barriers() {
    let mut any_moves = false;
    for seed in 40..46 {
        let exp = mid_world(seed);
        let r = exp.run(Algorithm::Local {
            period: SimDuration::from_mins(1),
            extra_candidates: 2,
        });
        assert!(r.completed);
        assert_eq!(r.changeovers, 0, "local never commits global change-overs");
        assert_eq!(
            r.net_stats.high_priority_completed, 0,
            "local uses no barrier traffic"
        );
        any_moves |= r.relocations > 0;
    }
    assert!(
        any_moves,
        "local algorithm should relocate at least once across six worlds"
    );
}

#[test]
fn oracle_knowledge_is_at_least_as_good_on_average() {
    let mut oracle_total = 0.0;
    let mut monitored_total = 0.0;
    for seed in 50..60 {
        let exp = mid_world(seed);
        let da = exp.run(Algorithm::DownloadAll);
        let monitored = exp.clone().run(Algorithm::Global {
            period: SimDuration::from_mins(2),
        });
        let oracle = {
            let e = exp.with_knowledge(KnowledgeMode::Oracle);
            e.run(Algorithm::Global {
                period: SimDuration::from_mins(2),
            })
        };
        monitored_total += monitored.speedup_over(&da);
        oracle_total += oracle.speedup_over(&da);
    }
    assert!(
        oracle_total > monitored_total * 0.9,
        "perfect knowledge ({oracle_total:.2}) should not lose badly to monitored ({monitored_total:.2})"
    );
}

#[test]
fn workload_conservation_across_the_network() {
    // Total bytes delivered on the wire must at least cover every image
    // that crossed a host boundary once (demands/data/overheads only add).
    let exp = mid_world(60);
    let r = exp.run(Algorithm::DownloadAll);
    // Under download-all every server ships all its images to the client.
    let wl = wadc::app::workload::Workload::generate(
        &exp.template().workload,
        8,
        wadc::sim::rng::derive_seed(exp.template().seed, 1),
    );
    let total_image_bytes: u64 = (0..8).map(|s| wl.server(s).total_bytes()).sum();
    assert!(
        r.net_stats.bytes_delivered > total_image_bytes,
        "wire bytes {} must exceed raw image bytes {total_image_bytes}",
        r.net_stats.bytes_delivered
    );
}
