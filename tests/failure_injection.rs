//! Failure injection: bandwidth collapses, pathological links, and the
//! engine's safety cap. The paper's protocols assume reliable delivery but
//! must survive arbitrarily hostile *bandwidth* — that is the whole point.

use std::sync::Arc;

use wadc::app::image::SizeDistribution;
use wadc::app::workload::WorkloadParams;
use wadc::core::engine::{Algorithm, AuditEvent, EngineConfig, RunResult};
use wadc::core::experiment::Experiment;
use wadc::net::faults::FaultPlan;
use wadc::plan::ids::HostId;
use wadc::sim::time::{SimDuration, SimTime};
use wadc::topo::link::LinkTable;
use wadc::trace::model::BandwidthTrace;
use wadc::verify::invariants::assert_clean;

fn tiny_workload(images: usize) -> WorkloadParams {
    WorkloadParams {
        images_per_server: images,
        sizes: SizeDistribution {
            mean_bytes: 16.0 * 1024.0,
            rel_std_dev: 0.0,
            aspect: 1.0,
        },
    }
}

/// 4 servers + client; every link fast (64 KB/s) except that server 0's
/// link to the client collapses to a crawl at `collapse_at`.
fn collapsing_links(collapse_at: f64) -> LinkTable {
    let fast = Arc::new(BandwidthTrace::constant(64.0 * 1024.0));
    let collapsing = Arc::new(
        BandwidthTrace::from_steps(&[(0.0, 64.0 * 1024.0), (collapse_at, 512.0)]).unwrap(),
    );
    let mut links = LinkTable::new(5);
    for a in 0..5 {
        for b in (a + 1)..5 {
            links.set(HostId::new(a), HostId::new(b), fast.clone());
        }
    }
    links.set(HostId::new(0), HostId::new(4), collapsing);
    links
}

/// Runs `cfg`'s algorithm over `links`.
fn run_cfg(cfg: EngineConfig, links: LinkTable) -> RunResult {
    let algorithm = cfg.algorithm;
    Experiment::new(links, cfg).run(algorithm)
}

#[test]
fn all_algorithms_survive_a_mid_run_bandwidth_collapse() {
    for alg in [
        Algorithm::DownloadAll,
        Algorithm::OneShot,
        Algorithm::Global {
            period: SimDuration::from_secs(30),
        },
        Algorithm::Local {
            period: SimDuration::from_secs(30),
            extra_candidates: 1,
        },
    ] {
        let mut cfg = EngineConfig::new(4, alg).with_workload(tiny_workload(30));
        cfg.seed = 3;
        let r = run_cfg(cfg, collapsing_links(10.0));
        assert!(r.completed, "{} wedged after the collapse", alg.name());
        assert_eq!(r.images_delivered, 30);
    }
}

#[test]
fn global_reroutes_around_the_collapse_and_beats_static() {
    // The collapse happens after the one-shot placement has committed to
    // the (initially fine) direct route; only on-line relocation can get
    // off the dying link.
    let run = |alg: Algorithm| {
        let mut cfg = EngineConfig::new(4, alg).with_workload(tiny_workload(40));
        cfg.seed = 5;
        run_cfg(cfg, collapsing_links(15.0))
    };
    let one_shot = run(Algorithm::OneShot);
    let global = run(Algorithm::Global {
        period: SimDuration::from_secs(20),
    });
    assert!(one_shot.completed && global.completed);
    assert!(
        global.completion_time.as_secs_f64() < one_shot.completion_time.as_secs_f64() * 0.9,
        "global ({}) should clearly beat one-shot ({}) after the collapse",
        global.completion_time,
        one_shot.completion_time
    );
    // And the audit log shows adaptation happened after the collapse.
    let adapted_after_collapse = global.audit.events().iter().any(
        |e| matches!(e, AuditEvent::RelocationStarted { at, .. } if *at > SimTime::from_secs(15)),
    );
    assert!(
        adapted_after_collapse || global.relocations > 0,
        "expected post-collapse relocation"
    );
}

#[test]
fn floor_bandwidth_everywhere_is_survivable() {
    // Every link at 2 KB/s: miserable but must terminate correctly.
    let crawl = Arc::new(BandwidthTrace::constant(2048.0));
    let mut links = LinkTable::new(3);
    for a in 0..3 {
        for b in (a + 1)..3 {
            links.set(HostId::new(a), HostId::new(b), crawl.clone());
        }
    }
    let mut cfg = EngineConfig::new(2, Algorithm::OneShot).with_workload(tiny_workload(3));
    cfg.seed = 1;
    let r = run_cfg(cfg, links);
    assert!(r.completed);
    assert_eq!(r.images_delivered, 3);
}

#[test]
fn safety_cap_aborts_hopeless_runs() {
    // 16 KB images over 16 B/s links take ~1000 s each; a 10-minute cap
    // must abort the run and report partial progress instead of hanging.
    let dead = Arc::new(BandwidthTrace::constant(16.0));
    let mut links = LinkTable::new(3);
    for a in 0..3 {
        for b in (a + 1)..3 {
            links.set(HostId::new(a), HostId::new(b), dead.clone());
        }
    }
    let mut cfg = EngineConfig::new(2, Algorithm::DownloadAll).with_workload(tiny_workload(100));
    cfg.seed = 1;
    cfg.max_sim_time = SimDuration::from_mins(10);
    let r = run_cfg(cfg, links);
    assert!(!r.completed, "cap must fire");
    assert!(r.images_delivered < 100);
}

#[test]
fn permanent_total_collapse_cannot_wedge_any_algorithm() {
    // Every link goes dark 5 s in and never comes back. No algorithm can
    // finish, but every one must still *terminate* — partial progress, a
    // clean audit trail, and no wedged event loop.
    for alg in [
        Algorithm::DownloadAll,
        Algorithm::OneShot,
        Algorithm::Global {
            period: SimDuration::from_secs(30),
        },
        Algorithm::Local {
            period: SimDuration::from_secs(30),
            extra_candidates: 1,
        },
    ] {
        let mut cfg = EngineConfig::new(4, alg).with_workload(tiny_workload(30));
        cfg.seed = 3;
        cfg.max_sim_time = SimDuration::from_mins(10);
        cfg.faults = FaultPlan::none().outage_all(SimTime::from_secs(5), SimTime::MAX);
        let r = run_cfg(cfg.clone(), collapsing_links(10.0));
        assert!(
            !r.completed,
            "{} finished through a dead network",
            alg.name()
        );
        assert!(
            r.images_delivered < 30,
            "{} delivered everything without links",
            alg.name()
        );
        assert_clean(&cfg, &r);
    }
}

#[test]
fn finite_host_blackout_recovers_and_completes() {
    // One server host is unreachable for 50 s mid-run; transfers to and
    // from it queue up, drain when it returns, and the run completes.
    let mut cfg = EngineConfig::new(
        4,
        Algorithm::Global {
            period: SimDuration::from_secs(30),
        },
    )
    .with_workload(tiny_workload(20));
    cfg.seed = 3;
    cfg.faults = FaultPlan::none().blackout(
        HostId::new(2),
        SimTime::from_secs(10),
        SimTime::from_secs(60),
    );
    let r = run_cfg(cfg.clone(), collapsing_links(10.0));
    assert!(r.completed, "blackout must only delay, not kill, the run");
    assert_eq!(r.images_delivered, 20);
    assert_clean(&cfg, &r);
}

#[test]
fn failed_moves_roll_back_and_the_run_still_completes() {
    // Every operator-state transfer is injected to fail: the collapse
    // still provokes relocation attempts, each one must roll back to its
    // origin host, and the computation must finish under the old
    // placement.
    let mut cfg = EngineConfig::new(
        4,
        Algorithm::Global {
            period: SimDuration::from_secs(20),
        },
    )
    .with_workload(tiny_workload(40));
    cfg.seed = 5;
    cfg.faults = FaultPlan::none().with_move_failure(1.0);
    let r = run_cfg(cfg.clone(), collapsing_links(15.0));
    assert!(r.completed, "rollbacks must not wedge the computation");
    assert_eq!(r.images_delivered, 40);
    let rollbacks = r
        .audit
        .events()
        .iter()
        .filter(|e| matches!(e, AuditEvent::RelocationAborted { .. }))
        .count();
    let finishes = r
        .audit
        .events()
        .iter()
        .filter(|e| matches!(e, AuditEvent::RelocationFinished { .. }))
        .count();
    assert!(rollbacks > 0, "the collapse must trigger at least one move");
    assert_eq!(finishes, 0, "every move was injected to fail");
    assert_clean(&cfg, &r);
}

#[test]
fn lossy_runs_reproduce_bit_for_bit() {
    // The fault plan is part of the deterministic input: two runs of the
    // same (seed, config, plan) under 10% loss agree digest for digest.
    let run = || {
        let mut cfg = EngineConfig::new(
            4,
            Algorithm::Local {
                period: SimDuration::from_secs(30),
                extra_candidates: 1,
            },
        )
        .with_workload(tiny_workload(20));
        cfg.seed = 7;
        cfg.faults = FaultPlan::none().with_loss(0.1).with_probe_blackhole(0.3);
        run_cfg(cfg, collapsing_links(10.0))
    };
    let a = run();
    let b = run();
    assert!(a.net_stats.dropped > 0, "10% loss dropped nothing");
    assert_eq!(a.net_stats.retransmits, b.net_stats.retransmits);
    assert_eq!(a.audit.digest(), b.audit.digest());
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn asymmetric_cliff_traces_do_not_break_monitoring() {
    // A link that oscillates violently between cliff edges exercises the
    // cache/piggyback path with extreme measurements.
    let cliff = Arc::new(
        BandwidthTrace::from_steps(&[
            (0.0, 1_000_000.0),
            (5.0, 300.0),
            (10.0, 1_000_000.0),
            (15.0, 300.0),
            (20.0, 1_000_000.0),
        ])
        .unwrap(),
    );
    let fast = Arc::new(BandwidthTrace::constant(200_000.0));
    let mut links = LinkTable::new(5);
    for a in 0..5 {
        for b in (a + 1)..5 {
            links.set(HostId::new(a), HostId::new(b), fast.clone());
        }
    }
    links.set(HostId::new(1), HostId::new(4), cliff);
    let mut cfg = EngineConfig::new(
        4,
        Algorithm::Global {
            period: SimDuration::from_secs(10),
        },
    )
    .with_workload(tiny_workload(25));
    cfg.seed = 9;
    let r = run_cfg(cfg, links);
    assert!(r.completed);
    assert_eq!(r.images_delivered, 25);
}
