//! Run-arena reuse is observationally inert: a run drawing its entire
//! world (message pool, queue, monitors, network buffers, search scratch)
//! from a warm [`RunScratch`] recycled from earlier runs — even of
//! *different* algorithms, world sizes, rosters or network backends —
//! must be bit-identical to a cold run of the same world.

use wadc::core::engine::{Algorithm, RunResult, RunScratch};
use wadc::core::experiment::Experiment;
use wadc::core::knowledge::KnowledgeMode;
use wadc::net::faults::FaultPlan;
use wadc::plan::ids::HostId;
use wadc::plan::placement::HostRoster;
use wadc::sim::time::{SimDuration, SimTime};

fn all_algorithms() -> [Algorithm; 4] {
    [
        Algorithm::DownloadAll,
        Algorithm::OneShot,
        Algorithm::Global {
            period: SimDuration::from_secs(30),
        },
        Algorithm::Local {
            period: SimDuration::from_secs(30),
            extra_candidates: 2,
        },
    ]
}

/// Asserts that a warm-arena run equals its cold twin bit for bit.
fn assert_same(warm: &RunResult, cold: &RunResult, label: &str) {
    assert_eq!(warm.digest(), cold.digest(), "{label}: digest diverged");
    assert_eq!(warm.arrivals, cold.arrivals, "{label}");
    assert_eq!(warm.net_stats, cold.net_stats, "{label}");
    assert_eq!(warm.audit.events(), cold.audit.events(), "{label}");
}

/// One [`RunScratch`] cycles through the full algorithm portfolio under
/// every knowledge mode, on both network backends (independent per-pair
/// links and the paper-WAN shared-bottleneck topology), and every warm
/// run must equal its cold twin bit for bit. By the later iterations the
/// arena holds capacity recycled from every earlier world — including
/// the global algorithm's search scratch, the local algorithm's location
/// vectors, the hosts' caches and forecasters, and the message pool — so
/// this catches any reset that forgets state.
#[test]
fn warm_arena_runs_are_bit_identical_to_cold_runs() {
    for seed in [7u64, 1998] {
        for (backend, world) in [
            ("per-pair", Experiment::quick(4, seed)),
            ("paper-wan", Experiment::quick_topo(4, seed)),
        ] {
            let mut scratch = RunScratch::new();
            for knowledge in [
                KnowledgeMode::Monitored,
                KnowledgeMode::Oracle,
                KnowledgeMode::Forecast,
                KnowledgeMode::Gauged,
            ] {
                let exp = world.clone().with_knowledge(knowledge);
                for alg in all_algorithms() {
                    let cold = exp.run(alg);
                    let warm_a = exp.run_scratch(alg, &mut scratch);
                    let warm_b = exp.run_scratch(alg, &mut scratch);
                    for (which, warm) in [("first", &warm_a), ("second", &warm_b)] {
                        let label = format!(
                            "{which} warm-arena {} run (seed {seed}, {backend} backend, \
                             {knowledge:?} knowledge)",
                            alg.name()
                        );
                        assert_same(warm, &cold, &label);
                    }
                }
            }
            assert!(
                scratch.is_warm(),
                "completed runs must park their world in the arena"
            );
        }
    }
}

/// The message pool is the arena's message free list: runs of every
/// algorithm park their delivered, dropped and in-flight message boxes
/// there, and later runs draw from it. One arena serves both seeds here,
/// so the second seed's runs send in boxes recycled from the first
/// seed's worlds; every warm run must still equal its cold twin.
#[test]
fn warm_pool_runs_are_bit_identical_to_cold_runs() {
    let mut scratch = RunScratch::new();
    for seed in [7u64, 1998] {
        let exp = Experiment::quick(4, seed);
        for alg in all_algorithms() {
            let cold = exp.run(alg);
            let warm_a = exp.run_scratch(alg, &mut scratch);
            let warm_b = exp.run_scratch(alg, &mut scratch);
            for (which, warm) in [("first", &warm_a), ("second", &warm_b)] {
                let label = format!("{which} warm-pool {} run (seed {seed})", alg.name());
                assert_same(warm, &cold, &label);
            }
        }
        assert!(
            scratch.has_parked_messages(),
            "completed runs must park their message boxes for reuse"
        );
    }
}

/// Retransmissions route message boxes through the retry machinery;
/// recycling them through a warm arena must not perturb results either.
#[test]
fn pool_survives_lossy_runs_unchanged() {
    let mut exp = Experiment::quick(4, 12);
    exp.template_mut().faults = FaultPlan::none().with_loss(0.1);
    let mut scratch = RunScratch::new();
    for alg in all_algorithms() {
        let cold = exp.run(alg);
        let warm_a = exp.run_scratch(alg, &mut scratch);
        let warm_b = exp.run_scratch(alg, &mut scratch);
        assert_same(&warm_a, &cold, &format!("first lossy {}", alg.name()));
        assert_same(&warm_b, &cold, &format!("second lossy {}", alg.name()));
    }
    assert!(
        scratch.has_parked_messages(),
        "lossy runs must park their message boxes for reuse"
    );
}

/// Faulty worlds churn the arena hardest — retransmissions cycle message
/// boxes through retry timers, a host death tears transfers out of the
/// network mid-flight and routes the planner through the masked
/// (surviving-subgraph) search — and recycling all of it must still be
/// invisible in the results.
#[test]
fn warm_arena_survives_loss_and_crash_faults_unchanged() {
    let mut exp = Experiment::quick(4, 12);
    exp.template_mut().faults = FaultPlan::none()
        .with_loss(0.1)
        .crash(HostId::new(2), SimTime::from_secs(40));
    let mut scratch = RunScratch::new();
    for alg in all_algorithms() {
        let cold = exp.run(alg);
        let warm_a = exp.run_scratch(alg, &mut scratch);
        let warm_b = exp.run_scratch(alg, &mut scratch);
        assert_same(&warm_a, &cold, &format!("first faulty {}", alg.name()));
        assert_same(&warm_b, &cold, &format!("second faulty {}", alg.name()));
    }
}

/// Four servers on six hosts: server 1 reads from a replica on host 5,
/// its primary host 1 sits idle and the client is host 4, so the world's
/// host count differs from `n_servers + 1`.
fn replica_world(seed: u64) -> Experiment {
    let six_hosts = Experiment::quick(5, seed);
    let mut template = six_hosts.template().clone();
    template.n_servers = 4;
    let servers = [0, 5, 2, 3].map(HostId::new).to_vec();
    let roster = HostRoster::new(6, HostId::new(4), servers).expect("hosts in range");
    Experiment::new(six_hosts.links().clone(), template).with_roster(roster)
}

/// One arena grows and shrinks: it cycles through worlds of 2, 6 and 4
/// servers on both backends, a replica-roster world and a 2-server world
/// again, so every per-host and per-node vector is both extended and cut
/// back. Each warm run must equal the cold run of the same world.
#[test]
fn one_arena_serves_worlds_of_every_size_and_roster() {
    let seed = 31;
    let mut worlds = Vec::new();
    for n in [2, 6, 4] {
        worlds.push((format!("{n}-server per-pair"), Experiment::quick(n, seed)));
        worlds.push((
            format!("{n}-server paper-wan"),
            Experiment::quick_topo(n, seed),
        ));
    }
    worlds.push(("replica-roster".to_string(), replica_world(seed)));
    worlds.push((
        "2-server per-pair again".to_string(),
        Experiment::quick(2, seed),
    ));
    let mut scratch = RunScratch::new();
    for (world, exp) in &worlds {
        for alg in all_algorithms() {
            let cold = exp.run(alg);
            assert!(cold.completed, "{world} {} did not complete", alg.name());
            let warm = exp.run_scratch(alg, &mut scratch);
            assert_same(&warm, &cold, &format!("{world} {}", alg.name()));
        }
    }
}
