//! Ablation studies of the design choices DESIGN.md calls out — each an
//! axis the paper fixes, varied here to quantify its contribution.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin ablations -- [--which all|objective|knowledge|probes|ordering|tthres|monitoring|duplex|mobility|state] [--configs N]
//! ```
//!
//! - `objective`  — the paper's critical-path planning objective vs the
//!   contention-aware extension (max of critical path and busiest NIC),
//! - `knowledge`  — monitored (cache + on-demand probes) vs a perfect
//!   oracle: the cost of monitoring staleness,
//! - `probes`     — planning with free measurements vs real 16 KB probe
//!   traffic: the overhead that penalises frequent re-planning,
//! - `ordering`   — complete-binary vs left-deep vs bandwidth-aware greedy
//!   ordering, under one-shot placement (order and location interact),
//! - `tthres`     — the monitoring cache timeout `T_thres` (paper: 40 s),
//! - `state`      — the operator-state size shipped on relocation.

use std::path::PathBuf;

use wadc_bench::json::Json;
use wadc_core::algorithms::one_shot::Objective;
use wadc_core::engine::Algorithm;
use wadc_core::experiment::Experiment;
use wadc_core::knowledge::KnowledgeMode;
use wadc_mobile::registry::MobilityMode;
use wadc_plan::ordering::bandwidth_aware_binary;
use wadc_plan::placement::HostRoster;
use wadc_plan::tree::TreeShape;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_trace::study::BandwidthStudy;

struct Args {
    which: String,
    configs: usize,
    seed: u64,
    json: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        which: "all".to_string(),
        configs: 60,
        seed: 1998,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--which" => args.which = value("--which"),
            "--configs" => args.configs = value("--configs").parse().expect("integer"),
            "--seed" => args.seed = value("--seed").parse().expect("integer"),
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            other => panic!("unknown flag {other}"),
        }
    }
    wadc_bench::require_configs(args.configs);
    args
}

/// A named ablation variant: a closure producing the metric for one world.
type Variant<'a> = (&'a str, Box<dyn Fn(&Experiment) -> f64>);

/// Runs `variants` against `configs` paper-style worlds; returns the mean
/// speedup over download-all per variant.
fn sweep(
    study: &BandwidthStudy,
    configs: usize,
    seed: u64,
    variants: &[Variant<'_>],
) -> Vec<(String, f64)> {
    let mut sums = vec![0.0; variants.len()];
    for i in 0..configs {
        let exp = Experiment::from_study(8, study, SimDuration::from_hours(24), i as u64, seed);
        for (j, (_, run)) in variants.iter().enumerate() {
            sums[j] += run(&exp);
        }
    }
    variants
        .iter()
        .zip(sums)
        .map(|((name, _), s)| (name.to_string(), s / configs as f64))
        .collect()
}

fn speedup(exp: &Experiment, alg: Algorithm) -> f64 {
    let da = exp.run(Algorithm::DownloadAll);
    exp.run(alg).speedup_over(&da)
}

fn report(title: &str, rows: &[(String, f64)], results: &mut Vec<Json>) {
    println!("\n=== ablation: {title} ===");
    for (name, mean) in rows {
        println!("{name:<40} mean speedup {mean:.3}");
    }
    let rows: Vec<Json> = rows
        .iter()
        .map(|(n, m)| {
            Json::obj()
                .field("variant", n.as_str())
                .field("mean_speedup", *m)
        })
        .collect();
    results.push(Json::obj().field("ablation", title).field("rows", rows));
}

fn main() {
    let args = parse_args();
    let study = BandwidthStudy::default_study(args.seed);
    let configs = args.configs;
    let seed = args.seed;
    let mut results = Vec::new();
    let all = args.which == "all";

    if all || args.which == "objective" {
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                (
                    "one-shot / critical-path objective",
                    Box::new(|e: &Experiment| speedup(e, Algorithm::OneShot)),
                ),
                (
                    "one-shot / contention-aware objective",
                    Box::new(|e: &Experiment| {
                        speedup(
                            &e.clone().with_objective(Objective::Contended),
                            Algorithm::OneShot,
                        )
                    }),
                ),
                (
                    "global / critical-path objective",
                    Box::new(|e: &Experiment| speedup(e, Algorithm::global_default())),
                ),
                (
                    "global / contention-aware objective",
                    Box::new(|e: &Experiment| {
                        speedup(
                            &e.clone().with_objective(Objective::Contended),
                            Algorithm::global_default(),
                        )
                    }),
                ),
            ],
        );
        report(
            "planning objective (paper vs contention-aware)",
            &rows,
            &mut results,
        );
    }

    if all || args.which == "knowledge" {
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                (
                    "global / monitored knowledge",
                    Box::new(|e: &Experiment| speedup(e, Algorithm::global_default())),
                ),
                (
                    "global / oracle knowledge",
                    Box::new(|e: &Experiment| {
                        speedup(
                            &e.clone().with_knowledge(KnowledgeMode::Oracle),
                            Algorithm::global_default(),
                        )
                    }),
                ),
                (
                    "global / NWS-style forecasts",
                    Box::new(|e: &Experiment| {
                        speedup(
                            &e.clone().with_knowledge(KnowledgeMode::Forecast),
                            Algorithm::global_default(),
                        )
                    }),
                ),
            ],
        );
        report(
            "planner knowledge (monitoring staleness)",
            &rows,
            &mut results,
        );
    }

    if all || args.which == "probes" {
        let mk = |probe_bytes: u64, mins: u64| {
            move |e: &Experiment| {
                let mut e = e.clone();
                e.template_mut().probe_bytes = probe_bytes;
                speedup(
                    &e,
                    Algorithm::Global {
                        period: SimDuration::from_mins(mins),
                    },
                )
            }
        };
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                ("global 2 min / free measurements", Box::new(mk(0, 2))),
                (
                    "global 2 min / 16 KB probe traffic",
                    Box::new(mk(16 * 1024, 2)),
                ),
                ("global 10 min / free measurements", Box::new(mk(0, 10))),
                (
                    "global 10 min / 16 KB probe traffic",
                    Box::new(mk(16 * 1024, 10)),
                ),
            ],
        );
        report("on-demand probe traffic", &rows, &mut results);
    }

    if all || args.which == "ordering" {
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                (
                    "one-shot / complete binary",
                    Box::new(|e: &Experiment| speedup(e, Algorithm::OneShot)),
                ),
                (
                    "one-shot / left-deep",
                    Box::new(|e: &Experiment| {
                        speedup(
                            &e.clone().with_tree_shape(TreeShape::LeftDeep),
                            Algorithm::OneShot,
                        )
                    }),
                ),
                (
                    "one-shot / bandwidth-aware ordering",
                    Box::new(|e: &Experiment| {
                        let roster = HostRoster::one_host_per_server(8);
                        let tree =
                            bandwidth_aware_binary(&roster, e.links().oracle_at(SimTime::ZERO))
                                .expect("8 servers");
                        let da = e.run(Algorithm::DownloadAll);
                        e.clone()
                            .with_tree(tree)
                            .run(Algorithm::OneShot)
                            .speedup_over(&da)
                    }),
                ),
            ],
        );
        report(
            "combination ordering (order vs location)",
            &rows,
            &mut results,
        );
    }

    if all || args.which == "tthres" {
        let mk = |secs: u64| {
            move |e: &Experiment| {
                let mut e = e.clone();
                e.template_mut().monitor.t_thres = SimDuration::from_secs(secs);
                speedup(&e, Algorithm::global_default())
            }
        };
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                ("global / T_thres 10 s", Box::new(mk(10))),
                ("global / T_thres 40 s (paper)", Box::new(mk(40))),
                ("global / T_thres 120 s", Box::new(mk(120))),
                ("global / T_thres 600 s", Box::new(mk(600))),
            ],
        );
        report("monitoring cache timeout T_thres", &rows, &mut results);
    }

    if all || args.which == "monitoring" {
        let mk = |interval_secs: Option<u64>| {
            move |e: &Experiment| {
                let mut e = e.clone();
                e.template_mut().active_monitoring = interval_secs.map(SimDuration::from_secs);
                speedup(&e, Algorithm::global_default())
            }
        };
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                ("global / on-demand probing (paper)", Box::new(mk(None))),
                ("global / active probing every 30 s", Box::new(mk(Some(30)))),
                (
                    "global / active probing every 120 s",
                    Box::new(mk(Some(120))),
                ),
            ],
        );
        report(
            "monitoring style (on-demand vs Komodo/NWS periodic)",
            &rows,
            &mut results,
        );
    }

    if all || args.which == "duplex" {
        let mk = |capacity: usize, alg: Algorithm| {
            move |e: &Experiment| {
                let mut e = e.clone();
                e.template_mut().net.nic_capacity = capacity;
                speedup(&e, alg)
            }
        };
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                (
                    "global / half-duplex NIC (paper)",
                    Box::new(mk(1, Algorithm::global_default())),
                ),
                (
                    "global / full-duplex NIC",
                    Box::new(mk(2, Algorithm::global_default())),
                ),
                (
                    "global / 4-channel NIC",
                    Box::new(mk(4, Algorithm::global_default())),
                ),
            ],
        );
        report(
            "NIC capacity (relaxing the single-interface assumption)",
            &rows,
            &mut results,
        );
    }

    if all || args.which == "mobility" {
        let mk = |mode: MobilityMode, code: u64| {
            move |e: &Experiment| {
                let mut e = e.clone();
                e.template_mut().mobility = mode;
                e.template_mut().code_package_bytes = code;
                speedup(
                    &e,
                    Algorithm::Global {
                        period: SimDuration::from_mins(2),
                    },
                )
            }
        };
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                (
                    "global 2 min / code pre-installed",
                    Box::new(mk(MobilityMode::PreInstalled, 0)),
                ),
                (
                    "global 2 min / mobile objects, 24 KB code",
                    Box::new(mk(MobilityMode::MobileObjects, 24 << 10)),
                ),
                (
                    "global 2 min / mobile objects, 256 KB code",
                    Box::new(mk(MobilityMode::MobileObjects, 256 << 10)),
                ),
            ],
        );
        report(
            "mobility substrate (pre-installed vs mobile objects)",
            &rows,
            &mut results,
        );
    }

    if all || args.which == "state" {
        let mk = |bytes: u64| {
            move |e: &Experiment| {
                let mut e = e.clone();
                e.template_mut().operator_state_bytes = bytes;
                speedup(
                    &e,
                    Algorithm::Global {
                        period: SimDuration::from_mins(2),
                    },
                )
            }
        };
        let rows = sweep(
            &study,
            configs,
            seed,
            &[
                ("global 2 min / 4 KB operator state", Box::new(mk(4 << 10))),
                (
                    "global 2 min / 64 KB operator state",
                    Box::new(mk(64 << 10)),
                ),
                (
                    "global 2 min / 512 KB operator state",
                    Box::new(mk(512 << 10)),
                ),
                ("global 2 min / 4 MB operator state", Box::new(mk(4 << 20))),
            ],
        );
        report(
            "operator state size (light-move assumption)",
            &rows,
            &mut results,
        );
    }

    if let Some(path) = &args.json {
        std::fs::write(path, Json::Arr(results).to_string_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("\nresults archived to {}", path.display());
    }
}
