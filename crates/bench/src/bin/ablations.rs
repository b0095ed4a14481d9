//! Ablation studies of the design choices DESIGN.md calls out — each an
//! axis the paper fixes, varied here to quantify its contribution.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin ablations -- [--which all|objective|knowledge|probes|ordering|tthres|monitoring|duplex|mobility|state] [--configs N] [--seed S] [--json PATH]
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
//! - `monitoring` — on-demand probing vs periodic active probing,
//! - `duplex`     — the NIC's concurrent transfer channels (paper: one),
//! - `mobility`   — pre-installed operator code vs shipped mobile objects,
//! - `state`      — the operator-state size shipped on relocation.
//!
//! A `--which` that names no ablation exits 2 before any work.

use std::path::PathBuf;
use std::sync::Arc;

use wadc_bench::json::Json;
use wadc_bench::{flag_value, reject};
use wadc_core::algorithms::one_shot::Objective;
use wadc_core::engine::{Algorithm, EngineConfig};
use wadc_core::experiment::Experiment;
use wadc_core::knowledge::KnowledgeMode;
use wadc_mobile::registry::MobilityMode;
use wadc_plan::ordering::bandwidth_aware_binary;
use wadc_plan::placement::HostRoster;
use wadc_plan::tree::TreeShape;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_trace::model::BandwidthTrace;
use wadc_trace::study::BandwidthStudy;

struct Args {
    which: String,
    configs: usize,
    seed: u64,
    json: Option<PathBuf>,
}

/// Parses `std::env::args`; exits 2 with the reason on an unknown flag, a
/// missing or malformed value, `--configs 0` or a `--which` that is
/// neither `all` nor one of `known`.
fn parse_args(known: &[&str]) -> Args {
    let mut args = Args {
        which: "all".to_string(),
        configs: 60,
        seed: 1998,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--which" => args.which = flag_value(&mut it, &flag),
            "--configs" => args.configs = flag_value(&mut it, &flag),
            "--seed" => args.seed = flag_value(&mut it, &flag),
            "--json" => args.json = Some(flag_value(&mut it, &flag)),
            other => reject(&format!(
                "unknown flag {other}; known: --which --configs --seed --json"
            )),
        }
    }
    wadc_bench::require_configs(args.configs);
    if args.which != "all" && !known.contains(&args.which.as_str()) {
        reject(&format!(
            "--which {} names no ablation; known: all, {}",
            args.which,
            known.join(", ")
        ));
    }
    args
}

/// A named ablation variant: a closure producing the metric for one world.
type Variant = (&'static str, Box<dyn Fn(&Experiment) -> f64>);

/// An ablation: its `--which` name, its report title and its variants.
type Ablation = (&'static str, &'static str, Vec<Variant>);

/// Runs `variants` against `configs` paper-style worlds built from `pool`;
/// returns the mean speedup over download-all per variant.
fn sweep(
    pool: &[Arc<BandwidthTrace>],
    configs: usize,
    seed: u64,
    variants: &[Variant],
) -> Vec<(&'static str, f64)> {
    let mut sums = vec![0.0; variants.len()];
    for i in 0..configs {
        let exp = Experiment::from_study_pool(8, pool, i as u64, seed);
        for (j, (_, run)) in variants.iter().enumerate() {
            sums[j] += run(&exp);
        }
    }
    variants
        .iter()
        .zip(sums)
        .map(|((name, _), s)| (*name, s / configs as f64))
        .collect()
}

fn speedup(exp: &Experiment, alg: Algorithm) -> f64 {
    let da = exp.run(Algorithm::DownloadAll);
    exp.run(alg).speedup_over(&da)
}

fn report(title: &str, rows: &[(&str, f64)], results: &mut Vec<Json>) {
    println!("\n=== ablation: {title} ===");
    for (name, mean) in rows {
        println!("{name:<40} mean speedup {mean:.3}");
    }
    let rows: Vec<Json> = rows
        .iter()
        .map(|&(n, m)| Json::obj().field("variant", n).field("mean_speedup", m))
        .collect();
    results.push(Json::obj().field("ablation", title).field("rows", rows));
}

/// The global algorithm re-planning every `mins` minutes.
fn global(mins: u64) -> Algorithm {
    Algorithm::Global {
        period: SimDuration::from_mins(mins),
    }
}

/// A variant measuring `alg`'s speedup on each world as `tweak` changes it.
fn variant(
    name: &'static str,
    alg: Algorithm,
    tweak: impl Fn(Experiment) -> Experiment + 'static,
) -> Variant {
    (
        name,
        Box::new(move |e: &Experiment| speedup(&tweak(e.clone()), alg)),
    )
}

/// A variant measuring `alg`'s speedup after `set` changes each world's
/// engine configuration.
fn configured(
    name: &'static str,
    alg: Algorithm,
    set: impl Fn(&mut EngineConfig) + 'static,
) -> Variant {
    variant(name, alg, move |mut e| {
        set(e.template_mut());
        e
    })
}

/// Every ablation, in report order. `--which` is checked against and
/// dispatched through these names.
fn ablations() -> Vec<Ablation> {
    let one_shot = Algorithm::OneShot;
    let global_default = Algorithm::global_default();
    let contended = |e: Experiment| e.with_objective(Objective::Contended);
    vec![
        (
            "objective",
            "planning objective (paper vs contention-aware)",
            vec![
                variant("one-shot / critical-path objective", one_shot, |e| e),
                variant("one-shot / contention-aware objective", one_shot, contended),
                variant("global / critical-path objective", global_default, |e| e),
                variant(
                    "global / contention-aware objective",
                    global_default,
                    contended,
                ),
            ],
        ),
        (
            "knowledge",
            "planner knowledge (monitoring staleness)",
            vec![
                variant("global / monitored knowledge", global_default, |e| e),
                variant("global / oracle knowledge", global_default, |e| {
                    e.with_knowledge(KnowledgeMode::Oracle)
                }),
                variant("global / NWS-style forecasts", global_default, |e| {
                    e.with_knowledge(KnowledgeMode::Forecast)
                }),
            ],
        ),
        (
            "probes",
            "on-demand probe traffic",
            [
                ("global 2 min / free measurements", 2, 0),
                ("global 2 min / 16 KB probe traffic", 2, 16 * 1024),
                ("global 10 min / free measurements", 10, 0),
                ("global 10 min / 16 KB probe traffic", 10, 16 * 1024),
            ]
            .map(|(name, mins, bytes)| {
                configured(name, global(mins), move |c| c.probe_bytes = bytes)
            })
            .into(),
        ),
        (
            "ordering",
            "combination ordering (order vs location)",
            vec![
                variant("one-shot / complete binary", one_shot, |e| e),
                variant("one-shot / left-deep", one_shot, |e| {
                    e.with_tree_shape(TreeShape::LeftDeep)
                }),
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
        ),
        (
            "tthres",
            "monitoring cache timeout T_thres",
            [
                ("global / T_thres 10 s", 10),
                ("global / T_thres 40 s (paper)", 40),
                ("global / T_thres 120 s", 120),
                ("global / T_thres 600 s", 600),
            ]
            .map(|(name, secs)| {
                configured(name, global_default, move |c| {
                    c.monitor.t_thres = SimDuration::from_secs(secs)
                })
            })
            .into(),
        ),
        (
            "monitoring",
            "monitoring style (on-demand vs Komodo/NWS periodic)",
            [
                ("global / on-demand probing (paper)", None),
                ("global / active probing every 30 s", Some(30)),
                ("global / active probing every 120 s", Some(120)),
            ]
            .map(|(name, secs)| {
                configured(name, global_default, move |c| {
                    c.active_monitoring = secs.map(SimDuration::from_secs)
                })
            })
            .into(),
        ),
        (
            "duplex",
            "NIC capacity (relaxing the single-interface assumption)",
            [
                ("global / half-duplex NIC (paper)", 1),
                ("global / full-duplex NIC", 2),
                ("global / 4-channel NIC", 4),
            ]
            .map(|(name, channels)| {
                configured(name, global_default, move |c| c.net.nic_capacity = channels)
            })
            .into(),
        ),
        (
            "mobility",
            "mobility substrate (pre-installed vs mobile objects)",
            [
                (
                    "global 2 min / code pre-installed",
                    MobilityMode::PreInstalled,
                    0,
                ),
                (
                    "global 2 min / mobile objects, 24 KB code",
                    MobilityMode::MobileObjects,
                    24 << 10,
                ),
                (
                    "global 2 min / mobile objects, 256 KB code",
                    MobilityMode::MobileObjects,
                    256 << 10,
                ),
            ]
            .map(|(name, mode, code)| {
                configured(name, global(2), move |c| {
                    c.mobility = mode;
                    c.code_package_bytes = code;
                })
            })
            .into(),
        ),
        (
            "state",
            "operator state size (light-move assumption)",
            [
                ("global 2 min / 4 KB operator state", 4 << 10),
                ("global 2 min / 64 KB operator state", 64 << 10),
                ("global 2 min / 512 KB operator state", 512 << 10),
                ("global 2 min / 4 MB operator state", 4 << 20),
            ]
            .map(|(name, bytes)| {
                configured(name, global(2), move |c| c.operator_state_bytes = bytes)
            })
            .into(),
        ),
    ]
}

fn main() {
    let ablations = ablations();
    let names: Vec<&str> = ablations.iter().map(|(name, ..)| *name).collect();
    let args = parse_args(&names);
    let pool =
        BandwidthStudy::default_study(args.seed).noon_trace_pool(SimDuration::from_hours(24));
    let mut results = Vec::new();
    for (name, title, variants) in &ablations {
        if args.which == "all" || args.which == *name {
            let rows = sweep(&pool, args.configs, args.seed, variants);
            report(title, &rows, &mut results);
        }
    }

    if let Some(path) = &args.json {
        std::fs::write(path, Json::Arr(results).to_string_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("\nresults archived to {}", path.display());
    }
}
