//! `wadc` — command-line driver for the wide-area data combination
//! simulator.
//!
//! ```sh
//! wadc run   [--servers N] [--algorithm A] [--period-mins M] [--shape S] [--seed S] [--images N]
//!            [--threads T] [--audit] [--json] [--topology P] [--knowledge K]
//!            [--trace-out t.json] [--jsonl-out t.jsonl]
//! wadc report [--servers N] [--algorithm A] [--seed S] [--images N]
//! wadc study [--configs N] [--servers N] [--seed S] [--threads T] [--topology P] [--knowledge K]
//! wadc study --gauge-analysis [--seed S]
//! wadc trace [--pair A,B] [--seed S] [--window-hours H]
//! wadc plan  [--servers N] [--seed S] [--objective critical-path|contended]
//! wadc verify [--quick] [--seed S] [--threads T]
//! wadc verify --print-golden
//! wadc chaos [--loss P] [--probe-blackhole P] [--move-failure P] [--outages N]
//!            [--outage-mins M] [--crash-host H] [--crash-at-secs S] [--seed S]
//! wadc chaos --soak N [--shrink] [--threads T] [--servers N] [--seed S]
//! ```

use std::collections::HashMap;

use wadc::core::algorithms::one_shot::{improve_placement, Objective, SearchScratch};
use wadc::core::engine::{Algorithm, AuditEvent, EngineConfig};
use wadc::core::experiment::Experiment;
use wadc::core::gauging;
use wadc::core::knowledge::KnowledgeMode;
use wadc::core::study::{run_study, run_study_parallel, StudyParams};
use wadc::core::sweep::clamp_threads;
use wadc::net::faults::FaultPlan;
use wadc::obs::{chrome_trace, render_report, write_jsonl, Json, Tracer};
use wadc::plan::critical_path::{critical_path, nic_occupancy};
use wadc::plan::ids::{HostId, OperatorId};
use wadc::plan::placement::{HostRoster, Placement};
use wadc::plan::tree::{CombinationTree, TreeShape};
use wadc::sim::time::{SimDuration, SimTime};
use wadc::topo::preset::TopoPreset;
use wadc::trace::stats::summarize;
use wadc::trace::study::BandwidthStudy;
use wadc::verify::chaos::run_chaos_suite;
use wadc::verify::determinism::check_conformance;
use wadc::verify::differential::run_suite;
use wadc::verify::golden;
use wadc::verify::soak::run_soak;
use wadc::verify::worlds::all_algorithms;

fn usage() -> ! {
    eprintln!(
        "usage: wadc <run|report|study|trace|plan|verify|chaos> [flags]

run    simulate one configuration under one algorithm
         --servers N (8)  --algorithm download-all|one-shot|global|local (global)
         --period-mins M (10, global and local only)
         --extra-candidates K (0, local only)
         --shape binary|left-deep (binary)
         --seed S (1998)  --config I (0)  --images N (180)  --audit
         --threads T (auto): run the download-all baseline and the
           algorithm concurrently (not with --trace-out or --jsonl-out,
           which record on one thread); 0 or more than the machine's
           cores clamps with a warning
         --json (machine-readable result on stdout)
         --topology paper-wan: run over the shared-bottleneck topology
           (regional access links behind two oceanic backbones) instead
           of independent per-pair links
         --knowledge monitored|oracle|forecast|gauged (monitored; gauged
           needs --topology: the gauger learns only from shared links)
         --trace-out PATH (Chrome trace JSON, load in Perfetto)
         --jsonl-out PATH (span/sample stream, one JSON object per line)
report run one configuration with tracing and print a human-readable
       run report (adaptation, residency, links, monitoring, faults)
         takes the world flags of `run` (--servers, --algorithm,
         --period-mins, --extra-candidates, --shape, --seed, --config,
         --images, --topology, --knowledge)
study  run a multi-configuration comparison of all four algorithms
         on the work-stealing sweep driver
         --configs N (50)  --servers N (8)  --seed S (1998)  --threads T (auto)
         --topology paper-wan  --knowledge monitored|oracle|forecast|gauged
         --gauge-analysis: instead of a study, print the forecaster-vs-
           gauger contention table (markdown; see
           results/ANALYSIS_gauge_vs_forecast.md); takes only --seed
trace  characterise the synthetic bandwidth study
         --pair A,B (0,7)  --seed S (1998)
         --window-hours H (12, at most the study's 48)
plan   compute and print a one-shot placement for a random world
         --servers N (8)  --seed S (1998)  --config I (0)
         --objective critical-path|contended (critical-path)
verify check engine conformance: golden digests, determinism, invariants,
       the threads=1 == threads=N sweep gate, and (without --quick) the
       differential and chaos suites
         --quick  --seed S (42)
         --print-golden (regenerate the fixture; takes no other flag)
         --threads T (2, at least 2): sweep-gate and chaos-matrix thread
           count (deliberately not clamped to the core count —
           oversubscribed interleavings are exactly what the gate must
           survive)
chaos  simulate one configuration under an injected fault plan and report
       recovery statistics against the clean run of the same world
         --loss P (0.05)  --probe-blackhole P (0)  --move-failure P (0)
         --outages N (0)  --outage-mins M (5, needs --outages)
         --crash-host H (none): permanently kill host H (the client is
           host <servers>)  --crash-at-secs S (30, needs --crash-host)
         plus the world flags of `run` (see `report`)
       or run a randomized chaos soak on the quick world instead:
         --soak N (at least 1): run N seed-derived random fault plans
           (crashes, outages, blackouts, loss) across all four
           algorithms; every run must validate, reproduce bit for bit,
           pass the invariant checker and end with an explicit outcome
         --shrink: on failure, reduce the plan to a minimal reproduction
         --servers N (4)  --seed S (1998)  --threads T (2, at least 1,
           not clamped: the report is thread-count-invariant by
           construction)
         the soak draws its own fault plans and takes no other flag

World sizes are bounded: --servers from 2 to {max_servers} and --images from 1 to
{max_images} per server.

Unknown flags and inputs no run can take exit 2 with the reason.",
        max_servers = EngineConfig::MAX_SERVERS,
        max_images = EngineConfig::MAX_IMAGES_PER_SERVER,
    );
    std::process::exit(2)
}

/// The flags naming the world and algorithm of one run; `run`, `report`
/// and `chaos` take them all.
const WORLD_FLAGS: &[&str] = &[
    "--servers",
    "--algorithm",
    "--period-mins",
    "--extra-candidates",
    "--shape",
    "--seed",
    "--config",
    "--images",
    "--topology",
    "--knowledge",
];
const RUN_FLAGS: &[&str] = &[
    "--threads",
    "--audit",
    "--json",
    "--trace-out",
    "--jsonl-out",
];
const STUDY_FLAGS: &[&str] = &[
    "--configs",
    "--servers",
    "--seed",
    "--threads",
    "--topology",
    "--knowledge",
    "--gauge-analysis",
];
const TRACE_FLAGS: &[&str] = &["--pair", "--seed", "--window-hours"];
const PLAN_FLAGS: &[&str] = &["--servers", "--seed", "--config", "--objective"];
const VERIFY_FLAGS: &[&str] = &["--quick", "--seed", "--print-golden", "--threads"];
const CHAOS_FLAGS: &[&str] = &[
    "--loss",
    "--probe-blackhole",
    "--move-failure",
    "--outages",
    "--outage-mins",
    "--crash-host",
    "--crash-at-secs",
];
/// `chaos --soak` draws its own worlds and fault plans, so it takes none
/// of the single run's world or fault flags.
const SOAK_FLAGS: &[&str] = &["--soak", "--shrink", "--threads", "--servers", "--seed"];

/// Prints why the input cannot run and exits 2, before anything runs.
fn reject(reason: &str) -> ! {
    eprintln!("error: {reason}");
    std::process::exit(2)
}

/// Rejects `--servers` and `--images` values no world can take — below
/// the minimum or above `EngineConfig`'s bounds — before any world is
/// built: building one allocates a link table quadratic in the server
/// count, so an oversized request would exhaust memory first.
fn check_size(flags: &HashMap<String, String>, default_servers: usize) {
    let mut cfg = EngineConfig::new(
        flag(flags, "--servers", default_servers),
        Algorithm::DownloadAll,
    );
    cfg.workload.images_per_server = flag(flags, "--images", cfg.workload.images_per_server);
    if let Err(e) = cfg.validate() {
        reject(&e);
    }
}

/// Rejects a world `algorithm` cannot run on: a configuration
/// `EngineConfig::validate` refuses or a tree that cannot be built.
fn check_world(exp: &Experiment, algorithm: Algorithm) {
    if let Err(e) = exp.validate(algorithm) {
        reject(&e);
    }
}

/// Parses `--key value` pairs and boolean flags, rejecting any flag that
/// is not in one of `allowed` (the subcommand's flag lists).
fn parse_flags(cmd: &str, args: &[String], allowed: &[&[&str]]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].clone();
        if !key.starts_with("--") {
            eprintln!("unexpected argument {key}");
            usage();
        }
        if !allowed.iter().any(|list| list.contains(&key.as_str())) {
            eprintln!("unknown flag {key} for `wadc {cmd}`");
            usage();
        }
        if key == "--audit"
            || key == "--quick"
            || key == "--print-golden"
            || key == "--gauge-analysis"
            || key == "--json"
            || key == "--shrink"
        {
            flags.insert(key, "true".to_string());
            i += 1;
        } else {
            if i + 1 >= args.len() {
                eprintln!("{key} requires a value");
                usage();
            }
            flags.insert(key, args[i + 1].clone());
            i += 2;
        }
    }
    flags
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {key}: {v}");
            usage()
        }),
    }
}

/// Reads `key`, a count of `unit`s (default `default`), as one span,
/// rejecting a count whose span overflows the simulated clock's
/// microseconds instead of letting it wrap to a short one.
fn span_flag(
    flags: &HashMap<String, String>,
    key: &str,
    default: u64,
    unit: SimDuration,
) -> SimDuration {
    let n = flag(flags, key, default);
    match n.checked_mul(unit.as_micros()) {
        Some(micros) => SimDuration::from_micros(micros),
        None => reject(&format!(
            "{key} {n} overflows the simulated clock: at most {} fit",
            u64::MAX / unit.as_micros()
        )),
    }
}

/// Reads `--threads` (defaulting to every available core) and clamps it
/// to the machine, surfacing the sweep fabric's warning when the request
/// was adjusted (`--threads 0`, or more threads than cores).
fn resolve_threads(flags: &HashMap<String, String>) -> usize {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = clamp_threads(flag(flags, "--threads", default));
    if let Some(warning) = &plan.warning {
        eprintln!("warning: {warning}");
    }
    plan.threads
}

fn write_or_die(path: &str, bytes: &[u8]) {
    if let Err(e) = std::fs::write(path, bytes) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Reads `--algorithm` and its parameters, rejecting a parameter the
/// chosen algorithm would ignore.
fn algorithm_from(flags: &HashMap<String, String>) -> Algorithm {
    let period = span_flag(flags, "--period-mins", 10, SimDuration::from_mins(1));
    let algorithm = match flags
        .get("--algorithm")
        .map(String::as_str)
        .unwrap_or("global")
    {
        "download-all" => Algorithm::DownloadAll,
        "one-shot" => Algorithm::OneShot,
        "global" => Algorithm::Global { period },
        "local" => Algorithm::Local {
            period,
            extra_candidates: flag(flags, "--extra-candidates", 0usize),
        },
        other => {
            eprintln!("unknown algorithm {other}");
            usage()
        }
    };
    if flags.contains_key("--period-mins")
        && matches!(algorithm, Algorithm::DownloadAll | Algorithm::OneShot)
    {
        reject("--period-mins needs --algorithm global or local");
    }
    if flags.contains_key("--extra-candidates") && !matches!(algorithm, Algorithm::Local { .. }) {
        reject("--extra-candidates needs --algorithm local");
    }
    algorithm
}

fn shape_from(flags: &HashMap<String, String>) -> TreeShape {
    match flags.get("--shape").map(String::as_str).unwrap_or("binary") {
        "binary" => TreeShape::CompleteBinary,
        "left-deep" => TreeShape::LeftDeep,
        other => {
            eprintln!("unknown shape {other}");
            usage()
        }
    }
}

fn topology_from(flags: &HashMap<String, String>) -> Option<TopoPreset> {
    flags.get("--topology").map(|name| {
        TopoPreset::parse(name).unwrap_or_else(|| {
            eprintln!("unknown topology preset {name} (try: paper-wan)");
            usage()
        })
    })
}

fn knowledge_from(flags: &HashMap<String, String>) -> KnowledgeMode {
    match flags
        .get("--knowledge")
        .map(String::as_str)
        .unwrap_or("monitored")
    {
        "monitored" => KnowledgeMode::Monitored,
        "oracle" => KnowledgeMode::Oracle,
        "forecast" => KnowledgeMode::Forecast,
        "gauged" => KnowledgeMode::Gauged,
        other => {
            eprintln!("unknown knowledge mode {other}");
            usage()
        }
    }
}

/// Maps the world flags onto the study they name: `study` runs it, and
/// `run`, `report`, `chaos` and `plan` build its configuration `--config`.
fn study_from(flags: &HashMap<String, String>) -> StudyParams {
    let mut params = StudyParams::paper_main(flag(flags, "--seed", 1998u64));
    params.n_servers = flag(flags, "--servers", 8usize);
    params.tree_shape = shape_from(flags);
    params.topology = topology_from(flags);
    params.knowledge = knowledge_from(flags);
    if params.knowledge == KnowledgeMode::Gauged && params.topology.is_none() {
        reject(
            "--knowledge gauged needs --topology: the gauger learns only from transfers \
             that share a link, and a per-pair world shares none",
        );
    }
    params.workload.images_per_server = flag(flags, "--images", params.workload.images_per_server);
    params
}

fn experiment_from(flags: &HashMap<String, String>) -> Experiment {
    check_size(flags, 8);
    let params = study_from(flags);
    let pool =
        BandwidthStudy::default_study(params.master_seed).noon_trace_pool(params.trace_window);
    params.experiment(&pool, flag(flags, "--config", 0usize))
}

fn cmd_run(flags: HashMap<String, String>) {
    let tracing = flags.contains_key("--trace-out") || flags.contains_key("--jsonl-out");
    if tracing && flags.contains_key("--threads") {
        reject(
            "--threads cannot be used with --trace-out or --jsonl-out: \
             a traced run records on one thread",
        );
    }
    let exp = experiment_from(&flags);
    let algorithm = algorithm_from(&flags);
    check_world(&exp, algorithm);
    let json_out = flags.contains_key("--json");
    if !json_out {
        let topo = match topology_from(&flags) {
            Some(p) => format!(", topology {p}"),
            None => String::new(),
        };
        println!(
            "running {} servers x {} images under {} (knowledge {}{topo})...",
            exp.template().n_servers,
            exp.template().workload.images_per_server,
            algorithm.name(),
            exp.template().knowledge.name(),
        );
    }
    let threads = resolve_threads(&flags);
    let tracer = tracing.then(Tracer::install);
    // The baseline and the algorithm run are independent worlds, so with
    // a spare thread they run concurrently. Tracing pins everything to
    // this thread (the recorder is not Send); results are identical
    // either way — every run is individually seeded.
    let (baseline, r) = if tracer.is_none() && threads >= 2 {
        let exp = &exp;
        std::thread::scope(|scope| {
            let base = scope.spawn(move || exp.run(Algorithm::DownloadAll));
            let r = exp.run(algorithm);
            (base.join().expect("baseline run does not panic"), r)
        })
    } else {
        let baseline = exp.run(Algorithm::DownloadAll);
        let r = match &tracer {
            Some((obs, _)) => exp.run_observed(algorithm, obs.clone()),
            None => exp.run(algorithm),
        };
        (baseline, r)
    };
    if let Some((_, tracer)) = &tracer {
        let tracer = tracer.borrow();
        if let Some(path) = flags.get("--trace-out") {
            write_or_die(path, chrome_trace(&tracer).to_string_compact().as_bytes());
            if !json_out {
                println!("wrote Chrome trace to {path} (load at https://ui.perfetto.dev)");
            }
        }
        if let Some(path) = flags.get("--jsonl-out") {
            let mut buf = Vec::new();
            write_jsonl(&tracer, &mut buf).expect("writing to memory cannot fail");
            write_or_die(path, &buf);
            if !json_out {
                println!("wrote span/sample stream to {path}");
            }
        }
    }
    if json_out {
        println!(
            "{}",
            Json::obj()
                .field("algorithm", algorithm.name())
                .field("completed", r.completed)
                .field("outcome", r.outcome.name())
                .field("hosts_declared_dead", r.hosts_declared_dead)
                .field("operators_respawned", r.operators_respawned)
                .field("completion_secs", r.completion_time.as_secs_f64())
                .field("images_delivered", r.images_delivered)
                .field("mean_interarrival_secs", r.mean_interarrival_secs())
                .field("speedup_over_download_all", r.speedup_over(&baseline))
                .field("planner_runs", r.planner_runs)
                .field("changeovers", r.changeovers)
                .field("relocations", r.relocations)
                .field("bytes_delivered", r.net_stats.bytes_delivered)
                .field("digest", r.digest_hex())
                .to_string_pretty()
        );
    } else {
        println!(
            "outcome: {} | total {:.0} s | {:.1} s/image | speedup over download-all {:.2}x",
            r.outcome.name(),
            r.completion_time.as_secs_f64(),
            r.mean_interarrival_secs(),
            r.speedup_over(&baseline)
        );
        println!(
            "planner runs {} | change-overs {} | relocations {} | wire bytes {}",
            r.planner_runs, r.changeovers, r.relocations, r.net_stats.bytes_delivered
        );
    }
    if flags.contains_key("--audit") {
        println!("\naudit log ({} events):", r.audit.len());
        for e in r.audit.events() {
            match e {
                AuditEvent::PlannerRan {
                    at,
                    cost_before,
                    cost_after,
                    changed,
                } => println!(
                    "{:>8.0}s planner: {cost_before:.2}s -> {cost_after:.2}s per partition{}",
                    at.as_secs_f64(),
                    if *changed { " (placement changed)" } else { "" }
                ),
                AuditEvent::ChangeoverProposed { at, version, moves } => println!(
                    "{:>8.0}s change-over v{version} proposed ({moves} moves)",
                    at.as_secs_f64()
                ),
                AuditEvent::ServerSuspended {
                    at,
                    server,
                    reported_iteration,
                    ..
                } => println!(
                    "{:>8.0}s server {server} suspended at iteration {reported_iteration}",
                    at.as_secs_f64()
                ),
                AuditEvent::ChangeoverCommitted {
                    at,
                    version,
                    switch_iteration,
                } => println!(
                    "{:>8.0}s change-over v{version} committed, switch at iteration {switch_iteration}",
                    at.as_secs_f64()
                ),
                AuditEvent::LocalDecision {
                    at, op, level, from, to,
                } => println!(
                    "{:>8.0}s local decision: {op} (level {level}) {from} -> {to}",
                    at.as_secs_f64()
                ),
                AuditEvent::RelocationStarted {
                    at, op, from, to, ..
                } => println!("{:>8.0}s {op} moving {from} -> {to}", at.as_secs_f64()),
                AuditEvent::RelocationFinished { at, op, host } => {
                    println!("{:>8.0}s {op} resumed at {host}", at.as_secs_f64())
                }
                AuditEvent::MessageLost {
                    at,
                    from,
                    to,
                    kind,
                    attempt,
                } => println!(
                    "{:>8.0}s lost {} {from} -> {to} (attempt {attempt})",
                    at.as_secs_f64(),
                    kind.label()
                ),
                AuditEvent::RelocationAborted { at, op, host } => println!(
                    "{:>8.0}s {op} move failed, rolled back to {host}",
                    at.as_secs_f64()
                ),
                AuditEvent::ChangeoverAborted { at, version } => println!(
                    "{:>8.0}s change-over v{version} timed out, aborted",
                    at.as_secs_f64()
                ),
                AuditEvent::HostDeclaredDead { at, host, evidence } => println!(
                    "{:>8.0}s {host} declared dead ({evidence} messages abandoned)",
                    at.as_secs_f64()
                ),
                AuditEvent::OperatorRespawned { at, op, from, to } => println!(
                    "{:>8.0}s {op} respawned from origin image: {from} -> {to}",
                    at.as_secs_f64()
                ),
                AuditEvent::RunAborted { at, reason } => {
                    println!("{:>8.0}s run aborted: {reason}", at.as_secs_f64())
                }
            }
        }
    }
}

fn cmd_report(flags: HashMap<String, String>) {
    let exp = experiment_from(&flags);
    let algorithm = algorithm_from(&flags);
    check_world(&exp, algorithm);
    let (obs, tracer) = Tracer::install();
    let r = exp.run_observed(algorithm, obs);
    print!("{}", render_report(&tracer.borrow()));
    if !r.completed {
        println!("warning: run hit the safety cap before delivering every image");
    }
}

fn cmd_study(flags: HashMap<String, String>) {
    if flags.contains_key("--gauge-analysis") {
        // The analysis runs its own harness, not a study: of the study's
        // flags it reads only the seed.
        let ignored = flags
            .keys()
            .filter(|k| !matches!(k.as_str(), "--gauge-analysis" | "--seed"))
            .min();
        if let Some(other) = ignored {
            reject(&format!(
                "--gauge-analysis takes no flag but --seed: {other} would be ignored"
            ));
        }
        let seed = flag(&flags, "--seed", 1998u64);
        print!(
            "{}",
            gauging::render_markdown(&gauging::gauge_vs_forecast(3, seed), seed)
        );
        return;
    }
    let mut params = study_from(&flags);
    params.n_configs = flag(&flags, "--configs", 50usize);
    if params.n_configs == 0 {
        reject("--configs must be at least 1: a study of no configurations compares nothing");
    }
    check_size(&flags, 8);
    let threads = resolve_threads(&flags);
    println!(
        "running {} configurations x 4 algorithms ({} servers, {} threads, knowledge {}{})...",
        params.n_configs,
        params.n_servers,
        threads,
        params.knowledge.name(),
        match params.topology {
            Some(p) => format!(", topology {p}"),
            None => String::new(),
        }
    );
    let results = run_study_parallel(&params, threads);
    println!("\nalgorithm   mean speedup  median  mean inter-arrival");
    println!(
        "download-all        1.00    1.00  {:>10.1} s",
        results.mean_interarrival_download_all()
    );
    for (i, name) in ["one-shot", "global", "local"].iter().enumerate() {
        println!(
            "{name:<12}{:>8.2}{:>8.2}  {:>10.1} s",
            results.mean_speedup(i),
            results.median_speedup(i),
            results.mean_interarrival(i)
        );
    }
}

fn cmd_trace(flags: HashMap<String, String>) {
    let seed = flag(&flags, "--seed", 1998u64);
    let window = span_flag(&flags, "--window-hours", 12, SimDuration::from_hours(1));
    if window.is_zero() {
        reject("--window-hours must be at least 1: an empty window has no bandwidth to summarise");
    }
    let pair = flags
        .get("--pair")
        .map(String::as_str)
        .unwrap_or("0,7")
        .to_string();
    let (a, b) = pair
        .split_once(',')
        .and_then(|(x, y)| Some((x.parse().ok()?, y.parse().ok()?)))
        .unwrap_or_else(|| {
            eprintln!("--pair must be two comma-separated host indices");
            usage()
        });
    if a == b {
        reject("a pair needs two distinct hosts");
    }
    let study = BandwidthStudy::default_study(seed);
    if window > study.duration() {
        // Past the last sample the mean would hold it to the window's end
        // while the range and cv cover only the samples that exist.
        reject(&format!(
            "--window-hours {:.0} runs past the end of the study, which spans {:.0} h",
            window.as_secs_f64() / 3600.0,
            study.duration().as_secs_f64() / 3600.0
        ));
    }
    let hosts = study.hosts();
    let Some(trace) = study.trace(a, b) else {
        eprintln!(
            "unknown pair ({a}, {b}); the study has hosts 0..{}",
            hosts.len()
        );
        std::process::exit(2);
    };
    let s = summarize(trace, window);
    println!(
        "{} - {} over {:.0} h: mean {:.1} KB/s, range {:.1}..{:.1} KB/s, cv {:.2}",
        hosts[a].name,
        hosts[b].name,
        window.as_secs_f64() / 3600.0,
        s.mean_bytes_per_sec / 1024.0,
        s.min_bytes_per_sec / 1024.0,
        s.max_bytes_per_sec / 1024.0,
        s.coefficient_of_variation
    );
    match s.mean_change_interval_secs {
        Some(secs) => println!(">=10% bandwidth changes every {secs:.0} s on average"),
        None => println!("bandwidth never changes by >=10%"),
    }
}

fn cmd_plan(flags: HashMap<String, String>) {
    let exp = experiment_from(&flags);
    let objective = match flags
        .get("--objective")
        .map(String::as_str)
        .unwrap_or("critical-path")
    {
        "critical-path" => Objective::CriticalPath,
        "contended" => Objective::Contended,
        other => {
            eprintln!("unknown objective {other}");
            usage()
        }
    };
    let cfg = exp.template();
    let tree = CombinationTree::build(cfg.tree_shape, cfg.n_servers)
        .unwrap_or_else(|e| reject(&e.to_string()));
    let roster = HostRoster::one_host_per_server(cfg.n_servers);
    let model = &cfg.cost_model;
    let view = exp.links().oracle_at(SimTime::ZERO);

    let download_all = Placement::download_all(&tree, &roster);
    let da_cp = critical_path(&tree, &roster, &download_all, view, model);
    println!("download-all critical path: {:.2} s/partition", da_cp.cost);

    let result = improve_placement(
        &tree,
        &roster,
        download_all,
        view,
        model,
        objective,
        &[],
        &mut SearchScratch::new(),
    );
    println!(
        "one-shot placement ({} iterations): {:.2} s/partition",
        result.iterations, result.cost
    );
    for i in 0..tree.operator_count() {
        let op = OperatorId::new(i);
        println!(
            "  {op} (level {}) -> {}",
            tree.operator_level(op),
            result.placement.site(op)
        );
    }
    let occupancy = nic_occupancy(&tree, &roster, &result.placement, view, model);
    let busiest = occupancy
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "busiest NIC: host {} at {:.2} s/partition",
        busiest.0, busiest.1
    );
}

/// The digests pinned by the repository; drift fails CI until the fixture
/// is regenerated (and the change thereby acknowledged) with
/// `wadc verify --print-golden > tests/golden/digests.txt`.
const GOLDEN_FIXTURE: &str = include_str!("../../tests/golden/digests.txt");

fn cmd_verify(flags: HashMap<String, String>) {
    // Printing the fixture runs nothing else, so the print flag takes no
    // other flag.
    if flags.contains_key("--print-golden") {
        if let Some(other) = flags.keys().filter(|k| *k != "--print-golden").min() {
            reject(&format!(
                "--print-golden takes no other flag: {other} would be ignored"
            ));
        }
        print!("{}", golden::render_fixture());
        return;
    }
    // Not resolve_threads: the verify gate *wants* oversubscription (more
    // workers than cores still shuffles completion order), so the flag is
    // taken as given. Below 2 the threads=1 == threads=N gate would
    // compare the sequential study with itself.
    let threads = flag(&flags, "--threads", 2usize);
    if threads < 2 {
        reject(
            "verify --threads must be at least 2: the threads=1 == threads=N gate \
             would compare the sequential study with itself",
        );
    }
    let seed = flag(&flags, "--seed", 42u64);
    let mut failures: Vec<String> = Vec::new();

    let cases = golden::golden_cases();
    println!("golden: comparing {} pinned scenarios...", cases.len());
    failures.extend(
        golden::compare_fixture(GOLDEN_FIXTURE)
            .into_iter()
            .map(|f| format!("golden: {f}")),
    );

    // The per-pair quick world and the paper-WAN topology world; the
    // second label prefixes that world's failures.
    let worlds = [
        ("quick world", "", Experiment::quick(4, seed)),
        (
            "paper-WAN topology world",
            "topo ",
            Experiment::quick_topo(4, seed),
        ),
    ];
    for (world, tag, exp) in &worlds {
        println!("determinism + invariants: {world}, all four algorithms...");
        for algorithm in all_algorithms() {
            match check_conformance(exp, algorithm) {
                Ok((_, digests)) => println!("  {:<13} {digests}", algorithm.name()),
                Err(e) => failures.push(format!("{tag}conformance: {} {e}", algorithm.name())),
            }
        }
    }

    let mut topo_params = StudyParams::quick(seed);
    topo_params.n_configs = 2;
    topo_params.topology = Some(TopoPreset::PaperWan);
    let studies = [
        ("quick study", "study", "", StudyParams::quick(seed)),
        (
            "quick topology study",
            "topology study",
            "topo ",
            topo_params,
        ),
    ];
    for (name, label, tag, params) in &studies {
        println!("sweep: {name}, threads=1 vs threads={threads}...");
        let sequential = run_study(params).digest();
        let swept = run_study_parallel(params, threads).digest();
        if sequential == swept {
            println!("  {label} digest {sequential:016x} identical across thread counts");
        } else {
            failures.push(format!(
                "{tag}sweep: threads=1 study digest {sequential:016x} != threads={threads} digest {swept:016x}"
            ));
        }
    }

    if !flags.contains_key("--quick") {
        println!("differential: relabeling, degenerate period, cost model, scaling...");
        failures.extend(
            run_suite(seed)
                .into_iter()
                .map(|f| format!("differential: {f}")),
        );

        println!(
            "chaos: loss, outage, blackout, move failure x all four algorithms \
             (threads={threads})..."
        );
        match run_chaos_suite(4, seed, threads) {
            Ok(outcomes) => {
                for o in outcomes {
                    println!("  {o}");
                }
            }
            Err(e) => failures.push(format!("chaos: {e}")),
        }
    }

    if failures.is_empty() {
        println!("verify: all checks passed");
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        eprintln!("verify: {} check(s) failed", failures.len());
        std::process::exit(1);
    }
}

/// `wadc chaos --soak N`: randomized fault plans at scale on the sweep
/// driver, with optional fault-plan shrinking on failure.
fn cmd_chaos_soak(flags: HashMap<String, String>) {
    let n_plans = flag(&flags, "--soak", 0usize);
    if n_plans == 0 {
        reject("--soak must be at least 1");
    }
    // Not resolve_threads: like the verify gate, the soak's report is
    // sworn to be thread-count-invariant, so oversubscription is a
    // feature, not a mistake to clamp away.
    let threads = flag(&flags, "--threads", 2usize);
    if threads == 0 {
        reject("chaos --soak --threads must be at least 1");
    }
    check_size(&flags, 4);
    let servers = flag(&flags, "--servers", 4usize);
    let seed = flag(&flags, "--seed", 1998u64);
    let shrink = flags.contains_key("--shrink");
    check_world(&Experiment::quick(servers, seed), Algorithm::DownloadAll);
    println!(
        "chaos soak: {n_plans} random fault plans on the {servers}-server quick world \
         (seed {seed}, {threads} threads)..."
    );
    match run_soak(servers, seed, n_plans, threads, shrink) {
        Ok(report) => println!("soak passed: {report}"),
        Err(failure) => {
            eprintln!("FAIL {failure}");
            if shrink {
                eprintln!("(plan shown is the shrunk minimal reproduction)");
            } else {
                eprintln!("(re-run with --shrink for a minimal reproduction)");
            }
            std::process::exit(1);
        }
    }
}

fn cmd_chaos(flags: HashMap<String, String>) {
    let mut exp = experiment_from(&flags);
    let algorithm = algorithm_from(&flags);
    check_world(&exp, algorithm);
    let loss = flag(&flags, "--loss", 0.05f64);
    let probe_blackhole = flag(&flags, "--probe-blackhole", 0.0f64);
    let move_failure = flag(&flags, "--move-failure", 0.0f64);
    let outages = flag(&flags, "--outages", 0usize);
    if outages == 0 && flags.contains_key("--outage-mins") {
        reject("--outage-mins needs --outages of at least 1");
    }
    if flags.contains_key("--crash-at-secs") && !flags.contains_key("--crash-host") {
        reject("--crash-at-secs needs --crash-host");
    }
    let mut plan = FaultPlan::none()
        .with_loss(loss)
        .with_probe_blackhole(probe_blackhole)
        .with_move_failure(move_failure);
    if outages > 0 {
        plan = plan.with_random_outages(
            outages,
            span_flag(&flags, "--outage-mins", 5, SimDuration::from_mins(1)),
            SimDuration::from_hours(1),
        );
    }
    let n_servers = exp.template().n_servers;
    if let Some(host) = flags.get("--crash-host") {
        let host: usize = host.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --crash-host: {host}");
            usage()
        });
        plan = plan.crash(
            HostId::new(host),
            SimTime::ZERO + span_flag(&flags, "--crash-at-secs", 30, SimDuration::from_secs(1)),
        );
    }
    // Eager validation: a plan naming a host outside the roster fails
    // here, before any simulation runs, not as a mystery mid-run.
    if let Err(e) = plan.validate_for_hosts(n_servers + 1) {
        eprintln!("invalid fault plan: {e}");
        usage();
    }
    println!(
        "chaos: {} servers x {} images under {} | loss {:.0}% probe-blackhole {:.0}% \
         move-failure {:.0}% outages {} crashes {}",
        n_servers,
        exp.template().workload.images_per_server,
        algorithm.name(),
        loss * 100.0,
        probe_blackhole * 100.0,
        move_failure * 100.0,
        outages,
        plan.crashes.len()
    );
    let clean = exp.run(algorithm);
    exp.template_mut().faults = plan;
    let r = exp.run(algorithm);
    println!(
        "outcome: {} | total {:.0} s | clean run {:.0} s ({:+.1}%)",
        r.outcome.name(),
        r.completion_time.as_secs_f64(),
        clean.completion_time.as_secs_f64(),
        100.0 * (r.completion_time.as_secs_f64() / clean.completion_time.as_secs_f64() - 1.0)
    );
    print!("{}", r.net_stats);
    let mut rollbacks = 0u64;
    let mut aborts = 0u64;
    for e in r.audit.events() {
        match e {
            AuditEvent::RelocationAborted { .. } => rollbacks += 1,
            AuditEvent::ChangeoverAborted { .. } => aborts += 1,
            _ => {}
        }
    }
    println!(
        "move rollbacks {rollbacks} | barrier aborts {aborts} | hosts declared dead {} | \
         operators respawned {}",
        r.hosts_declared_dead, r.operators_respawned
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    type Command = fn(HashMap<String, String>);
    let soak = cmd == "chaos" && rest.iter().any(|a| a == "--soak");
    let (command, allowed): (Command, &[&[&str]]) = match cmd.as_str() {
        "run" => (cmd_run, &[WORLD_FLAGS, RUN_FLAGS]),
        "report" => (cmd_report, &[WORLD_FLAGS]),
        "study" => (cmd_study, &[STUDY_FLAGS]),
        "trace" => (cmd_trace, &[TRACE_FLAGS]),
        "plan" => (cmd_plan, &[PLAN_FLAGS]),
        "verify" => (cmd_verify, &[VERIFY_FLAGS]),
        "chaos" if soak => (cmd_chaos_soak, &[SOAK_FLAGS]),
        "chaos" => (cmd_chaos, &[WORLD_FLAGS, CHAOS_FLAGS]),
        _ => usage(),
    };
    let name = if soak { "chaos --soak" } else { cmd.as_str() };
    command(parse_flags(name, rest, allowed));
}
