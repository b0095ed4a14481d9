//! The repository benchmark: one workload of the paper's study per
//! invocation, run in this process on one thread with the same public
//! calls as `wadc study`.
//!
//! ```sh
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload paper_main [--seed 1998] [--seconds 10] [--trace 0|1]
//! ```
//!
//! A pass runs every configuration of every study of the workload once.
//! With `--trace 0` the benchmark makes passes for as long as the next
//! one still fits in `--seconds`, at least [`MIN_PASSES`] of them, and
//! prints the end-to-end metrics. The passes after the first run only the
//! first [`TIMED_CONFIGS`] configurations of each study, so each of their
//! experiment builds and runs is charged its best host time over many
//! passes: the shared host's slow spells, which can double a pass's time,
//! then drop out. Study set-ups are timed in the first pass and re-timed
//! in turn after the others, and each is charged its best time too.
//!
//! With `--trace 1` it makes an untraced pass, a pass with spans around
//! every call into the program, and a pass with a counting recorder
//! attached, and prints the per-layer metrics.
//!
//! Either way every run is checked against `run_study` for the same
//! parameters, and the last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. The exit code is nonzero
//! when the check fails.

mod pass;
mod recorder;
mod spans;
mod stats;
mod workload;

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use wadc_bench::alloc::CountingAlloc;
use wadc_bench::json::Json;
use wadc_core::engine::{Algorithm, RunScratch};
use wadc_core::study::StudyParams;
use wadc_sim::stats::median;

use crate::pass::{time_setup, Pass, PassResult, Pools, Probe, Reference, SearchTiming};
use crate::recorder::CountingRecorder;
use crate::spans::{allocs, busy_ns, Accounting, SpanLog};
use crate::stats::{tail, TAIL_BEYOND};
use crate::workload::{algorithm_key, study_algorithms, workload_digest, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fewest passes an end-to-end run makes, whatever `--seconds` asks for.
const MIN_PASSES: usize = 3;

/// Configurations of each study that the passes after the first re-time.
/// The end-to-end times are of these configurations' pieces: the host's
/// slow spells last up to minutes, and only many samples of each piece,
/// spread over the whole run, find the fast moments between them. Their
/// figures vary little from one workload seed to another, while the
/// simulated and allocation metrics, from the first pass, need every
/// configuration.
const TIMED_CONFIGS: usize = 3;

/// How far the traced pass's layer spans may fall short of its wall time,
/// as a share of it.
const ACCOUNTING_TOLERANCE: f64 = 0.01;

/// The layers the traced pass's wall time is split over. They are
/// disjoint spans; `bench.own` is the benchmark's own work between
/// calls (digests, checks, drops).
const LAYERS: [&str; 6] = [
    "trace.synth",
    "trace.pool",
    "core.experiment_build",
    "core.world_build",
    "core.run_loop",
    "bench.own",
];

const USAGE: &str = "usage: wadc-studybench --workload paper_main|paper_wan|wide_short|crash_loss \
[--seed N (default 1998)] [--seconds S (default 10)] [--trace 0|1 (default 0)]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperMain,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported number.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        note: String::new(),
    }
}

/// What an invocation prints last.
struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Whether the benchmark ran what `wadc study` runs: every study's
    /// fold matched `run_study`'s digest (and the pinned digest at the
    /// default seed), and the traced pass's layers added up. A run that
    /// panicked or changed digest also breaks its study's fold; one that
    /// broke an invariant or ended in an outcome the workload does not
    /// accept is the program's own reproducible behaviour, and counts in
    /// `failed` only.
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn print(&self) {
        // `failed_run_share` is printed here but carried in the result
        // line as `failed` and `attempted`: a metric must never read 0.
        let failed_share = Metric {
            note: format!("{} of {} runs", self.failed, self.attempted),
            ..metric(
                "failed_run_share",
                "ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
        };
        for m in self.metrics.iter().chain([&failed_share]) {
            println!(
                "  {:<36} {:>14} {:<8} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.note
            );
        }
        for p in &self.problems {
            println!("INCORRECT: {p}");
        }
        let metrics = self.metrics.iter().fold(Json::obj(), |obj, m| {
            obj.field(
                &m.name,
                Json::obj().field("value", m.value).field("unit", m.unit),
            )
        });
        let line = Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics);
        println!("{}", line.to_string_compact());
    }
}

/// Everything both kinds of run share: the workload's studies and the
/// digests `run_study` gives for them.
struct Bench {
    workload: Workload,
    seed: u64,
    studies: Vec<StudyParams>,
    algorithms: Vec<Algorithm>,
    references: Vec<Reference>,
    problems: Vec<String>,
}

impl Bench {
    /// Builds the studies and computes their reference digests (untimed).
    fn new(args: &Args) -> Bench {
        let studies = args.workload.studies(args.seed);
        let t = Instant::now();
        let mut problems = Vec::new();
        let references: Vec<Reference> = studies
            .iter()
            .map(|p| {
                Reference::compute(p).unwrap_or_else(|| {
                    problems.push(format!("run_study panicked at seed {}", p.master_seed));
                    Reference::default()
                })
            })
            .collect();
        let digest = workload_digest(
            &references
                .iter()
                .map(|r| r.study_digest)
                .collect::<Vec<_>>(),
        );
        eprintln!(
            "{}: reference run_study of {} studies took {:.2} s, workload digest {digest:016x}",
            args.workload.name(),
            studies.len(),
            t.elapsed().as_secs_f64(),
        );
        if args.seed == DEFAULT_SEED && digest != args.workload.pinned_digest() {
            problems.push(format!(
                "workload digest {digest:016x} differs from the digest pinned at seed \
                 {DEFAULT_SEED}, {:016x}",
                args.workload.pinned_digest()
            ));
        }
        Bench {
            workload: args.workload,
            seed: args.seed,
            algorithms: study_algorithms(&studies[0]),
            studies,
            references,
            problems,
        }
    }

    fn pass(&self) -> Pass<'_> {
        Pass {
            workload: self.workload,
            studies: &self.studies,
            algorithms: &self.algorithms,
            references: &self.references,
        }
    }

    /// Records a pass's failures and checks its folds against `run_study`.
    fn absorb(&mut self, label: &str, pass: &PassResult) {
        for f in &pass.failures {
            eprintln!("{label} pass: failed run: {f}");
        }
        for ((params, reference), fold) in
            self.studies.iter().zip(&self.references).zip(&pass.folds)
        {
            if *fold != reference.study_digest {
                self.problems.push(format!(
                    "{label} pass: study at seed {} folds to {fold:016x}, run_study to {:016x}",
                    params.master_seed, reference.study_digest
                ));
            }
        }
    }

    fn runs_per_pass(&self) -> usize {
        self.studies.iter().map(|p| p.n_configs).sum::<usize>() * self.algorithms.len()
    }

    fn describe(&self) -> String {
        format!(
            "{} seed {}: {} studies x {} configurations x {} algorithms = {} runs per pass",
            self.workload.name(),
            self.seed,
            self.studies.len(),
            self.studies[0].n_configs,
            self.algorithms.len(),
            self.runs_per_pass()
        )
    }
}

/// Each piece's best host time over the passes: `piece(pass)` lists one
/// pass's pieces in pass order.
fn best_of<P>(passes: &[P], piece: impl Fn(&P) -> Vec<u64>) -> Vec<u64> {
    let all: Vec<Vec<u64>> = passes.iter().map(piece).collect();
    (0..all[0].len())
        .map(|i| all.iter().map(|p| p[i]).min().expect("at least one pass"))
        .collect()
}

/// The pieces of the first `timed` configurations of every study, from a
/// pass's `pieces`: `per_study` configurations of each study, in study
/// order, each with `per_config` pieces.
fn timed_pieces(pieces: &[u64], per_study: usize, per_config: usize, timed: usize) -> Vec<u64> {
    pieces
        .chunks(per_study * per_config)
        .flat_map(|study| &study[..timed.min(per_study) * per_config])
        .copied()
        .collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The end-to-end run: passes for as long as the next one still
/// fits in `seconds`. The first pass sets every study up and runs every
/// configuration, as `wadc study` does. The rest reuse pools built in
/// between and run the first [`TIMED_CONFIGS`] configurations of each
/// study, and after each one study's set-up is re-timed, in turn.
fn timed_run(args: &Args) -> Report {
    let mut bench = Bench::new(args);
    let mut scratch = RunScratch::new();
    let started = Instant::now();
    let first = bench.pass().run(&mut scratch, &mut Probe::Timed);
    bench.absorb("timed", &first);
    let mut setup = first.setup_ns.clone();
    let pools = Pools::build(&bench.studies);
    let mut passes = vec![first];
    let budget = Duration::from_secs_f64(args.seconds);
    let mut last = Duration::ZERO;
    while passes.len() < MIN_PASSES || started.elapsed() + last <= budget {
        let t = Instant::now();
        let pass = bench.pass().run_on(&pools, TIMED_CONFIGS, &mut scratch);
        bench.absorb("timed", &pass);
        let j = passes.len() % setup.len();
        setup[j] = setup[j].min(time_setup(&bench.studies[j]));
        passes.push(pass);
        last = t.elapsed();
    }
    drop(pools);

    let studies = bench.studies.len();
    let n_algs = bench.algorithms.len();
    let experiment = best_of(&passes, |p| {
        let per_study = p.experiment_ns.len() / studies;
        timed_pieces(&p.experiment_ns, per_study, 1, TIMED_CONFIGS)
    });
    let run = best_of(&passes, |p| {
        let per_study = p.experiment_ns.len() / studies;
        timed_pieces(&p.runs, per_study, n_algs, TIMED_CONFIGS)
    });
    let run_ms: Vec<f64> = run.iter().map(|&ns| ns as f64 / 1e6).collect();
    let busy_s = secs(experiment.iter().chain(&run).sum());
    let tail = tail(&run_ms, TAIL_BEYOND).expect("a pass has more than ten runs");
    let first = &passes[0];
    let n_runs = run.len();
    let attempted = passes.iter().map(|p| p.runs.len()).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();

    println!("{}", bench.describe());
    let walls: Vec<f64> = passes[1..].iter().map(|p| secs(p.wall_ns)).collect();
    println!(
        "  {} passes in {:.2} s: the first {:.2} s, the rest {:.2} s to {:.2} s (median {:.2} s); \
         each piece of the first {TIMED_CONFIGS} configurations of each study timed at its best \
         of {}",
        passes.len(),
        started.elapsed().as_secs_f64(),
        secs(first.wall_ns),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        median(&walls).unwrap_or(0.0),
        passes.len(),
    );
    let metrics = vec![
        Metric {
            note: format!("{n_runs} runs over {busy_s:.3} s of experiment builds and runs"),
            ..metric("runs_per_s", "runs/s", n_runs as f64 / busy_s)
        },
        Metric {
            note: format!("median of {n_runs} runs"),
            ..metric("run_ms_p50", "ms", median(&run_ms).unwrap_or(0.0))
        },
        Metric {
            note: format!(
                "p{:.2} of {n_runs} runs, {TAIL_BEYOND} runs beyond",
                tail.percentile
            ),
            ..metric("run_ms_tail", "ms", tail.value)
        },
        Metric {
            note: format!("median over {} studies of each set-up's best", setup.len()),
            ..metric(
                "setup_s",
                "s",
                median(&setup.iter().map(|&ns| secs(ns)).collect::<Vec<_>>()).unwrap_or(0.0),
            )
        },
        Metric {
            note: "first pass, set-ups excluded, cold arena included".to_string(),
            ..metric(
                "allocs_per_run",
                "count",
                first.allocs as f64 / first.runs.len() as f64,
            )
        },
        Metric {
            note: "first pass, largest study, its set-up included".to_string(),
            ..metric(
                "peak_heap_mib",
                "MiB",
                first.peak_bytes as f64 / (1u64 << 20) as f64,
            )
        },
        Metric {
            note: format!(
                "simulated; median of {} configurations",
                first.global_speedups.len()
            ),
            ..metric(
                "sim_speedup_global_p50",
                "ratio",
                median(&first.global_speedups).unwrap_or(0.0),
            )
        },
    ];
    Report {
        attempted,
        failed,
        problems: bench.problems,
        metrics,
    }
}

/// The traced run: an untraced pass, a traced pass and an observed pass,
/// each on a cold arena.
fn traced_run(args: &Args) -> Report {
    let mut bench = Bench::new(args);
    let runs_per_pass = bench.runs_per_pass();

    let plain = bench.pass().run(&mut RunScratch::new(), &mut Probe::Timed);
    bench.absorb("untraced", &plain);

    let configs = runs_per_pass / bench.algorithms.len();
    let mut log =
        SpanLog::with_capacity(1 + 3 * bench.studies.len() + 2 * configs + 3 * runs_per_pass);
    let root = log.open("bench.traced", None, None);
    let root_id = root.id();
    let traced = bench.pass().run(
        &mut RunScratch::new(),
        &mut Probe::Traced {
            log: &mut log,
            parent: root_id,
        },
    );
    log.close(root);
    bench.absorb("traced", &traced);

    let recorder = Rc::new(RefCell::new(CountingRecorder::new()));
    let mut search = SearchTiming::default();
    let observed = bench.pass().run(
        &mut RunScratch::new(),
        &mut Probe::Observed {
            recorder: &recorder,
            search: &mut search,
        },
    );
    bench.absorb("observed", &observed);
    let recorder = recorder.borrow();

    let spans = log.spans();
    let accounting = Accounting::of(spans, root_id, &LAYERS);
    if !accounting.balances(ACCOUNTING_TOLERANCE) {
        bench.problems.push(format!(
            "layer spans leave {:.2}% of the traced wall time unaccounted, over the {:.0}% \
             tolerance",
            100.0 * accounting.unaccounted_share(),
            100.0 * ACCOUNTING_TOLERANCE
        ));
    }
    let path = spans_path(bench.workload, bench.seed);
    if let Err(e) = log.write_jsonl(&path) {
        bench
            .problems
            .push(format!("writing {}: {e}", path.display()));
    }

    println!("{}", bench.describe());
    println!(
        "  traced pass {:.2} s wall (untraced {:.2} s); spans in {}",
        secs(accounting.wall_ns),
        secs(plain.wall_ns),
        path.display()
    );
    println!("  layer shares of the traced wall time:");
    let wall = accounting.wall_ns.max(1) as f64;
    let share = |ns: u64| 100.0 * ns as f64 / wall;
    for &(name, ns) in &accounting.busy {
        println!("    {name:<24} {:>9.3} s {:>6.2}%", secs(ns), share(ns));
        if name == "core.run_loop" {
            for alg in &bench.algorithms {
                let key = algorithm_key(*alg);
                let ns = busy_ns(spans, root_id, name, Some(key));
                println!("      .{key:<21} {:>9.3} s {:>6.2}%", secs(ns), share(ns));
            }
        }
    }
    println!(
        "    {:<24} {:>9.3} s {:>6.2}%  (tolerance {:.0}%)",
        "(unaccounted)",
        accounting.unaccounted_ns as f64 / 1e9,
        100.0 * accounting.unaccounted_share(),
        100.0 * ACCOUNTING_TOLERANCE
    );

    let c = &traced.counts;
    let runs = c.total_runs().max(1) as f64;
    let per_run = |x: u64| x as f64 / runs;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let busy_s = |name: &str, tag: Option<&str>| secs(busy_ns(spans, root_id, name, tag));
    let allocs_per = |name: &str, tag: Option<&str>| {
        let (a, n) = allocs(spans, root_id, name, tag);
        a as f64 / n.max(1) as f64
    };
    let run_total_ns = |p: &PassResult| p.runs.iter().sum::<u64>();

    let mut metrics = vec![
        metric("trace.synth_s", "s", busy_s("trace.synth", None)),
        metric("trace.pool_s", "s", busy_s("trace.pool", None)),
        metric(
            "core.experiment_build_s",
            "s",
            busy_s("core.experiment_build", None),
        ),
        metric(
            "core.experiment_build_allocs",
            "count",
            allocs_per("core.experiment_build", None),
        ),
        metric("core.world_build_s", "s", busy_s("core.world_build", None)),
        metric(
            "core.world_build_allocs",
            "count",
            allocs_per("core.world_build", None),
        ),
    ];
    for alg in &bench.algorithms {
        let key = algorithm_key(*alg);
        metrics.push(metric(
            format!("core.run_loop_s.{key}"),
            "s",
            busy_s("core.run_loop", Some(key)),
        ));
        metrics.push(metric(
            format!("core.run_loop_allocs.{key}"),
            "count",
            allocs_per("core.run_loop", Some(key)),
        ));
    }
    for (a, alg) in bench.algorithms.iter().enumerate().skip(1) {
        metrics.push(metric(
            format!("plan.searches_per_run.{}", algorithm_key(*alg)),
            "count",
            ratio(c.planner_runs[a], c.runs[a]),
        ));
    }
    metrics.extend([
        metric(
            "plan.changed_share",
            "ratio",
            ratio(c.planner_changed, c.planner_ran),
        ),
        metric("plan.search_us", "us", search.mean_us()),
        metric("net.transfers_per_run", "count", per_run(c.transfers)),
        metric("net.mb_per_run", "MB", per_run(c.bytes) / 1e6),
        metric("net.retransmits_per_run", "count", per_run(c.retransmits)),
        metric("net.dropped_per_run", "count", per_run(c.dropped)),
        metric("core.relocations_per_run", "count", per_run(c.relocations)),
        metric("core.changeovers_per_run", "count", per_run(c.changeovers)),
        metric(
            "core.changeover_commit_share",
            "ratio",
            ratio(c.committed, c.proposed),
        ),
        metric(
            "core.hosts_declared_dead_per_run",
            "count",
            per_run(c.declared_dead),
        ),
        metric(
            "core.operators_respawned_per_run",
            "count",
            per_run(c.respawned),
        ),
        metric(
            "topo.shared_path_transfer_share",
            "ratio",
            recorder.shared_transfer_share(),
        ),
        metric(
            "monitor.est_rel_error_p50",
            "ratio",
            recorder.est_error.quantile(0.5).unwrap_or(0.0),
        ),
        metric(
            "obs.attach_overhead",
            "ratio",
            run_total_ns(&observed) as f64 / run_total_ns(&plain).max(1) as f64 - 1.0,
        ),
        metric(
            "bench.trace_overhead",
            "ratio",
            accounting.wall_ns as f64 / plain.wall_ns.max(1) as f64 - 1.0,
        ),
        metric("bench.own_s", "s", busy_s("bench.own", None)),
        metric(
            "bench.unaccounted_share",
            "ratio",
            accounting.unaccounted_share(),
        ),
    ]);
    Report {
        attempted: 3 * runs_per_pass,
        failed: plain.failed + traced.failed + observed.failed,
        problems: bench.problems,
        metrics,
    }
}

/// Where the traced run writes its spans: beside the benchmark's sources.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", workload.name()))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_default() {
        let a = parse(&["--workload", "crash_loss"]).expect("valid");
        assert_eq!(a.workload, Workload::CrashLoss);
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 10.0, false));
        let a = parse(&[
            "--workload",
            "wide_short",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn each_piece_is_charged_its_best_pass() {
        let passes = [vec![5, 1, 9], vec![3, 4, 9], vec![4, 2, 8]];
        assert_eq!(best_of(&passes, |p| p.clone()), [3, 1, 8]);
        assert_eq!(best_of(&passes[..1], |p| p.clone()), [5, 1, 9]);
    }

    #[test]
    fn timed_pieces_keep_the_first_configurations_of_each_study() {
        // Two studies of three configurations, two pieces per configuration.
        let full = [1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 15, 16];
        assert_eq!(timed_pieces(&full, 3, 2, 2), [1, 2, 3, 4, 11, 12, 13, 14]);
        // A pass that ran only the timed configurations is kept whole.
        let part = [1, 2, 3, 4, 11, 12, 13, 14];
        assert_eq!(timed_pieces(&part, 2, 2, 2), part);
        assert_eq!(timed_pieces(&full, 3, 2, 5), full);
    }

    #[test]
    fn bad_flags_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "paper"]).is_err());
        assert!(parse(&["--workload", "paper_main", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "paper_main", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload", "paper_main", "--threads", "2"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }
}
