//! Perf-regression harness: wall-clock throughput of the three measured
//! hot paths — the DES kernel's event queue, the placement search, and
//! monotone bandwidth-trace lookups — plus an untimed allocation gate over
//! seven studies. End-to-end study time is the repository benchmark's job
//! (`studybench/`), so this harness times no study.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin perf \
//!     [--quick] [--reps N] [--seed S] [--json PATH] [--alloc-gate]
//! ```
//!
//! Emits `BENCH_perf.json` (override with `--json`): schema
//! `wadc-bench-perf-v2`, one row per microbench with its timings (`name`,
//! `iterations`, `units_per_iteration`, `median_secs`, `mean_secs`,
//! `events_per_sec`) and the allocation traffic of the final repetition,
//! measured by the [`wadc_bench::alloc`] counting allocator: `allocs`,
//! `frees`, `bytes_allocated`, `peak_bytes`, `allocs_per_unit`.
//!
//! Timings are informational — the harness fails only on panic, so CI can
//! run it at reduced scale without flaking on machine noise. Allocation
//! counts are *deterministic* (fixed seeds; the sequential studies also
//! single-threaded), so `--alloc-gate` runs each gated study once inside
//! an [`AllocScope`] and exits nonzero if its allocations per engine run
//! or its peak live bytes exceed the committed budgets. The gate never
//! looks at a clock.
//!
//! The workloads are deterministic (fixed seeds, no wall-clock feedback),
//! so two builds of the same scale do the same work and their numbers are
//! directly comparable.

use std::path::PathBuf;
use std::time::Instant;

use wadc_bench::alloc::{AllocScope, AllocStats, CountingAlloc};
use wadc_bench::json::Json;
use wadc_bench::{flag_value, reject};
use wadc_core::algorithms::one_shot_placement;
use wadc_core::knowledge::KnowledgeMode;
use wadc_core::study::{run_study, run_study_parallel, StudyParams};
use wadc_plan::bandwidth::BwMatrix;
use wadc_plan::cost::CostModel;
use wadc_plan::placement::HostRoster;
use wadc_plan::tree::CombinationTree;
use wadc_sim::event::EventQueue;
use wadc_sim::rng::Rng64;
use wadc_sim::stats::median;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_topo::preset::TopoPreset;
use wadc_trace::model::BandwidthTrace;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation budgets for the gated studies, in allocations per engine
/// run. Checked by `--alloc-gate`. The values are the post-pooling
/// measurements with roughly 2× headroom — far below the pre-pooling
/// steady state (~1,756 allocs/run on the quick study), so an accidental
/// reintroduction of per-message or per-poll allocation churn trips the
/// gate long before it costs wall-clock time. Raise them only with a
/// matching analysis in DESIGN.md §6b.
const MAX_ALLOCS_PER_RUN_STUDY_QUICK: f64 = 160.0;
/// `study_reduced` amortizes its one cold warmup over a single
/// configuration at quick scale (~270 allocs/run measured there, ~96 at
/// full scale where four configurations share the arena), so its budget
/// carries the quick-scale measurement.
const MAX_ALLOCS_PER_RUN_STUDY_REDUCED: f64 = 450.0;
/// The quick study over the paper-WAN shared-bottleneck topology. The
/// fair-share model keeps per-flow state, reschedules completions on
/// every recompute, and builds the topology graph per configuration, so
/// its steady state is costlier than a per-pair world's (~87 allocs/run
/// measured vs ~73); the budget is about twice the ~95 measured before
/// the fair-share recompute stopped allocating.
const MAX_ALLOCS_PER_RUN_STUDY_TOPO: f64 = 190.0;
/// Four full-scale paper-WAN configurations with gauged knowledge. Every
/// planning probe of the global algorithm is a fair-shared flow here, so
/// this is the case that sees the fair-share recompute's allocations; the
/// budget is about twice the ~197 allocs/run measured when it was set
/// (~179 now); the allocating recompute measured ~1,487 and fails it.
const MAX_ALLOCS_PER_RUN_STUDY_WAN: f64 = 420.0;
/// The sweep-driver studies: per-worker pools mean each worker pays
/// one cold warmup, so the budget is the sequential per-run budget plus
/// amortized headroom for `threads` warmups (at quick scale the t4
/// variant spreads only 8 configurations over 4 cold arenas, ~151
/// allocs/run measured; full scale sits near 89). The
/// thread-count-dependent slack keeps the gate meaningful per worker
/// without flaking on how the atomic work index happened to deal
/// configurations to workers.
const MAX_ALLOCS_PER_RUN_STUDY_FULL: f64 = 300.0;

/// Peak-resident-byte budgets for the gated studies, also checked by
/// `--alloc-gate`. Peak footprint is what the arena refactor must *not*
/// regress while chasing allocation counts: reset-don't-free recycling
/// keeps capacity parked between runs, and these ceilings bound how much
/// it may park. Measured peaks are ~6.7 MiB for the quick-shaped studies
/// and ~24.5 MiB for the full study (per-worker arenas at the full
/// workload); budgets are ~2x those.
const MAX_PEAK_BYTES_STUDY: u64 = 16 << 20;
const MAX_PEAK_BYTES_STUDY_FULL: u64 = 48 << 20;

struct Args {
    quick: bool,
    reps: usize,
    seed: u64,
    json: PathBuf,
    alloc_gate: bool,
}

/// Parses `std::env::args`; exits 2 with the reason on an unknown flag, a
/// missing or malformed value, or `--reps 0`.
fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        reps: 5,
        seed: 1998,
        json: PathBuf::from("BENCH_perf.json"),
        alloc_gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--alloc-gate" => args.alloc_gate = true,
            "--reps" => args.reps = flag_value(&mut it, &flag),
            "--seed" => args.seed = flag_value(&mut it, &flag),
            "--json" => args.json = flag_value(&mut it, &flag),
            other => reject(&format!(
                "unknown flag {other}; known: --quick --reps --seed --json --alloc-gate"
            )),
        }
    }
    if args.reps == 0 {
        reject("--reps must be at least 1: a bench of no repetitions times nothing");
    }
    args
}

/// One bench's timings: `reps` wall-clock measurements of an iteration
/// that performs `units` units of work, plus the allocation traffic of
/// the final repetition (the steady state).
struct Bench {
    name: &'static str,
    units: u64,
    secs: Vec<f64>,
    alloc: AllocStats,
}

impl Bench {
    fn median_secs(&self) -> f64 {
        median(&self.secs).unwrap_or(0.0)
    }

    fn mean_secs(&self) -> f64 {
        self.secs.iter().sum::<f64>() / self.secs.len().max(1) as f64
    }

    fn events_per_sec(&self) -> f64 {
        let m = self.median_secs();
        if m > 0.0 {
            self.units as f64 / m
        } else {
            0.0
        }
    }

    fn allocs_per_unit(&self) -> f64 {
        self.alloc.allocs as f64 / self.units.max(1) as f64
    }
}

fn run_bench(name: &'static str, reps: usize, mut iter: impl FnMut() -> u64) -> Bench {
    let mut secs = Vec::with_capacity(reps);
    let mut units = 0;
    let mut alloc = AllocStats::default();
    for _ in 0..reps {
        let scope = AllocScope::begin();
        let t0 = Instant::now();
        units = iter();
        secs.push(t0.elapsed().as_secs_f64());
        alloc = scope.finish();
    }
    let b = Bench {
        name,
        units,
        secs,
        alloc,
    };
    println!(
        "{:32} {:>10.1} units/s  (median {:.4} s, mean {:.4} s, {} reps, {:.1} allocs/unit)",
        b.name,
        b.events_per_sec(),
        b.median_secs(),
        b.mean_secs(),
        b.secs.len(),
        b.allocs_per_unit(),
    );
    b
}

/// Kernel throughput without cancellations: schedule a pool, then a long
/// pop-one/schedule-one steady state — the engine's common case.
fn event_queue_schedule_pop(n: usize, seed: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng64::seed_from_u64(seed);
    let pool = (n / 8).max(64);
    for i in 0..pool {
        q.schedule(SimTime::from_micros(rng.range_u64(1, 1_000_000)), i as u64);
    }
    let mut ops = pool as u64;
    for _ in 0..n {
        let (_, _, v) = q.pop().expect("pool is never empty");
        q.schedule_in(SimDuration::from_micros(rng.range_u64(1, 1_000_000)), v);
        ops += 2;
    }
    while q.pop().is_some() {
        ops += 1;
    }
    std::hint::black_box(q.now());
    ops
}

/// Kernel throughput with true cancellation pressure: every iteration pops
/// one event, schedules two, and cancels one remembered handle — the
/// retry/timeout pattern the fault-recovery machinery generates.
fn event_queue_mix(n: usize, seed: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng64::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(n + 64);
    for i in 0..64u64 {
        ids.push(q.schedule(SimTime::from_micros(rng.range_u64(1, 10_000_000)), i));
    }
    let mut ops = ids.len() as u64;
    for i in 0..n {
        if q.pop().is_some() {
            ops += 1;
        }
        for _ in 0..2 {
            let at = q.now() + SimDuration::from_micros(rng.range_u64(1, 10_000_000));
            ids.push(q.schedule(at, i as u64));
            ops += 1;
        }
        let victim = ids.swap_remove(rng.range_usize(ids.len()));
        q.cancel(victim);
        ops += 1;
    }
    while q.pop().is_some() {
        ops += 1;
    }
    std::hint::black_box(q.now());
    ops
}

/// Full one-shot placement searches over `configs` distinct bandwidth
/// matrices on an `n`-server complete binary tree.
fn placement_search(n: usize, configs: usize, seed: u64) -> u64 {
    let tree = CombinationTree::complete_binary(n).expect("power-of-two server count");
    let roster = HostRoster::one_host_per_server(n);
    let model = CostModel::paper_defaults();
    let hosts = roster.host_count();
    let mut acc = 0.0f64;
    for cfg in 0..configs {
        let mut rng = Rng64::seed_from_u64(seed ^ (cfg as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut bw = BwMatrix::new(hosts);
        for a in 0..hosts {
            for b in (a + 1)..hosts {
                bw.set(
                    wadc_plan::ids::HostId::new(a),
                    wadc_plan::ids::HostId::new(b),
                    rng.range_f64(2_000.0, 2_000_000.0),
                );
            }
        }
        let r = one_shot_placement(&tree, &roster, &bw, &model);
        acc += r.cost;
    }
    std::hint::black_box(acc);
    configs as u64
}

/// Nearly monotone `transfer_duration` queries against one long
/// multi-segment trace — the access pattern of the network layer's link
/// lookups during a run.
fn trace_transfers(queries: usize, segments: usize, seed: u64) -> u64 {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut steps = Vec::with_capacity(segments);
    let mut t = 0.0f64;
    for _ in 0..segments {
        steps.push((t, rng.range_f64(4_000.0, 4_000_000.0)));
        t += rng.range_f64(10.0, 60.0);
    }
    let trace = BandwidthTrace::from_steps(&steps).expect("valid synthetic trace");
    let horizon = SimTime::from_secs_f64(t);
    let mut at = SimTime::ZERO;
    let mut acc = 0u64;
    for _ in 0..queries {
        at += SimDuration::from_micros(rng.range_u64(100_000, 30_000_000));
        if at > horizon {
            at = SimTime::ZERO; // wrap, as a fresh run's transfers do
        }
        let d = trace.transfer_duration(262_144, at);
        acc = acc.wrapping_add(d.as_micros());
    }
    std::hint::black_box(acc);
    queries as u64
}

/// A reduced paper-main study on the sequential driver, so its counts are
/// not scheduler-dependent.
fn study_reduced(configs: usize, seed: u64) -> u64 {
    let mut p = StudyParams::paper_main(seed);
    p.n_configs = configs;
    p.trace_window = SimDuration::from_hours(2);
    p.workload.images_per_server = 16;
    let runs_per_config = 1 + p.algorithms.len() as u64; // + download-all
    let results = run_study(&p);
    std::hint::black_box(results.outcomes.len());
    configs as u64 * runs_per_config
}

/// The full quick-study configuration — identical at both harness scales,
/// so its allocation counts are mode-stable and can carry a committed
/// regression threshold. This is where study-level sharing (one world per
/// config instead of four) shows up.
fn study_quick(seed: u64) -> u64 {
    let p = StudyParams::quick(seed);
    let runs_per_config = 1 + p.algorithms.len() as u64; // + download-all
    let results = run_study(&p);
    std::hint::black_box(results.outcomes.len());
    p.n_configs as u64 * runs_per_config
}

/// The quick study over the paper-WAN topology: every configuration
/// routes regional access links over two shared oceanic backbones, so
/// each run pays the max-min fair-share machinery (flow management,
/// completion rescheduling, trace-boundary recomputes) end to end.
fn study_topo(seed: u64) -> u64 {
    let mut p = StudyParams::quick(seed);
    p.topology = Some(TopoPreset::PaperWan);
    let runs_per_config = 1 + p.algorithms.len() as u64; // + download-all
    let results = run_study(&p);
    std::hint::black_box(results.outcomes.len());
    p.n_configs as u64 * runs_per_config
}

/// Four configurations of the paper's full study over the paper-WAN
/// topology with gauged knowledge — the shape of the benchmark's
/// `paper_wan` workload, identical at both harness scales. Global's
/// planning probes cross the shared access links, so each is a
/// fair-shared flow and every one pays a fair-share recompute.
fn study_wan(seed: u64) -> u64 {
    let mut p = StudyParams::paper_main(seed);
    p.n_configs = 4;
    p.topology = Some(TopoPreset::PaperWan);
    p.knowledge = KnowledgeMode::Gauged;
    let runs_per_config = 1 + p.algorithms.len() as u64; // + download-all
    let results = run_study(&p);
    std::hint::black_box(results.outcomes.len());
    p.n_configs as u64 * runs_per_config
}

/// The quick study through the sweep driver at `threads` workers:
/// per-worker pools must hold the same budget as the sequential run.
fn study_quick_threaded(seed: u64, threads: usize) -> u64 {
    let p = StudyParams::quick(seed);
    let runs_per_config = 1 + p.algorithms.len() as u64; // + download-all
    let results = run_study_parallel(&p, threads);
    std::hint::black_box(results.digest());
    p.n_configs as u64 * runs_per_config
}

/// The paper's *full* study — every configuration at the full workload
/// (180 images/server, 24 h trace window) — on the sweep driver at
/// `threads` workers; the digest is consumed so the whole merge is
/// forced.
fn study_full(configs: usize, seed: u64, threads: usize) -> u64 {
    let mut p = StudyParams::paper_main(seed);
    p.n_configs = configs;
    let runs_per_config = 1 + p.algorithms.len() as u64; // + download-all
    let results = run_study_parallel(&p, threads);
    std::hint::black_box(results.digest());
    configs as u64 * runs_per_config
}

/// Runs each gated study once inside an [`AllocScope`] and checks its
/// allocations per engine run and its peak live bytes against the
/// budgets. Returns `false` if any study exceeds one.
fn alloc_gate(quick: bool, seed: u64) -> bool {
    let (reduced_cfgs, full_cfgs) = if quick { (1, 8) } else { (4, 300) };
    let studies: [(&str, &dyn Fn() -> u64); 7] = [
        ("study_reduced", &|| study_reduced(reduced_cfgs, seed)),
        ("study_quick", &|| study_quick(seed)),
        ("study_quick_t2", &|| study_quick_threaded(seed, 2)),
        ("study_topo", &|| study_topo(seed)),
        ("study_wan", &|| study_wan(seed)),
        ("study_full_t1", &|| study_full(full_cfgs, seed, 1)),
        ("study_full_t4", &|| study_full(full_cfgs, seed, 4)),
    ];
    let mut ok = true;
    for (name, study) in studies {
        let (limit, peak_limit) = match name {
            "study_reduced" => (MAX_ALLOCS_PER_RUN_STUDY_REDUCED, MAX_PEAK_BYTES_STUDY),
            "study_quick" | "study_quick_t2" => {
                (MAX_ALLOCS_PER_RUN_STUDY_QUICK, MAX_PEAK_BYTES_STUDY)
            }
            "study_topo" => (MAX_ALLOCS_PER_RUN_STUDY_TOPO, MAX_PEAK_BYTES_STUDY),
            "study_wan" => (MAX_ALLOCS_PER_RUN_STUDY_WAN, MAX_PEAK_BYTES_STUDY_FULL),
            _ => (MAX_ALLOCS_PER_RUN_STUDY_FULL, MAX_PEAK_BYTES_STUDY_FULL),
        };
        let scope = AllocScope::begin();
        let runs = study();
        let alloc = scope.finish();
        let got = alloc.allocs as f64 / runs.max(1) as f64;
        if got > limit {
            eprintln!("alloc gate FAIL: {name} at {got:.1} allocs/run exceeds budget {limit:.1}");
            ok = false;
        } else {
            println!("alloc gate ok:   {name} at {got:.1} allocs/run (budget {limit:.1})");
        }
        let peak = alloc.peak_bytes;
        if peak > peak_limit {
            eprintln!("alloc gate FAIL: {name} peaked at {peak} bytes, budget {peak_limit}");
            ok = false;
        } else {
            println!(
                "alloc gate ok:   {name} peak {peak} bytes, {:.1} MiB (budget {:.0} MiB)",
                peak as f64 / (1 << 20) as f64,
                peak_limit as f64 / (1 << 20) as f64
            );
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    let scale = if args.quick { "quick" } else { "full" };
    println!("perf harness ({scale} scale, seed {})", args.seed);

    let (ev_n, mix_n, ps_cfgs, tq_n) = if args.quick {
        (20_000, 2_000, 2, 20_000)
    } else {
        (200_000, 20_000, 8, 200_000)
    };
    let seed = args.seed;
    let reps = args.reps;

    let benches = [
        run_bench("event_queue_schedule_pop", reps, || {
            event_queue_schedule_pop(ev_n, seed)
        }),
        run_bench("event_queue_mix", reps, || event_queue_mix(mix_n, seed)),
        run_bench("placement_search_8", reps, || {
            placement_search(8, ps_cfgs, seed)
        }),
        run_bench("placement_search_24", reps, || {
            placement_search(24, ps_cfgs.div_ceil(2), seed)
        }),
        run_bench("trace_transfers", reps, || {
            trace_transfers(tq_n, 2_000, seed)
        }),
    ];

    let rows: Vec<Json> = benches
        .iter()
        .map(|b| {
            Json::obj()
                .field("name", b.name)
                .field("iterations", b.secs.len())
                .field("units_per_iteration", b.units)
                .field("median_secs", b.median_secs())
                .field("mean_secs", b.mean_secs())
                .field("events_per_sec", b.events_per_sec())
                .field("allocs", b.alloc.allocs)
                .field("frees", b.alloc.frees)
                .field("bytes_allocated", b.alloc.bytes_allocated)
                .field("peak_bytes", b.alloc.peak_bytes)
                .field("allocs_per_unit", b.allocs_per_unit())
        })
        .collect();
    let json = Json::obj()
        .field("schema", "wadc-bench-perf-v2")
        .field("mode", scale)
        .field("seed", args.seed)
        .field("benches", rows);
    std::fs::write(&args.json, json.to_string_pretty())
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.json.display()));
    println!("results archived to {}", args.json.display());

    if args.alloc_gate && !alloc_gate(args.quick, seed) {
        eprintln!("allocation regression — see DESIGN.md §6b");
        std::process::exit(1);
    }
}
