//! The allocation gate: runs seven studies once each, untimed, and exits 1
//! if one makes more heap allocations per engine run, or peaks at more
//! live bytes, than its committed budget.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin perf [-- --quick]
//! ```
//!
//! The gate never reads a clock: time, end to end and per layer, is the
//! repository benchmark's job (`studybench/`). Every study runs at the seed
//! its budgets were measured at, so the sequential studies' counts repeat
//! exactly; the two threaded studies' counts move a little with how the
//! sweep driver deals configurations to its workers, which their budgets
//! absorb. `--quick` shrinks the two studies whose size scales
//! (`study_reduced` to one configuration, `study_full_*` to eight); the
//! others are the same at both scales.
//!
//! The allocation budgets sit at about twice the measured counts, far below
//! the quick study's pre-pooling ~1,756 allocations per run, so per-message
//! allocation churn trips the gate long before it costs wall-clock time.
//! The peak budgets bound how much capacity the reset-don't-free run arenas
//! may park between runs. Raise a budget only with a matching analysis in
//! DESIGN.md §6b.

use wadc_bench::alloc::{AllocScope, CountingAlloc};
use wadc_bench::reject;
use wadc_core::knowledge::KnowledgeMode;
use wadc_core::study::{run_study_parallel, StudyParams};
use wadc_sim::time::SimDuration;
use wadc_topo::preset::TopoPreset;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The master seed every budget was measured at.
const SEED: u64 = 1998;

const MIB: u64 = 1 << 20;

/// A gated study and its budgets.
struct Gated {
    name: &'static str,
    /// The study's parameters at full scale (`false`) or `--quick` scale.
    study: fn(bool) -> StudyParams,
    /// Sweep-driver workers; at 1 the study runs sequentially.
    threads: usize,
    /// Most allocations per engine run, download-all runs included.
    max_allocs_per_run: f64,
    /// Most live bytes above the live total when the study starts.
    max_peak_bytes: u64,
}

/// The full study at `--quick`'s eight configurations or the paper's 300.
fn full_study(quick: bool) -> StudyParams {
    let mut p = StudyParams::paper_main(SEED);
    p.n_configs = if quick { 8 } else { 300 };
    p
}

const GATED: [Gated; 7] = [
    // A reduced paper-main study. At quick scale its one configuration
    // pays the arena's cold warmup alone (~259 allocations per run, against
    // ~89 at full scale where four configurations share it).
    Gated {
        name: "study_reduced",
        study: |quick| {
            let mut p = StudyParams::paper_main(SEED);
            p.n_configs = if quick { 1 } else { 4 };
            p.trace_window = SimDuration::from_hours(2);
            p.workload.images_per_server = 16;
            p
        },
        threads: 1,
        max_allocs_per_run: 450.0,
        max_peak_bytes: 16 * MIB,
    },
    Gated {
        name: "study_quick",
        study: |_| StudyParams::quick(SEED),
        threads: 1,
        max_allocs_per_run: 160.0,
        max_peak_bytes: 16 * MIB,
    },
    // Per-worker arenas must hold the sequential study's budget.
    Gated {
        name: "study_quick_t2",
        study: |_| StudyParams::quick(SEED),
        threads: 2,
        max_allocs_per_run: 160.0,
        max_peak_bytes: 16 * MIB,
    },
    // Every run pays the fair-share model: flow management, completion
    // rescheduling, trace-boundary recomputes (~87 allocations per run
    // against the per-pair world's ~73; the budget is twice the ~95 that an
    // allocating recompute cost).
    Gated {
        name: "study_topo",
        study: |_| {
            let mut p = StudyParams::quick(SEED);
            p.topology = Some(TopoPreset::PaperWan);
            p
        },
        threads: 1,
        max_allocs_per_run: 190.0,
        max_peak_bytes: 16 * MIB,
    },
    // Four full-scale paper-WAN configurations under gauged knowledge, the
    // shape of the benchmark's `paper_wan` workload: global's planning
    // probes cross shared access links, so each pays a fair-share
    // recompute. An allocating recompute measured ~1,487 per run here.
    Gated {
        name: "study_wan",
        study: |_| {
            let mut p = StudyParams::paper_main(SEED);
            p.n_configs = 4;
            p.topology = Some(TopoPreset::PaperWan);
            p.knowledge = KnowledgeMode::Gauged;
            p
        },
        threads: 1,
        max_allocs_per_run: 420.0,
        max_peak_bytes: 48 * MIB,
    },
    // The paper's full study. Each worker pays one cold warmup: at quick
    // scale the four-worker run spreads eight configurations over four
    // cold arenas (~104 allocations per run; ~35 at full scale).
    Gated {
        name: "study_full_t1",
        study: full_study,
        threads: 1,
        max_allocs_per_run: 300.0,
        max_peak_bytes: 48 * MIB,
    },
    Gated {
        name: "study_full_t4",
        study: full_study,
        threads: 4,
        max_allocs_per_run: 300.0,
        max_peak_bytes: 48 * MIB,
    },
];

/// Runs `gated` once, building its parameters inside the measured scope,
/// and prints its counts against its budgets; returns whether it met both.
fn check(gated: &Gated, quick: bool) -> bool {
    let scope = AllocScope::begin();
    let p = (gated.study)(quick);
    let results = run_study_parallel(&p, gated.threads);
    std::hint::black_box(results.digest());
    let runs = p.n_configs * (1 + p.algorithms.len()); // + download-all
    let alloc = scope.finish();

    let name = gated.name;
    let mut ok = true;
    let got = alloc.allocs as f64 / runs as f64;
    let limit = gated.max_allocs_per_run;
    if got > limit {
        eprintln!("alloc gate FAIL: {name} at {got:.1} allocs/run exceeds budget {limit:.1}");
        ok = false;
    } else {
        println!("alloc gate ok:   {name} at {got:.1} allocs/run (budget {limit:.1})");
    }
    let (peak, peak_limit) = (alloc.peak_bytes, gated.max_peak_bytes);
    if peak > peak_limit {
        eprintln!("alloc gate FAIL: {name} peaked at {peak} bytes, budget {peak_limit}");
        ok = false;
    } else {
        println!(
            "alloc gate ok:   {name} peak {peak} bytes, {:.1} MiB (budget {:.0} MiB)",
            peak as f64 / MIB as f64,
            peak_limit as f64 / MIB as f64
        );
    }
    ok
}

fn main() {
    let mut quick = false;
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--quick" => quick = true,
            other => reject(&format!("unknown flag {other}; known: --quick")),
        }
    }
    let scale = if quick { "quick" } else { "full" };
    println!("allocation gate ({scale} scale, seed {SEED})");
    // Every study runs, so one failure does not hide another.
    let failed = GATED.iter().filter(|g| !check(g, quick)).count();
    if failed > 0 {
        eprintln!(
            "allocation regression: {failed} of {} studies over budget — see DESIGN.md §6b",
            GATED.len()
        );
        std::process::exit(1);
    }
}
