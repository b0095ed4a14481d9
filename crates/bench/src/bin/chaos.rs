//! Robustness experiment: how the four placement algorithms degrade under
//! injected faults — message loss rates and random link-outage densities —
//! measured against the clean run of the same world.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin chaos [--configs N] [--threads T] [--seed S] [--json PATH]
//! ```
//!
//! For every configuration each algorithm runs once clean, then once per
//! fault point. Reported per point and algorithm: the fraction of runs
//! that still complete, the mean completion-time inflation over the clean
//! run, and the mean retransmission count (the recovery work the retry
//! machinery had to do).

use std::sync::Arc;

use wadc_bench::json::Json;
use wadc_bench::FigArgs;
use wadc_core::engine::{Algorithm, RunScratch};
use wadc_core::experiment::Experiment;
use wadc_core::sweep::SweepDriver;
use wadc_net::faults::FaultPlan;
use wadc_sim::time::SimDuration;
use wadc_trace::model::BandwidthTrace;
use wadc_trace::study::BandwidthStudy;

/// Loss-probability sweep (applied to every traffic class, probes too).
const LOSS_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];

/// Random-outage sweep: outages per hour, each ~2 minutes long.
const OUTAGE_COUNTS: [usize; 4] = [0, 2, 4, 8];

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::DownloadAll,
    Algorithm::OneShot,
    Algorithm::Global {
        period: SimDuration::from_mins(10),
    },
    Algorithm::Local {
        period: SimDuration::from_mins(10),
        extra_candidates: 2,
    },
];

/// Accumulated outcomes of one (fault point, algorithm) cell.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    runs: u64,
    completed: u64,
    /// Sum of faulty/clean completion-time ratios (completed runs only).
    slowdown_sum: f64,
    slowdown_n: u64,
    retransmits: u64,
    dropped: u64,
}

impl Cell {
    fn absorb(&mut self, other: Cell) {
        self.runs += other.runs;
        self.completed += other.completed;
        self.slowdown_sum += other.slowdown_sum;
        self.slowdown_n += other.slowdown_n;
        self.retransmits += other.retransmits;
        self.dropped += other.dropped;
    }

    fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.runs.max(1) as f64
    }

    fn mean_slowdown(&self) -> f64 {
        if self.slowdown_n == 0 {
            f64::NAN
        } else {
            self.slowdown_sum / self.slowdown_n as f64
        }
    }

    fn mean_retransmits(&self) -> f64 {
        self.retransmits as f64 / self.runs.max(1) as f64
    }
}

/// The fault points of the sweep, in report order.
fn fault_points() -> Vec<(String, FaultPlan)> {
    let mut points = Vec::new();
    for p in LOSS_RATES {
        points.push((
            format!("loss {:.0}%", p * 100.0),
            FaultPlan::none().with_loss(p).with_probe_blackhole(p),
        ));
    }
    for n in OUTAGE_COUNTS {
        let mut plan = FaultPlan::none();
        if n > 0 {
            plan =
                plan.with_random_outages(n, SimDuration::from_mins(2), SimDuration::from_hours(1));
        }
        points.push((format!("outages {n}/h"), plan));
    }
    points
}

/// Runs every cell of configuration `index`: each algorithm once clean,
/// then once per fault point, all on the worker's warm arena.
fn run_config(
    pool: &[Arc<BandwidthTrace>],
    seed: u64,
    index: usize,
    points: &[(String, FaultPlan)],
    scratch: &mut RunScratch,
) -> Vec<Vec<Cell>> {
    let exp = Experiment::from_study_pool(8, pool, index as u64, seed);
    let mut cells = vec![vec![Cell::default(); ALGORITHMS.len()]; points.len()];
    for (a, &alg) in ALGORITHMS.iter().enumerate() {
        let clean = exp.run_scratch(alg, scratch);
        for (p, (_, plan)) in points.iter().enumerate() {
            let mut faulty_exp = exp.clone();
            faulty_exp.template_mut().faults = plan.clone();
            let r = faulty_exp.run_scratch(alg, scratch);
            let cell = &mut cells[p][a];
            cell.runs += 1;
            if r.completed {
                cell.completed += 1;
                if clean.completed {
                    cell.slowdown_sum +=
                        r.completion_time.as_secs_f64() / clean.completion_time.as_secs_f64();
                    cell.slowdown_n += 1;
                }
            }
            cell.retransmits += r.net_stats.retransmits;
            cell.dropped += r.net_stats.dropped;
        }
    }
    cells
}

fn main() {
    let mut args = FigArgs::parse();
    // The full sweep is (clean + 9 fault points) x 4 algorithms per
    // configuration; default to a lighter config count than the figure
    // binaries unless the caller asked for more.
    if std::env::args().all(|a| a != "--configs") {
        args.configs = 24;
    }
    let pool =
        BandwidthStudy::default_study(args.seed).noon_trace_pool(SimDuration::from_hours(24));
    let points = fault_points();
    eprintln!(
        "running {} configurations x {} fault points x {} algorithms on {} threads...",
        args.configs,
        points.len(),
        ALGORITHMS.len(),
        args.threads
    );

    // Cells are summed in configuration order, so the float sums — and
    // the archive — do not depend on the thread count.
    let per_config = SweepDriver::new(args.threads).sweep(
        args.configs,
        |_worker| RunScratch::new(),
        |scratch, i| run_config(&pool, args.seed, i, &points, scratch),
    );
    let mut cells = vec![vec![Cell::default(); ALGORITHMS.len()]; points.len()];
    for config_cells in per_config {
        for (row, config_row) in cells.iter_mut().zip(config_cells) {
            for (cell, config_cell) in row.iter_mut().zip(config_row) {
                cell.absorb(config_cell);
            }
        }
    }

    let mut json_rows = Vec::new();
    println!("=== robustness: completion rate / slowdown vs clean / mean retransmits ===");
    for (p, (label, _)) in points.iter().enumerate() {
        println!("\n--- {label} ---");
        for (a, alg) in ALGORITHMS.iter().enumerate() {
            let c = &cells[p][a];
            println!(
                "{:<13} completed {:>5.1}%  slowdown x{:<6.3} retransmits {:>7.1}  dropped {:>7.1}",
                alg.name(),
                c.completion_rate() * 100.0,
                c.mean_slowdown(),
                c.mean_retransmits(),
                c.dropped as f64 / c.runs.max(1) as f64,
            );
            json_rows.push(
                Json::obj()
                    .field("point", label.as_str())
                    .field("algorithm", alg.name())
                    .field("completion_rate", c.completion_rate())
                    .field("mean_slowdown", c.mean_slowdown())
                    .field("mean_retransmits", c.mean_retransmits()),
            );
        }
    }

    args.maybe_write_json(
        &Json::obj()
            .field("experiment", "chaos")
            .field("configs", args.configs)
            .field("rows", json_rows),
    );
}
