//! # wadc-bench — figure regeneration and the allocation gate
//!
//! One binary per figure of the paper's evaluation:
//!
//! | binary | paper figure | content |
//! |---|---|---|
//! | `fig2` | Figure 2 | bandwidth variation of one host pair (10 min / 2 days) |
//! | `fig6` | Figure 6 | sorted speedup curves, 300 configs, 8 servers |
//! | `fig7` | Figure 7 | local algorithm with k = 0..6 extra candidate sites |
//! | `fig8` | Figure 8 | scaling: 4 → 32 servers |
//! | `fig9` | Figure 9 | relocation period 2 min → 1 hour |
//! | `fig10` | Figure 10 | complete-binary vs left-deep ordering |
//!
//! Run with `cargo run --release -p wadc-bench --bin figN`. Every binary
//! accepts `--configs N` (default: the paper's 300), `--seed S`,
//! `--threads T` and `--json PATH` (machine-readable series archive).
//!
//! The `perf` binary is the allocation gate: it runs seven studies once
//! each, untimed, and exits 1 if one makes more allocations per engine run
//! or peaks at more live bytes than its committed budget
//! (`cargo run --release -p wadc-bench --bin perf`, `-- --quick` at
//! reduced scale). It reads no clock; the repository benchmark,
//! `studybench/`, measures time.

// `deny` rather than `forbid`: the counting allocator in `alloc` must
// implement `GlobalAlloc`, which is an `unsafe` trait; that module
// scopes its own allow. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod json;

use std::path::PathBuf;

/// Command-line arguments shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct FigArgs {
    /// Number of network configurations to evaluate.
    pub configs: usize,
    /// Worker threads.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Optional path for a JSON archive of the series.
    pub json: Option<PathBuf>,
}

impl FigArgs {
    /// Parses `std::env::args`, with the paper's 300 configurations as the
    /// default. `--threads` is clamped to the machine's available
    /// parallelism (with a warning) — `0` means "all cores". Exits with
    /// status 2 and the reason on an unknown flag, a missing or malformed
    /// value (see [`flag_value`]) or `--configs 0` (see
    /// [`require_configs`]).
    pub fn parse() -> Self {
        let mut args = FigArgs {
            configs: 300,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            seed: 1998,
            json: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--configs" => args.configs = flag_value(&mut it, &flag),
                "--threads" => args.threads = flag_value(&mut it, &flag),
                "--seed" => args.seed = flag_value(&mut it, &flag),
                "--json" => args.json = Some(flag_value(&mut it, &flag)),
                other => reject(&format!(
                    "unknown flag {other}; known: --configs --threads --seed --json"
                )),
            }
        }
        require_configs(args.configs);
        let plan = wadc_core::sweep::clamp_threads(args.threads);
        if let Some(warning) = &plan.warning {
            eprintln!("warning: {warning}");
        }
        args.threads = plan.threads;
        args
    }

    /// Writes the JSON archive if `--json` was given.
    pub fn maybe_write_json(&self, value: &json::Json) {
        if let Some(path) = &self.json {
            std::fs::write(path, value.to_string_pretty())
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("series archived to {}", path.display());
        }
    }
}

/// Prints `error: {reason}` on standard error and exits with status 2,
/// before any work.
pub fn reject(reason: &str) -> ! {
    eprintln!("error: {reason}");
    std::process::exit(2)
}

/// Takes the value following `flag` from `args` and parses it; exits via
/// [`reject`] when the value is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(value) = args.next() else {
        reject(&format!("{flag} requires a value"))
    };
    value
        .parse()
        .unwrap_or_else(|_| reject(&format!("invalid value for {flag}: {value}")))
}

/// Exits with status 2 and the reason on standard error when `configs` is
/// zero, before any work: a study of no configurations has no speedup to
/// report, and its means would print as NaN.
pub fn require_configs(configs: usize) {
    if configs == 0 {
        reject("--configs must be at least 1: a study of no configurations compares nothing");
    }
}

/// Prints a named series as one row per element, `index value`.
pub fn print_series(name: &str, values: &[f64]) {
    println!("# {name}");
    for (i, v) in values.iter().enumerate() {
        println!("{i} {v:.4}");
    }
    println!();
}

/// Prints a compact summary line for a series.
pub fn print_summary(name: &str, values: &[f64]) {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let median = wadc_sim::stats::median(values).unwrap_or(0.0);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("{name}: mean {mean:.2}  median {median:.2}  min {min:.2}  max {max:.2}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn summary_of_constant_series() {
        // print_summary only prints; sanity-check it does not panic on
        // edge inputs.
        super::print_summary("empty", &[]);
        super::print_summary("one", &[1.0]);
        super::print_series("s", &[1.0, 2.0]);
    }
}
