//! Prints the differential suite's measured margins (used to calibrate
//! the tolerance constants): the very values the checks compare against
//! their bands, or the check's error when a value falls outside. Exits 1
//! if any value is out of band.

use wadc_verify::differential::{
    check_bandwidth_scaling, check_cost_model_agreement, check_degenerate_local, suite_algorithms,
};
use wadc_verify::worlds;

/// Prints one margin; returns whether it is in band.
fn print_margin(seed: u64, what: &str, measured: Result<String, String>) -> bool {
    match measured {
        Ok(value) => {
            println!("seed {seed} {what} {value}");
            true
        }
        Err(e) => {
            println!("seed {seed} {what} out of band: {e}");
            false
        }
    }
}

fn main() {
    let mut in_band = true;
    for seed in [5u64, 42, 77] {
        let constant = worlds::constant_links_experiment(4, seed);
        for alg in suite_algorithms() {
            let name = alg.name();
            in_band &= print_margin(
                seed,
                &format!("{name:12} ratio"),
                check_cost_model_agreement(&constant, alg).map(|r| format!("{r:.3}")),
            );
            in_band &= print_margin(
                seed,
                &format!("{name:12} 2x-speedup"),
                check_bandwidth_scaling(&constant, alg, 2.0).map(|s| format!("{s:.3}")),
            );
        }
        let varying = worlds::distinct_links_experiment(4, seed);
        in_band &= print_margin(
            seed,
            "degenerate-local delta",
            check_degenerate_local(&varying).map(|d| format!("{:.4}%", d * 100.0)),
        );
    }
    if !in_band {
        std::process::exit(1);
    }
}
