//! Small, carefully controlled worlds for the verification suites.
//!
//! The differential checks compare *whole runs* for equality, so their
//! worlds must avoid every source of accidental symmetry or label
//! dependence: each link carries its **own distinct trace** (no cost ties
//! for the placement argmin to break by host label), probe traffic is
//! disabled (probe submission order iterates hosts by label), and host
//! counts stay small enough that piggyback budgets never truncate.

use std::sync::Arc;

use wadc_core::engine::{Algorithm, EngineConfig};
use wadc_core::experiment::{Experiment, LinkTable};
use wadc_plan::ids::pairs;
use wadc_sim::rng::derive_seed2;
use wadc_sim::time::SimDuration;
use wadc_trace::model::BandwidthTrace;
use wadc_trace::synth::{generate, SynthParams};

/// The four algorithms every conformance suite runs, the adaptive two
/// re-planning every 30 s.
pub fn all_algorithms() -> [Algorithm; 4] {
    let period = SimDuration::from_secs(30);
    [
        Algorithm::DownloadAll,
        Algorithm::OneShot,
        Algorithm::Global { period },
        Algorithm::Local {
            period,
            extra_candidates: 0,
        },
    ]
}

fn template(n_servers: usize, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::new(n_servers, Algorithm::DownloadAll)
        .with_seed(seed)
        .with_workload(Experiment::quick_workload());
    // Probe submission order iterates host pairs by label; free
    // measurements keep the world label-equivariant.
    cfg.probe_bytes = 0;
    cfg
}

/// A world where every link of the complete graph carries a *distinct*
/// synthetic wide-area trace (unique seed and base bandwidth per pair).
/// Used by the relabeling check: distinct links mean distinct placement
/// costs, so the argmin never breaks a tie by host label.
pub fn distinct_links_experiment(n_servers: usize, seed: u64) -> Experiment {
    let n = n_servers + 1;
    let bases = [4.0, 8.0, 16.0, 48.0, 96.0, 192.0];
    let mut links = LinkTable::new(n);
    for (pair, (a, b)) in pairs(n).enumerate() {
        let base = bases[pair % bases.len()] * 1024.0;
        let trace = generate(
            &SynthParams::wide_area(base),
            SimDuration::from_hours(2),
            derive_seed2(seed, 7, pair as u64),
        );
        links.set(a, b, Arc::new(trace));
    }
    Experiment::new(links, template(n_servers, seed))
}

/// A world of constant-bandwidth links, each pair with its own distinct
/// rate. Constant bandwidth is what lets a run's completion time be
/// compared against the analytic `wadc-plan` cost model, and what the
/// bandwidth-scaling metamorphic check multiplies by `k`.
pub fn constant_links_experiment(n_servers: usize, seed: u64) -> Experiment {
    let n = n_servers + 1;
    let mut links = LinkTable::new(n);
    for (pair, (a, b)) in pairs(n).enumerate() {
        // Distinct deterministic rates in 6–45 KB/s: slow enough to be
        // network-bound, spread enough to avoid placement-cost ties.
        let rate = 1024.0 * (6.0 + 3.0 * pair as f64);
        links.set(a, b, Arc::new(BandwidthTrace::constant(rate)));
    }
    Experiment::new(links, template(n_servers, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_sim::time::SimTime;

    #[test]
    fn distinct_links_are_complete_and_probe_free() {
        let exp = distinct_links_experiment(4, 3);
        assert!(exp.links().is_complete());
        assert_eq!(exp.template().probe_bytes, 0);
        assert_eq!(exp.template().workload.images_per_server, 8);
    }

    #[test]
    fn constant_links_have_distinct_rates() {
        let exp = constant_links_experiment(4, 3);
        let links = exp.links();
        let rates: Vec<f64> = pairs(links.host_count())
            .map(|(a, b)| links.bandwidth_at(a, b, SimTime::ZERO).unwrap())
            .collect();
        let mut sorted = rates.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), rates.len(), "link rates must be distinct");
    }
}
