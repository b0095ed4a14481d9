//! Prints the differential suite's measured margins (used to calibrate
//! the tolerance constants; not part of the test suite).

use wadc_core::algorithms::one_shot::{improve_placement, SearchScratch};
use wadc_core::engine::Algorithm;
use wadc_core::experiment::Experiment;
use wadc_core::knowledge::KnowledgeMode;
use wadc_plan::critical_path::pipeline_estimate;
use wadc_plan::placement::{HostRoster, Placement};
use wadc_plan::tree::CombinationTree;
use wadc_sim::time::SimTime;
use wadc_verify::differential::suite_algorithms;
use wadc_verify::worlds;

fn main() {
    for seed in [5u64, 42, 77] {
        let constant = worlds::constant_links_experiment(4, seed);
        for alg in suite_algorithms() {
            let exp = constant.clone().with_knowledge(KnowledgeMode::Oracle);
            let cfg = {
                let mut c = exp.template().clone();
                c.algorithm = alg;
                c
            };
            let result = exp.run(alg);
            let tree = CombinationTree::build(cfg.tree_shape, cfg.n_servers).unwrap();
            let roster = HostRoster::one_host_per_server(cfg.n_servers);
            let view = exp.links().oracle_at(SimTime::ZERO);
            let placement = improve_placement(
                &tree,
                &roster,
                Placement::download_all(&tree, &roster),
                view,
                &cfg.cost_model,
                cfg.objective,
                &[],
                &mut SearchScratch::new(),
            )
            .placement;
            let est = pipeline_estimate(&tree, &roster, &placement, view, &cfg.cost_model);
            let predicted = est.total_secs(cfg.workload.images_per_server as u32);
            let measured = result.completion_time.as_secs_f64();
            println!(
                "seed {seed} {:12} ratio {:.3} (measured {measured:.1}s predicted {predicted:.1}s)",
                alg.name(),
                measured / predicted
            );

            let scaled = Experiment::new(exp.links().scaled(2.0), exp.template().clone()).run(alg);
            println!(
                "seed {seed} {:12} 2x-speedup {:.3}",
                alg.name(),
                result.completion_time.as_secs_f64() / scaled.completion_time.as_secs_f64()
            );
        }
        let varying = worlds::distinct_links_experiment(4, seed);
        let one = varying.run(Algorithm::OneShot);
        let loc = varying.run(Algorithm::Local {
            period: wadc_sim::time::SimDuration::from_hours(10_000),
            extra_candidates: 0,
        });
        let (a, b) = (
            one.completion_time.as_secs_f64(),
            loc.completion_time.as_secs_f64(),
        );
        println!(
            "seed {seed} degenerate-local delta {:.4}%",
            ((b - a) / a).abs() * 100.0
        );
    }
}
