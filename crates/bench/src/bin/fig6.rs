//! Figure 6: "Performance of operator relocation algorithms for 300
//! network configurations" — sorted speedup curves of one-shot vs global
//! (left graph) and global vs local (right graph), plus the mean
//! inter-arrival times the paper quotes in the text (101.2 s download-all,
//! 24.6 s one-shot, 22 s local, 17.1 s global).
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin fig6 [--configs N] [--json PATH]
//! ```

use wadc_bench::json::Json;
use wadc_bench::{print_series, print_summary, FigArgs};
use wadc_core::study::{run_study_parallel, StudyParams};

const ONE_SHOT: usize = 0;
const GLOBAL: usize = 1;
const LOCAL: usize = 2;

fn main() {
    let args = FigArgs::parse();
    let mut params = StudyParams::paper_main(args.seed);
    params.n_configs = args.configs;
    eprintln!(
        "running {} configurations x 4 algorithms on {} threads...",
        params.n_configs, args.threads
    );
    let results = run_study_parallel(&params, args.threads);

    // Left graph: one-shot and global, configurations sorted by the global
    // algorithm's speedup (the paper sorts "by the performance of one of
    // the algorithms being compared").
    let mut order: Vec<usize> = (0..results.outcomes.len()).collect();
    order.sort_by(|&a, &b| {
        results.outcomes[a]
            .speedup(GLOBAL)
            .partial_cmp(&results.outcomes[b].speedup(GLOBAL))
            .expect("finite speedups")
    });
    let sorted_by_global = |alg: usize| -> Vec<f64> {
        order
            .iter()
            .map(|&i| results.outcomes[i].speedup(alg))
            .collect()
    };

    println!("=== Figure 6 (left): one-shot vs global, sorted by global speedup ===");
    print_series("one-shot", &sorted_by_global(ONE_SHOT));
    print_series("global", &sorted_by_global(GLOBAL));

    println!("=== Figure 6 (right): local vs global, sorted by global speedup ===");
    print_series("local", &sorted_by_global(LOCAL));
    print_series("global", &sorted_by_global(GLOBAL));

    println!("=== summary ===");
    print_summary("one-shot speedup", &results.speedups(ONE_SHOT));
    print_summary("global speedup", &results.speedups(GLOBAL));
    print_summary("local speedup", &results.speedups(LOCAL));
    println!(
        "median global/one-shot ratio: {:.3} (paper: global adds ~40% median over one-shot)",
        results.median_ratio(GLOBAL, ONE_SHOT)
    );
    println!(
        "median global/local ratio:    {:.3} (paper: ~1.25)",
        results.median_ratio(GLOBAL, LOCAL)
    );
    println!("\nmean image inter-arrival at the client (paper: 101.2 / 24.6 / 22 / 17.1 s):");
    println!(
        "  download-all {:.1} s | one-shot {:.1} s | local {:.1} s | global {:.1} s",
        results.mean_interarrival_download_all(),
        results.mean_interarrival(ONE_SHOT),
        results.mean_interarrival(LOCAL),
        results.mean_interarrival(GLOBAL),
    );

    args.maybe_write_json(
        &Json::obj()
            .field("figure", 6)
            .field("configs", params.n_configs)
            .field(
                "sorted_by_global",
                Json::obj()
                    .field("one_shot", sorted_by_global(ONE_SHOT))
                    .field("global", sorted_by_global(GLOBAL))
                    .field("local", sorted_by_global(LOCAL)),
            )
            .field(
                "median_ratio_global_one_shot",
                results.median_ratio(GLOBAL, ONE_SHOT),
            )
            .field(
                "median_ratio_global_local",
                results.median_ratio(GLOBAL, LOCAL),
            )
            .field(
                "interarrival_secs",
                Json::obj()
                    .field("download_all", results.mean_interarrival_download_all())
                    .field("one_shot", results.mean_interarrival(ONE_SHOT))
                    .field("local", results.mean_interarrival(LOCAL))
                    .field("global", results.mean_interarrival(GLOBAL)),
            ),
    );
}
