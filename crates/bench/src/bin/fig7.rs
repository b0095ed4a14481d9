//! Figure 7: "Impact of considering additional (randomly selected)
//! locations on the performance of the local relocation algorithm" — the
//! local algorithm with k = 0..6 extra candidate sites per decision; each
//! point is the average speedup over all configurations. The paper found
//! no significant difference.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin fig7 [--configs N] [--json PATH]
//! ```

use wadc_bench::json::Json;
use wadc_bench::FigArgs;
use wadc_core::engine::Algorithm;
use wadc_core::study::{run_study_parallel, StudyParams};

fn main() {
    let args = FigArgs::parse();
    let mut params = StudyParams::paper_main(args.seed);
    params.n_configs = args.configs;
    params.algorithms = (0..=6)
        .map(|k| Algorithm::Local {
            period: Algorithm::DEFAULT_PERIOD,
            extra_candidates: k,
        })
        .collect();
    eprintln!(
        "running {} configurations x (download-all + 7 local variants) on {} threads...",
        params.n_configs, args.threads
    );
    let results = run_study_parallel(&params, args.threads);

    println!("=== Figure 7: local algorithm, k additional random candidate sites ===");
    println!("k  avg speedup over download-all");
    let mut series = Vec::new();
    for k in 0..=6usize {
        let mean = results.mean_speedup(k);
        series.push(mean);
        println!("{k}  {mean:.3}");
    }
    let spread = series.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - series.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "\nspread across k: {spread:.3} ({:.1}% of the k=0 speedup) — the paper found \"no significant difference\"",
        100.0 * spread / series[0]
    );

    args.maybe_write_json(
        &Json::obj()
            .field("figure", 7)
            .field("configs", params.n_configs)
            .field("k", (0..=6).collect::<Vec<i32>>())
            .field("avg_speedup", series),
    );
}
