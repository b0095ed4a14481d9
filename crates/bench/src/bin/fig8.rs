//! Figure 8: "Impact of variation in the number of servers on the
//! performance of relocation algorithms" — servers 4 → 32, each point the
//! average speedup over all configurations. The paper found the global
//! algorithm scaled best.
//!
//! ```sh
//! cargo run --release -p wadc-bench --bin fig8 [--configs N] [--json PATH]
//! ```

use wadc_bench::json::Json;
use wadc_bench::FigArgs;
use wadc_core::study::{run_study_parallel, StudyParams};

fn main() {
    let args = FigArgs::parse();
    let server_counts = [4usize, 8, 16, 32];
    let mut per_alg: Vec<Vec<f64>> = vec![Vec::new(); 3];

    for &n in &server_counts {
        let mut params = StudyParams::paper_main(args.seed);
        params.n_configs = args.configs;
        params.n_servers = n;
        eprintln!(
            "running {} configurations with {n} servers on {} threads...",
            params.n_configs, args.threads
        );
        let results = run_study_parallel(&params, args.threads);
        for (alg, series) in per_alg.iter_mut().enumerate() {
            series.push(results.mean_speedup(alg));
        }
    }

    println!("=== Figure 8: average speedup vs number of servers ===");
    println!("servers  one-shot  global  local");
    for (i, &n) in server_counts.iter().enumerate() {
        println!(
            "{n:>7}  {:>8.2}  {:>6.2}  {:>5.2}",
            per_alg[0][i], per_alg[1][i], per_alg[2][i]
        );
    }
    let last = server_counts.len() - 1;
    println!(
        "\nat 32 servers: global/one-shot = {:.2}, global/local = {:.2} (paper: global scales best)",
        per_alg[1][last] / per_alg[0][last],
        per_alg[1][last] / per_alg[2][last]
    );

    args.maybe_write_json(
        &Json::obj()
            .field("figure", 8)
            .field("configs", args.configs)
            .field("servers", server_counts.as_slice())
            .field(
                "avg_speedup",
                Json::obj()
                    .field("one_shot", per_alg[0].as_slice())
                    .field("global", per_alg[1].as_slice())
                    .field("local", per_alg[2].as_slice()),
            ),
    );
}
