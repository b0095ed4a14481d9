//! A full paper-scale run: one 8-server network configuration built from
//! the synthetic Internet study, compared across all four strategies, with
//! the global algorithm's adaptation events narrated.
//!
//! ```sh
//! cargo run --release --example adaptive_vs_static
//! ```

use wadc::core::engine::Algorithm;
use wadc::core::experiment::Experiment;
use wadc::sim::time::SimDuration;
use wadc::trace::study::BandwidthStudy;

fn main() {
    // The multi-day bandwidth study (45 host pairs across the US, Europe
    // and Brazil), from which the configuration draws noon-aligned trace
    // segments — exactly the paper's construction.
    let study = BandwidthStudy::default_study(1998);
    println!(
        "bandwidth study: {} hosts, {} pairs, {:.0} h per trace",
        study.hosts().len(),
        study.pair_count(),
        study.duration().as_secs_f64() / 3600.0
    );

    let pool = study.noon_trace_pool(SimDuration::from_hours(24));
    let exp = Experiment::from_study_pool(8, &pool, 0, 1998);

    println!("\nrunning 8 servers x 180 images (~128 KB each) under four strategies...\n");
    let baseline = exp.run(Algorithm::DownloadAll);
    println!(
        "download-all: {:.0} s total, {:.1} s/image",
        baseline.completion_time.as_secs_f64(),
        baseline.mean_interarrival_secs()
    );

    for alg in [
        Algorithm::OneShot,
        Algorithm::global_default(),
        Algorithm::local_default(),
    ] {
        let r = exp.run(alg);
        assert!(r.completed);
        println!(
            "{:<12}: {:>6.0} s total, {:>5.1} s/image, {:.2}x speedup, {} relocations, {} change-overs",
            alg.name(),
            r.completion_time.as_secs_f64(),
            r.mean_interarrival_secs(),
            r.speedup_over(&baseline),
            r.relocations,
            r.changeovers,
        );
    }

    // Show how delivery pacing differs over the run: time of every 30th
    // image under the static and the adaptive strategy.
    let one_shot = exp.run(Algorithm::OneShot);
    let global = exp.run(Algorithm::global_default());
    println!("\nimage   one-shot arrival   global arrival");
    for i in (29..180).step_by(30) {
        println!(
            "{:>5}   {:>14.0} s   {:>12.0} s",
            i + 1,
            one_shot.arrivals[i].as_secs_f64(),
            global.arrivals[i].as_secs_f64()
        );
    }
}
