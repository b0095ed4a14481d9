//! Explore the synthetic Internet bandwidth study: per-pair summaries, the
//! ≥10%-change-interval statistic the paper calibrated `T_thres` against,
//! and an exact JSON round trip of a trace.
//!
//! ```sh
//! cargo run --release --example trace_explorer
//! ```

use wadc::obs::json::Json;
use wadc::sim::time::{SimDuration, SimTime};
use wadc::trace::model::{BandwidthTrace, Sample};
use wadc::trace::stats::{mean_change_interval, summarize};
use wadc::trace::study::BandwidthStudy;

fn main() {
    let study = BandwidthStudy::default_study(7);
    let hosts = study.hosts();
    let window = SimDuration::from_hours(12);

    println!("pair                  mean bw    min..max (KB/s)   cv     >=10% change every");
    let mut change_intervals = Vec::new();
    for i in 0..hosts.len() {
        for j in (i + 1)..hosts.len() {
            let tr = study.trace(i, j).expect("study is complete");
            let s = summarize(tr, window);
            if let Some(secs) = s.mean_change_interval_secs {
                change_intervals.push(secs);
            }
            // Print a representative subset to keep the output readable.
            if i == 0 {
                println!(
                    "{:<9} - {:<9} {:>7.1}    {:>5.1}..{:<6.1}   {:>4.2}   {:>6.0} s",
                    hosts[i].name,
                    hosts[j].name,
                    s.mean_bytes_per_sec / 1024.0,
                    s.min_bytes_per_sec / 1024.0,
                    s.max_bytes_per_sec / 1024.0,
                    s.coefficient_of_variation,
                    s.mean_change_interval_secs.unwrap_or(f64::NAN),
                );
            }
        }
    }
    let mean_change = change_intervals.iter().sum::<f64>() / change_intervals.len() as f64;
    println!(
        "\nacross all {} pairs: mean time between >=10% bandwidth changes = {:.0} s",
        study.pair_count(),
        mean_change
    );
    println!("(the paper measured ~2 minutes and chose T_thres = 40 s from it)");

    // Figure-2 style: the first 10 minutes of one transatlantic pair.
    let tr = study.trace(0, 7).expect("umd - inria");
    println!("\numd - inria, first 10 minutes (bandwidth every 60 s):");
    for minute in 0..10 {
        let t = SimTime::from_secs(minute * 60);
        let bw = tr.bandwidth_at(t) / 1024.0;
        let bar = "#".repeat((bw / 2.0).min(60.0) as usize);
        println!("{:>3} min {:>7.1} KB/s {bar}", minute, bw);
    }

    // Round-trip the noon segment through JSON: `Display` of an f64 is its
    // shortest exact form, so the reloaded trace equals the original.
    let noon_segment = tr.extract(SimTime::from_secs(12 * 3600), SimDuration::from_hours(6));
    let text = Json::Arr(
        noon_segment
            .samples()
            .iter()
            .map(|s| {
                Json::obj()
                    .field("at", s.at.as_micros())
                    .field("bytes_per_sec", s.bytes_per_sec)
            })
            .collect(),
    )
    .to_string_compact();
    let parsed = Json::parse(&text).expect("the writer's own output parses");
    let samples = parsed
        .as_arr()
        .expect("an array of samples")
        .iter()
        .map(|s| Sample {
            at: SimTime::from_micros(s.get("at").and_then(Json::as_num).expect("at") as u64),
            bytes_per_sec: s
                .get("bytes_per_sec")
                .and_then(Json::as_num)
                .expect("bytes_per_sec"),
        })
        .collect();
    let reloaded = BandwidthTrace::from_samples(samples).expect("valid samples");
    assert_eq!(reloaded, noon_segment, "the JSON round trip is exact");
    println!(
        "\nnoon segment as JSON: {} samples in {} bytes, reloaded exactly, {:?} mean change",
        reloaded.len(),
        text.len(),
        mean_change_interval(&reloaded, 0.10).map(|d| format!("{:.0} s", d.as_secs_f64())),
    );
}
