//! Exact-timing tests: the engine's event mechanics are verified against
//! hand-computed timelines on trivial topologies (constant bandwidth,
//! fixed image sizes, images below `S_thres` so no piggyback bytes perturb
//! message sizes).

use std::sync::Arc;

use wadc_app::image::SizeDistribution;
use wadc_app::workload::WorkloadParams;
use wadc_core::engine::{Algorithm, EngineConfig, RunResult};
use wadc_core::experiment::Experiment;
use wadc_plan::ids::pairs;
use wadc_sim::time::{SimDuration, SimTime};
use wadc_topo::link::LinkTable;
use wadc_trace::model::BandwidthTrace;

/// A complete constant-bandwidth link table over `n` hosts.
fn constant_links(n: usize, bytes_per_sec: f64) -> LinkTable {
    let mut links = LinkTable::new(n);
    let tr = Arc::new(BandwidthTrace::constant(bytes_per_sec));
    for (a, b) in pairs(n) {
        links.set(a, b, tr.clone());
    }
    links
}

/// Fixed-size 64×64 (= 4096-byte) images, one per server: small enough to
/// stay below `S_thres = 16 KB`, so caches stay empty and every message
/// size is exactly `header` or `header + image`.
fn tiny_workload(images: usize) -> WorkloadParams {
    WorkloadParams {
        images_per_server: images,
        sizes: SizeDistribution {
            mean_bytes: 4096.0,
            rel_std_dev: 0.0,
            aspect: 1.0,
        },
    }
}

/// Runs `cfg`'s algorithm over `links`.
fn run_cfg(cfg: EngineConfig, links: LinkTable) -> RunResult {
    let algorithm = cfg.algorithm;
    Experiment::new(links, cfg).run(algorithm)
}

/// Two servers, download-all, one image each, 8192 B/s everywhere.
///
/// Hand-computed timeline (microseconds):
///
/// - t=0: the client's operator demands both servers. Demands are 256 B:
///   50 ms startup + 256/8192 s = 81 250 µs each, serialised on the client
///   NIC → demand 0 done at 81 250, demand 1 done at 162 500.
/// - each server reads 4096 B from disk at 3 MB/s = 1 302 µs.
/// - data messages are 256 + 4096 = 4352 B: 50 000 + 531 250 = 581 250 µs
///   of NIC time, serialised at the client:
///   data 0 runs 162 500 → 743 750, data 1 runs 743 750 → 1 325 000.
/// - composition of the 64×64 output at 7 µs/pixel = 28 672 µs; the
///   composed image is handed to the co-located client instantly.
///
/// Completion = 1 325 000 + 28 672 = 1 353 672 µs.
#[test]
fn two_server_download_all_timeline_is_exact() {
    let mut cfg = EngineConfig::new(2, Algorithm::DownloadAll).with_workload(tiny_workload(1));
    cfg.seed = 7;
    let result = run_cfg(cfg, constant_links(3, 8192.0));
    assert!(result.completed);
    assert_eq!(result.images_delivered, 1);
    assert_eq!(
        result.arrivals[0],
        SimTime::from_micros(1_353_672),
        "hand-computed completion time"
    );
    assert_eq!(result.completion_time, SimDuration::from_micros(1_353_672));
    // Exactly four wire transfers: two demands, two data messages.
    assert_eq!(result.net_stats.submitted, 4);
    assert_eq!(result.net_stats.completed, 4);
    assert_eq!(result.net_stats.bytes_delivered, 2 * 256 + 2 * 4352);
    assert_eq!(result.net_stats.high_priority_completed, 0);
}

/// The same world with four servers: the four data transfers serialise on
/// the client's half-duplex NIC, so completion grows by one full data
/// transfer (581 250 µs) per extra server — end-point congestion, the
/// effect the paper's relocation exploits.
#[test]
fn download_all_scales_by_nic_serialisation() {
    let run = |n: usize| {
        let mut cfg = EngineConfig::new(n, Algorithm::DownloadAll).with_workload(tiny_workload(1));
        cfg.seed = 7;
        run_cfg(cfg, constant_links(n + 1, 8192.0))
    };
    let two = run(2);
    let four = run(4);
    let data_secs = 0.05 + 4352.0 / 8192.0;
    let growth = (four.completion_time - two.completion_time).as_secs_f64();
    // Two extra data transfers + two extra (pipelined) demands; the data
    // term dominates and must account for most of the growth.
    assert!(
        growth >= 2.0 * data_secs,
        "growth {growth} must cover two serialised data transfers"
    );
    assert!(
        growth < 2.0 * data_secs + 0.5,
        "growth {growth} should not exceed transfers plus demand overheads"
    );
}

/// With several iterations the tree pipelines: steady-state inter-arrival
/// time is bounded by the client NIC's per-iteration work (n data
/// transfers) rather than the full end-to-end path.
#[test]
fn pipeline_reaches_nic_bound_steady_state() {
    let mut cfg = EngineConfig::new(2, Algorithm::DownloadAll).with_workload(tiny_workload(6));
    cfg.seed = 7;
    let result = run_cfg(cfg, constant_links(3, 8192.0));
    assert!(result.completed);
    let arrivals = &result.arrivals;
    assert_eq!(arrivals.len(), 6);
    // Steady-state gap: two data transfers (the client NIC's work per
    // iteration) plus the demand transfers that interleave on the same
    // NIC; the gap must be strictly smaller than the cold-start latency
    // (pipelining) but at least the two data transfers.
    let first = (arrivals[0] - SimTime::ZERO).as_secs_f64();
    let data_secs = 0.05 + 4352.0 / 8192.0;
    for w in arrivals.windows(2).skip(1) {
        let gap = (w[1] - w[0]).as_secs_f64();
        assert!(gap >= 2.0 * data_secs - 1e-9, "gap {gap} below NIC bound");
        assert!(gap <= first + 1e-9, "gap {gap} exceeds cold-start {first}");
    }
}

/// Raising the bandwidth by 8× cuts the data-transfer component by 8×
/// while the fixed startup costs stay; the completion time must match the
/// same hand computation at the new rate.
#[test]
fn bandwidth_scaling_matches_closed_form() {
    let run = |bw: f64| {
        let mut cfg = EngineConfig::new(2, Algorithm::DownloadAll).with_workload(tiny_workload(1));
        cfg.seed = 7;
        run_cfg(cfg, constant_links(3, bw))
    };
    let completion = |bw: f64| {
        // demands serialised, then data serialised, then compute.
        let demand = 0.05 + 256.0 / bw;
        let data = 0.05 + 4352.0 / bw;
        2.0 * demand + 2.0 * data + 7e-6 * 4096.0
    };
    for bw in [8192.0, 65536.0, 1_048_576.0] {
        let r = run(bw);
        let expected = completion(bw);
        let got = r.completion_time.as_secs_f64();
        assert!(
            (got - expected).abs() < 1e-5,
            "bw {bw}: got {got}, expected {expected}"
        );
    }
}

/// Disk time appears in the completion only when it is not hidden by the
/// NIC pipeline: with an extremely fast network, the serial chain is
/// demand → disk → data → compute and the disk's 1 302 µs must show up.
#[test]
fn disk_time_surfaces_on_fast_networks() {
    let mut cfg = EngineConfig::new(2, Algorithm::DownloadAll).with_workload(tiny_workload(1));
    cfg.seed = 7;
    let fast = 1e9; // effectively instant transfers
    let result = run_cfg(cfg, constant_links(3, fast));
    let expected = {
        let demand = 0.05 + 256.0 / fast;
        let data = 0.05 + 4352.0 / fast;
        let disk = 4096.0 / (3.0 * 1024.0 * 1024.0);
        // Demands serialise; server 1's disk read starts after demand 2
        // and finishes well before the client NIC frees from data 0, so
        // the visible chain is 2 demands + disk(hidden partially) ...
        // at this speed: demand0, demand1, then data0 (disk0 done during
        // demand1), then data1, then compute. Disk0 runs during demand1
        // (1 302 µs < 50 ms), so only the compute tail and transfers
        // remain.
        2.0 * demand + 2.0 * data + 7e-6 * 4096.0 + disk - disk // hidden
    };
    let got = result.completion_time.as_secs_f64();
    assert!(
        (got - expected).abs() < 1e-4,
        "got {got}, expected ≈ {expected}"
    );
}
