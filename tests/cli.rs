//! The `wadc` command line refuses what it cannot run: a misspelt flag or
//! an input no run can take exits 2 with the reason on standard error,
//! before any simulation starts, instead of running with defaults or
//! panicking inside the engine.

use std::process::{Command, Output};

use wadc::core::study::{run_study, StudyParams};
use wadc::obs::Json;

fn wadc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wadc"))
        .args(args)
        .output()
        .expect("the wadc binary runs")
}

/// Asserts that `wadc args` exits 2, names `reason` on standard error and
/// printed nothing on standard output (so nothing ran).
fn assert_rejected(args: &[&str], reason: &str) {
    let out = wadc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "wadc {args:?} should exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(reason),
        "wadc {args:?} should say {reason:?}; stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "wadc {args:?} started work before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_subcommand_rejects_flags_it_does_not_take() {
    for args in [
        &["run", "--sever", "4", "--images", "2"][..],
        &["report", "--algoritm", "one-shot"],
        &["study", "--confgs", "3"],
        &["trace", "--window", "6"],
        &["plan", "--objectve", "contended"],
        &["verify", "--quik"],
        &["chaos", "--los", "0.2"],
        // Real flags, but of another subcommand.
        &["run", "--configs", "3"],
        &["report", "--audit"],
        // Soak-only flags on a single chaos run.
        &["chaos", "--shrink"],
        &["chaos", "--threads", "2"],
    ] {
        let flag = args[1];
        assert_rejected(args, &format!("unknown flag {flag}"));
    }
}

#[test]
fn inputs_no_run_can_take_exit_2_with_the_reason() {
    // Should the tracing rows regress, their files land in the temp dir.
    let trace = std::env::temp_dir().join("wadc-cli-threads-trace.json");
    let trace = trace.to_str().expect("a UTF-8 temp path");
    for (args, reason) in [
        (&["run", "--servers", "1"][..], "at least two servers"),
        (&["run", "--images", "0"], "zero-image workload"),
        (&["run", "--period-mins", "0"], "zero re-planning period"),
        (&["report", "--servers", "1"], "at least two servers"),
        (&["plan", "--servers", "0"], "at least two servers"),
        (&["study", "--configs", "0"], "--configs must be at least 1"),
        (&["chaos", "--servers", "1"], "at least two servers"),
        (&["chaos", "--soak", "0"], "--soak must be at least 1"),
        // The soak draws its own plans: single-run fault and world flags
        // would be ignored.
        (
            &["chaos", "--soak", "3", "--loss", "0.5"],
            "unknown flag --loss for `wadc chaos --soak`",
        ),
        (
            &["chaos", "--soak", "3", "--images", "2"],
            "unknown flag --images for `wadc chaos --soak`",
        ),
        (
            &["chaos", "--outage-mins", "3"],
            "--outage-mins needs --outages",
        ),
        (
            &["chaos", "--outages", "0", "--outage-mins", "3"],
            "--outage-mins needs --outages",
        ),
        (
            &["chaos", "--crash-at-secs", "5"],
            "--crash-at-secs needs --crash-host",
        ),
        (
            &["run", "--extra-candidates", "3", "--algorithm", "global"],
            "--extra-candidates needs --algorithm local",
        ),
        (
            &["report", "--extra-candidates", "3"],
            "--extra-candidates needs --algorithm local",
        ),
        (
            &["run", "--period-mins", "5", "--algorithm", "download-all"],
            "--period-mins needs --algorithm global or local",
        ),
        (
            &["chaos", "--period-mins", "5", "--algorithm", "one-shot"],
            "--period-mins needs --algorithm global or local",
        ),
        (
            &["trace", "--window-hours", "0"],
            "--window-hours must be at least 1",
        ),
        (
            &["trace", "--pair", "3,3"],
            "a pair needs two distinct hosts",
        ),
        // Oversized worlds are refused before their link table is built.
        (
            &["run", "--servers", "100000", "--images", "1"],
            "at most 256 servers",
        ),
        (&["plan", "--servers", "40000"], "at most 256 servers"),
        (
            &["run", "--images", "100001"],
            "at most 100000 images per server",
        ),
        (
            &["chaos", "--soak", "1", "--servers", "257"],
            "at most 256 servers",
        ),
        // A threads=1 == threads=N gate at N = 1 compares a study with
        // itself.
        (
            &["verify", "--quick", "--threads", "1"],
            "verify --threads must be at least 2",
        ),
        (
            &["verify", "--quick", "--threads", "0"],
            "verify --threads must be at least 2",
        ),
        (
            &["chaos", "--soak", "3", "--threads", "0"],
            "chaos --soak --threads must be at least 1",
        ),
        // Printing the fixture runs nothing else: any other flag would
        // be ignored.
        (
            &["verify", "--print-golden", "--seed", "5"],
            "--print-golden takes no other flag: --seed would be ignored",
        ),
        (
            &["verify", "--print-golden", "--threads", "1"],
            "--print-golden takes no other flag: --threads would be ignored",
        ),
        // One fixture pins every world, so there is no second print flag.
        (
            &["verify", "--print-golden-topo"],
            "unknown flag --print-golden-topo for `wadc verify`",
        ),
        // A span too long for the simulated clock's microseconds would
        // wrap to a short one.
        (
            &[
                "run",
                "--servers",
                "4",
                "--images",
                "8",
                "--algorithm",
                "global",
                "--period-mins",
                "307445734562",
            ],
            "--period-mins 307445734562 overflows the simulated clock",
        ),
        (
            &[
                "chaos",
                "--servers",
                "4",
                "--images",
                "8",
                "--outages",
                "2",
                "--outage-mins",
                "307445734562",
            ],
            "--outage-mins 307445734562 overflows the simulated clock",
        ),
        (
            &[
                "chaos",
                "--servers",
                "4",
                "--images",
                "8",
                "--crash-host",
                "1",
                "--crash-at-secs",
                "18446744073710",
            ],
            "--crash-at-secs 18446744073710 overflows the simulated clock",
        ),
        (
            &["trace", "--pair", "0,1", "--window-hours", "5124095577"],
            "--window-hours 5124095577 overflows the simulated clock",
        ),
        (
            &["trace", "--pair", "0,1", "--window-hours", "49"],
            "--window-hours 49 runs past the end of the study, which spans 48 h",
        ),
        // The gauge analysis runs its own harness: of the study's flags it
        // reads only the seed.
        (
            &[
                "study",
                "--gauge-analysis",
                "--configs",
                "5",
                "--threads",
                "3",
                "--servers",
                "9",
                "--topology",
                "paper-wan",
                "--knowledge",
                "oracle",
            ],
            "--gauge-analysis takes no flag but --seed: --configs would be ignored",
        ),
        (
            &["study", "--seed", "3", "--gauge-analysis", "--threads", "2"],
            "--gauge-analysis takes no flag but --seed: --threads would be ignored",
        ),
        // The gauger learns only from transfers that share a link, so on a
        // per-pair world it would silently run the monitored algorithm.
        (
            &[
                "run",
                "--servers",
                "8",
                "--images",
                "30",
                "--algorithm",
                "global",
                "--period-mins",
                "2",
                "--knowledge",
                "gauged",
                "--json",
            ],
            "--knowledge gauged needs --topology",
        ),
        (
            &["study", "--configs", "2", "--knowledge", "gauged"],
            "--knowledge gauged needs --topology",
        ),
        // A traced run records on one thread, so it would ignore --threads.
        (
            &["run", "--threads", "2", "--trace-out", trace],
            "--threads cannot be used with --trace-out or --jsonl-out",
        ),
        (
            &["run", "--jsonl-out", trace, "--threads", "1"],
            "--threads cannot be used with --trace-out or --jsonl-out",
        ),
    ] {
        assert_rejected(args, reason);
    }
}

#[test]
fn run_config_i_is_configuration_i_of_the_study() {
    let out = wadc(&[
        "run",
        "--servers",
        "4",
        "--images",
        "8",
        "--config",
        "2",
        "--algorithm",
        "one-shot",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("run --json prints JSON");
    let digest = json
        .get("digest")
        .and_then(Json::as_str)
        .expect("the result has a digest");

    let mut params = StudyParams::paper_main(1998);
    params.n_servers = 4;
    params.workload.images_per_server = 8;
    params.n_configs = 3;
    let study = run_study(&params);
    // One-shot is the first of the study's algorithms.
    assert_eq!(digest, study.outcomes[2].results[0].digest_hex());
}

#[test]
fn valid_flags_still_run() {
    let out = wadc(&["trace", "--pair", "0,1", "--window-hours", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("KB/s"));
}
