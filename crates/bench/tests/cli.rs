//! The bench binaries refuse input they would otherwise drop: they exit 2
//! with the reason on standard error before any work, instead of printing
//! NaN means, a "best" setting chosen from nothing or an empty archive;
//! and a flag a binary does not take, or a malformed one, exits 2 with its
//! name rather than being ignored or panicking with a backtrace.

use std::process::Command;

/// Asserts that `bin args` exits 2, that its standard error is the one
/// line `error: {reason}` (the whole reason, so a row pins every word of
/// it, a known-flag list included) and that it printed nothing on
/// standard output (so nothing ran).
fn assert_rejected(bin: &str, args: &[&str], reason: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} should exit 2; stderr: {stderr}"
    );
    assert_eq!(
        stderr,
        format!("error: {reason}\n"),
        "{bin} {args:?} should give exactly the reason {reason:?}"
    );
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} started work before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn figure_binaries_reject_zero_configs() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig6"),
        &["--configs", "0"],
        "--configs must be at least 1: a study of no configurations compares nothing",
    );
}

#[test]
fn ablations_reject_zero_configs() {
    assert_rejected(
        env!("CARGO_BIN_EXE_ablations"),
        &["--configs", "0"],
        "--configs must be at least 1: a study of no configurations compares nothing",
    );
}

#[test]
fn ablations_reject_an_unknown_which() {
    // A misspelt name must not select nothing and archive `[]`.
    assert_rejected(
        env!("CARGO_BIN_EXE_ablations"),
        &["--which", "objectiv"],
        "--which objectiv names no ablation; known: all, objective, knowledge, probes, \
         ordering, tthres, monitoring, duplex, mobility, state",
    );
}

#[test]
fn perf_takes_no_flag_but_quick() {
    // The gate runs each study once, untimed, at the seed its budgets were
    // measured at, so it takes no repetition count and no seed.
    for flag in ["--reps", "--seed"] {
        assert_rejected(
            env!("CARGO_BIN_EXE_perf"),
            &[flag, "5"],
            &format!("unknown flag {flag}; known: --quick"),
        );
    }
}

#[test]
fn malformed_flags_exit_2_instead_of_panicking() {
    for (bin, args, reason) in [
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--configs", "abc"][..],
            "invalid value for --configs: abc",
        ),
        (
            env!("CARGO_BIN_EXE_fig6"),
            &["--bogus"],
            "unknown flag --bogus; known: --configs --threads --seed --json",
        ),
        (
            env!("CARGO_BIN_EXE_ablations"),
            &["--configs"],
            "--configs requires a value",
        ),
        (
            env!("CARGO_BIN_EXE_perf"),
            &["--bogus"],
            "unknown flag --bogus; known: --quick",
        ),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--threads"],
            "--threads requires a value",
        ),
    ] {
        assert_rejected(bin, args, reason);
    }
}
