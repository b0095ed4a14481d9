//! The bench binaries refuse input they would otherwise drop: they exit 2
//! with the reason on standard error before any work, instead of printing
//! NaN means, a "best" setting chosen from nothing, an empty archive or a
//! repetition count other than the one asked for; and a malformed flag
//! exits 2 with its name rather than panicking with a backtrace.

use std::process::Command;

/// Asserts that `bin args` exits 2, gives `reason` on standard error and
/// printed nothing on standard output (so nothing ran).
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
    assert!(
        stderr.contains(reason),
        "{bin} {args:?} should give the reason {reason:?}; stderr: {stderr}"
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
        "--configs must be at least 1",
    );
}

#[test]
fn ablations_reject_zero_configs() {
    assert_rejected(
        env!("CARGO_BIN_EXE_ablations"),
        &["--configs", "0"],
        "--configs must be at least 1",
    );
}

#[test]
fn ablations_reject_an_unknown_which() {
    // A misspelt name must not select nothing and archive `[]`.
    assert_rejected(
        env!("CARGO_BIN_EXE_ablations"),
        &["--which", "objectiv"],
        "--which objectiv names no ablation; known: all, objective, knowledge,",
    );
}

#[test]
fn perf_rejects_zero_reps() {
    // A bench of no repetitions must not quietly run one. Should the check
    // regress, the archive lands in the temp dir, not the tree.
    let archive = std::env::temp_dir().join("wadc-perf-rejects-zero-reps.json");
    let archive = archive.to_str().expect("a UTF-8 temp path");
    assert_rejected(
        env!("CARGO_BIN_EXE_perf"),
        &["--reps", "0", "--quick", "--json", archive],
        "--reps must be at least 1",
    );
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
            &["--reps", "x"],
            "invalid value for --reps: x",
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
