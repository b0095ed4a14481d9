//! The figure and ablation binaries refuse `--configs 0`: they exit 2 with
//! the reason on standard error before any work, instead of printing NaN
//! means or a "best" setting chosen from nothing.

use std::process::Command;

/// Asserts that `bin args` exits 2, names the reason on standard error and
/// printed nothing on standard output (so nothing ran).
fn assert_rejected(bin: &str, args: &[&str]) {
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
        stderr.contains("--configs must be at least 1"),
        "{bin} {args:?} should give the reason; stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} started work before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn figure_binaries_reject_zero_configs() {
    assert_rejected(env!("CARGO_BIN_EXE_fig6"), &["--configs", "0"]);
}

#[test]
fn ablations_reject_zero_configs() {
    assert_rejected(env!("CARGO_BIN_EXE_ablations"), &["--configs", "0"]);
}
