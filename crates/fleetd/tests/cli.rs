//! `pio-fleetd` rejects what it cannot honour: an unknown flag, a flag
//! without its value (or with another flag in its place), a zero-sized
//! worker pool or feeder set, and a zero scale each exit 2 with the
//! usage line before any job is simulated. A tenant frozen over its
//! budget is named and left unjudged.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh working directory, so a run that took a flag for a file name
/// would leave that file behind.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pio-fleetd-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str]) -> (Option<i32>, String) {
    run_in(&std::env::temp_dir(), args)
}

fn run_in(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pio-fleetd"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run pio-fleetd");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    assert_usage_error_in(&std::env::temp_dir(), args, message);
}

fn assert_usage_error_in(dir: &Path, args: &[&str], message: &str) {
    let (code, stderr) = run_in(dir, args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: pio-fleetd"), "{args:?}: {stderr}");
    assert!(
        !stderr.contains("simulating"),
        "{args:?} ran the fleet: {stderr}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(
        &["--jobs", "2", "--faulted", "0", "--pol", "4"],
        "unknown flag \"--pol\"",
    );
    assert_usage_error(&["--jobs", "2", "stray"], "unexpected argument \"stray\"");
}

#[test]
fn flag_without_value_is_a_usage_error() {
    assert_usage_error(
        &["--jobs", "2", "--faulted", "0", "--pool"],
        "--pool requires a value",
    );
    assert_usage_error(&["--out"], "--out requires a value");
}

#[test]
fn a_flag_in_place_of_a_value_is_a_usage_error() {
    // Each flag's value slot holds another flag: the flag has no value,
    // and nothing may be simulated or written under the other's name.
    let dir = scratch_dir("flag-as-value");
    assert_usage_error_in(
        &dir,
        &[
            "--jobs",
            "2",
            "--faulted",
            "1",
            "--scale",
            "16",
            "--out",
            "--pool",
        ],
        "--out requires a value",
    );
    assert_usage_error_in(&dir, &["--jobs", "--pool", "2"], "--jobs requires a value");
    assert!(
        !dir.join("--pool").exists(),
        "a roll-up was written to a file named --pool"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_pool_or_threads_is_a_usage_error() {
    for flag in ["--pool", "--threads"] {
        assert_usage_error(
            &["--jobs", "2", "--faulted", "0", flag, "0"],
            "--pool and --threads must be at least 1",
        );
    }
}

#[test]
fn malformed_value_is_a_usage_error() {
    assert_usage_error(&["--pool", "zero"], "bad value for --pool: zero");
}

#[test]
fn zero_scale_is_a_usage_error() {
    assert_usage_error(
        &["--jobs", "1", "--faulted", "0", "--scale", "0"],
        "--scale must be at least 1",
    );
}

#[test]
fn frozen_tenants_are_named_and_not_judged() {
    // A 1-byte budget freezes every tenant after its first block, so no
    // verdict covers a whole run: the fleet names them and exits 0.
    let (code, stderr) = run(&["--jobs", "8", "--faulted", "2", "--budget", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains(
            "8/8 jobs frozen over budget, not judged: job-00-slow-ost, job-01-flaky-fabric"
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("MISATTRIBUTED"), "{stderr}");
    assert!(
        stderr.contains("all 0 jobs attributed correctly (0 faulted, 0 clean)"),
        "{stderr}"
    );
}
