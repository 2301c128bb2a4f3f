//! `pio-fleetd` rejects what it cannot honour: an unknown flag, a flag
//! without its value, a zero-sized worker pool or feeder set, and a zero
//! scale each exit 2 with the usage line before any job is simulated. A
//! tenant frozen over its budget is named and left unjudged.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pio-fleetd"))
        .args(args)
        .output()
        .expect("run pio-fleetd");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (code, stderr) = run(args);
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
