//! An output a binary cannot write fails the run cleanly: exit 1 with a
//! message naming the path, never a panic (exit 101). The outputs here
//! sit under a regular file, so creating them fails on any platform.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A temporary directory holding a regular file `file`; returns the
/// directory and the unwritable path `file/sub`.
fn blocked_path(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pio-bench-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("file");
    std::fs::write(&file, "not a directory").expect("create regular file");
    (dir, file.join("sub"))
}

fn arg(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn assert_exit_1_naming(out: &Output, path: &Path, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.contains(arg(path)), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn analyze_csv_under_a_regular_file_exits_1_naming_the_path() {
    let (dir, blocked) = blocked_path("analyze-csv-blocked");
    let trace = dir.join("t.jsonl");
    let made = Command::new(env!("CARGO_BIN_EXE_mktrace"))
        .arg(&trace)
        .stderr(Stdio::null())
        .status()
        .expect("run mktrace");
    assert!(made.success(), "mktrace exited with {made}");
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args([arg(&trace), "--csv", arg(&blocked)])
        .output()
        .expect("run analyze");
    assert_exit_1_naming(&out, &blocked, "analyze --csv");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure_csvs_under_a_regular_file_exit_1_naming_the_path() {
    let (dir, blocked) = blocked_path("fig5-csv-blocked");
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_patch"))
        .args(["--scale", "64"])
        .env("PIO_RESULTS", &blocked)
        .output()
        .expect("run fig5_patch");
    assert_exit_1_naming(&out, &blocked, "fig5_patch");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mktrace_under_a_regular_file_exits_1_naming_the_path() {
    let (dir, blocked) = blocked_path("mktrace-blocked");
    let trace = blocked.join("t.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_mktrace"))
        .arg(&trace)
        .output()
        .expect("run mktrace");
    assert_exit_1_naming(&out, &trace, "mktrace");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_convert_under_a_regular_file_exits_1_naming_the_path() {
    let (dir, blocked) = blocked_path("trace-convert-blocked");
    let trace = dir.join("t.jsonl");
    let made = Command::new(env!("CARGO_BIN_EXE_mktrace"))
        .arg(&trace)
        .stderr(Stdio::null())
        .status()
        .expect("run mktrace");
    assert!(made.success(), "mktrace exited with {made}");
    let converted = blocked.join("t.ptb2");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_convert"))
        .args([arg(&trace), arg(&converted)])
        .output()
        .expect("run trace_convert");
    assert_exit_1_naming(&out, &converted, "trace_convert");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--baseline` that cannot be loaded fails before anything is
/// measured: exit 1 naming the path, nothing on stdout, and no `--out`
/// file — for a missing file and for one that is not a summary.
#[test]
fn unloadable_baseline_exits_1_before_measuring() {
    let (dir, _) = blocked_path("bench-summary-baseline");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not a summary").expect("write garbage baseline");
    for baseline in [dir.join("missing.json"), garbage] {
        let written = dir.join("x.json");
        let out = Command::new(env!("CARGO_BIN_EXE_bench_summary"))
            .args(["--only", "des/event_queue_churn", "--reps", "1"])
            .args(["--out", arg(&written), "--baseline", arg(&baseline)])
            .output()
            .expect("run bench_summary");
        assert_exit_1_naming(&out, &baseline, "bench_summary --baseline");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.is_empty(), "measured before loading: {stdout}");
        assert!(!written.exists(), "{} was written", written.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
