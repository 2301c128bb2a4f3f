//! One verdict per run: `analyze --stream` prints the snapshot panel as
//! an ensemble only, and the run's verdict once, at the end of the
//! online findings. Both traces are fault-matrix runs at scale 16, seed
//! 101, simulated exactly as `matrix_traces(16, &[101])` does.

use pio_bench::fault_matrix::{run_once, scenarios};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A temporary directory unique to this test and process.
fn temp_dir_for(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pio-bench-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Simulate one cell's baseline or faulted run, save it as JSONL under
/// `dir`, and return the `verdict:` lines `analyze --stream` prints.
fn stream_verdict_lines(fault: &str, faulted: bool, dir: &Path) -> Vec<String> {
    let cell = scenarios(16)
        .into_iter()
        .find(|s| s.fault == fault)
        .unwrap_or_else(|| panic!("no fault-matrix cell {fault}"));
    let plan = faulted.then(|| cell.plan());
    let label = format!("fault-{}", cell.fault);
    let trace = run_once(cell.job(), cell.fs(), 101, &label, plan).into_trace();
    let path = dir.join(format!("{}-{faulted}.jsonl", fault.replace('+', "_")));
    pio_trace::io::save(&trace, &path).expect("save trace");
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg(&path)
        .arg("--stream")
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "analyze exited with {}", out.status);
    String::from_utf8(out.stdout)
        .expect("utf-8 report")
        .lines()
        .filter(|l| l.starts_with("verdict:"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn clean_baseline_prints_no_verdict() {
    let dir = temp_dir_for("one-verdict-baseline");
    let lines = stream_verdict_lines("slow-ost", false, &dir);
    assert!(lines.is_empty(), "{lines:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulted_run_prints_exactly_one_verdict() {
    let dir = temp_dir_for("one-verdict-faulted");
    let lines = stream_verdict_lines("straggler+flaky", true, &dir);
    assert_eq!(lines.len(), 1, "{lines:?}");
    for class in ["straggler-node", "flaky-fabric"] {
        assert!(lines[0].contains(class), "{lines:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
