//! A reader that closes the pipe early (`analyze t.jsonl | head -0`,
//! `fig1_ior | head -1`) must not turn a correct run into a failure:
//! the binaries stop printing, still write their files, and exit 0.
//! Every `pio-bench` binary is covered.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};

/// Run `bin` with stdout on a pipe whose read end is already dropped, so
/// every write to it fails with a broken pipe however fast the child runs.
/// CSV exports go to `results`.
fn run_with_closed_stdout(bin: &str, args: &[&str], results: &Path) -> ExitStatus {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .env("PIO_RESULTS", results)
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

/// A temporary directory unique to this test and process (the tests run
/// in parallel and each removes its own).
fn temp_dir_for(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pio-bench-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn path_arg(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn analyze_exits_cleanly_on_a_closed_stdout() {
    let dir = temp_dir_for("analyze-epipe");
    let trace = dir.join("t.jsonl");
    let made = Command::new(env!("CARGO_BIN_EXE_mktrace"))
        .arg(&trace)
        .stderr(Stdio::null())
        .status()
        .expect("run mktrace");
    assert!(made.success(), "mktrace exited with {made}");
    for extra in [&[][..], &["--stream"][..]] {
        let mut args = vec![path_arg(&trace)];
        args.extend_from_slice(extra);
        let status = run_with_closed_stdout(env!("CARGO_BIN_EXE_analyze"), &args, &dir);
        assert!(status.success(), "analyze {args:?} exited with {status}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_matrix_exits_cleanly_on_a_closed_stdout_and_still_writes_out() {
    let dir = temp_dir_for("fault-matrix-epipe");
    let out = dir.join("matrix.txt");
    let status = run_with_closed_stdout(
        env!("CARGO_BIN_EXE_fault_matrix"),
        &["--scale", "16", "--out", path_arg(&out)],
        &dir,
    );
    assert!(status.success(), "fault_matrix exited with {status}");
    let table = std::fs::read_to_string(&out).expect("--out written");
    assert!(
        table.ends_with("PASS: all 18 cells\n"),
        "unexpected --out tail: {:?}",
        &table[table.len().saturating_sub(80)..]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure_binaries_exit_cleanly_on_a_closed_stdout_and_still_write_their_csvs() {
    let figures = [
        (env!("CARGO_BIN_EXE_fig1_ior"), 3),
        (env!("CARGO_BIN_EXE_fig2_lln"), 5),
        (env!("CARGO_BIN_EXE_fig4_madbench"), 6),
        (env!("CARGO_BIN_EXE_fig5_patch"), 10),
        (env!("CARGO_BIN_EXE_fig6_gcrm"), 12),
        (env!("CARGO_BIN_EXE_all_experiments"), 0),
    ];
    for (bin, csvs) in figures {
        let name = Path::new(bin).file_name().unwrap().to_string_lossy();
        let dir = temp_dir_for(&format!("{name}-epipe"));
        let status = run_with_closed_stdout(bin, &["--scale", "64"], &dir);
        assert!(status.success(), "{name} exited with {status}");
        let written = std::fs::read_dir(&dir).expect("read results dir").count();
        assert_eq!(written, csvs, "{name}: CSV exports under PIO_RESULTS");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn ablations_exits_cleanly_on_a_closed_stdout() {
    let dir = temp_dir_for("ablations-epipe");
    let status = run_with_closed_stdout(env!("CARGO_BIN_EXE_ablations"), &["--scale", "64"], &dir);
    assert!(status.success(), "ablations exited with {status}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_summary_exits_cleanly_on_a_closed_stdout_and_still_writes_out() {
    let dir = temp_dir_for("bench-summary-epipe");
    let out = dir.join("partial.json");
    let status = run_with_closed_stdout(
        env!("CARGO_BIN_EXE_bench_summary"),
        &["--only", "des/", "--reps", "1", "--out", path_arg(&out)],
        &dir,
    );
    assert!(status.success(), "bench_summary exited with {status}");
    let json = std::fs::read_to_string(&out).expect("--out written");
    assert!(
        json.contains("des/event_queue_churn_100k"),
        "unexpected --out: {json:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_tools_exit_cleanly_on_a_closed_stdout() {
    // Neither writes to stdout; a closed one must not matter.
    let dir = temp_dir_for("trace-tools-epipe");
    let trace = dir.join("t.jsonl");
    let ptb2 = dir.join("t.ptb2");
    let status = run_with_closed_stdout(env!("CARGO_BIN_EXE_mktrace"), &[path_arg(&trace)], &dir);
    assert!(status.success(), "mktrace exited with {status}");
    let status = run_with_closed_stdout(
        env!("CARGO_BIN_EXE_trace_convert"),
        &[path_arg(&trace), path_arg(&ptb2), "--verify"],
        &dir,
    );
    assert!(status.success(), "trace_convert exited with {status}");
    assert!(ptb2.exists(), "trace_convert wrote no output");
    std::fs::remove_dir_all(&dir).ok();
}
