//! A flag a driver does not know is an error, not a silent default run:
//! a typo (`--scael 64`) or a flag the drivers no longer take
//! (`--shards`) exits 2 and names the flag. The trace tools judge their
//! switches (`--stream`, `--verify`) and positionals the same way, and
//! every usage error of a binary prints its one usage line.

use std::process::Command;

#[test]
fn retired_shards_flag_exits_2_and_names_the_flag() {
    for bin in [
        env!("CARGO_BIN_EXE_fig2_lln"),
        env!("CARGO_BIN_EXE_fault_matrix"),
    ] {
        let out = Command::new(bin)
            .args(["--shards", "4"])
            .output()
            .unwrap_or_else(|e| panic!("run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("--shards"), "{bin}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} ran an experiment");
    }
}

#[test]
fn flag_typos_in_ablations_and_bench_summary_exit_2_and_name_the_flag() {
    for (bin, typo) in [
        (env!("CARGO_BIN_EXE_ablations"), ["--scael", "4"]),
        (env!("CARGO_BIN_EXE_bench_summary"), ["--rep", "5"]),
    ] {
        let out = Command::new(bin)
            .args(typo)
            .output()
            .unwrap_or_else(|e| panic!("run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains(typo[0]), "{bin}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} ran");
    }
}

/// A fresh working directory, so a run that ignored its flags and wrote
/// its default output would leave it behind.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pio-unknown-flags-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn trace_tools_reject_typos_and_a_valueless_csv_before_any_io() {
    let dir = scratch_dir("trace-tools");
    // Each case names the argument the error must name; none may write
    // a byte to stdout or a file to the working directory. The input
    // traces do not exist, so exit 2 rather than 1 also shows the
    // arguments are judged before any file is opened.
    for (bin, args, named) in [
        (
            env!("CARGO_BIN_EXE_analyze"),
            &["t.jsonl", "--strem"][..],
            "--strem",
        ),
        (
            env!("CARGO_BIN_EXE_trace_convert"),
            &["a.jsonl", "b.ptb2", "--verfy"][..],
            "--verfy",
        ),
        (
            env!("CARGO_BIN_EXE_mktrace"),
            &["--formt", "ptb2"][..],
            "--formt",
        ),
        (
            env!("CARGO_BIN_EXE_analyze"),
            &["t.jsonl", "--csv"][..],
            "--csv",
        ),
        // A partial summary never lands on the default baseline path.
        (
            env!("CARGO_BIN_EXE_bench_summary"),
            &["--only", "des/"][..],
            "--out",
        ),
        // A declared flag is never another flag's value: no file named
        // `--scale`, no CSV directory named `--diagram`.
        (
            env!("CARGO_BIN_EXE_fault_matrix"),
            &["--out", "--scale"][..],
            "--out requires a value",
        ),
        (
            env!("CARGO_BIN_EXE_analyze"),
            &["t.jsonl", "--csv", "--diagram"][..],
            "--csv requires a value",
        ),
        (
            env!("CARGO_BIN_EXE_trace_convert"),
            &["a.jsonl", "b.ptb2", "--format", "--verify"][..],
            "--format requires a value",
        ),
    ] {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a report");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("read scratch dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert!(written.is_empty(), "{bin} {args:?} wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_refuses_stream_with_csv_or_diagram_before_any_io() {
    // Both need the loaded trace, which --stream never holds: the pair is
    // refused rather than half-run. The trace does not exist, so exit 2
    // rather than 1 shows nothing was opened.
    let dir = scratch_dir("stream-conflicts");
    for args in [
        &["t.jsonl", "--stream", "--csv", "csvs"][..],
        &["t.jsonl", "--diagram", "--stream"][..],
        &["t.jsonl", "--stream", "--csv", "csvs", "--diagram"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        for flag in args.iter().filter(|a| a.starts_with("--")) {
            assert!(error.contains(flag), "{args:?}: {stderr}");
        }
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let written = std::fs::read_dir(&dir).expect("read scratch dir").count();
        assert_eq!(written, 0, "{args:?} wrote into the working directory");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The last stderr line of a run that must fail with a usage error.
fn usage_line(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
    stderr.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_usage_error_prints_the_binarys_one_usage_line() {
    let fig1 = env!("CARGO_BIN_EXE_fig1_ior");
    let want = format!(
        "usage: {fig1} [--scale N] [--fault <plan>] \
         [--fault-schedule <plan>[@START..END][~RAMP],...]"
    );
    for args in [
        &["--scale", "0"][..],
        &["--fault", "bogus"][..],
        &["--scael", "4"][..],
        &["--fault-schedule", "bogus"][..],
        &["--scale"][..],
    ] {
        assert_eq!(usage_line(fig1, args), want, "fig1_ior {args:?}");
    }
    let bench_summary = env!("CARGO_BIN_EXE_bench_summary");
    let want = format!(
        "usage: {bench_summary} [--out PATH] [--reps N] [--only PREFIX] \
         [--baseline PATH] [--gate METRIC] [--tolerance PCT]"
    );
    for args in [&["--reps", "0"][..], &["--tolerance", "-1"][..]] {
        assert_eq!(
            usage_line(bench_summary, args),
            want,
            "bench_summary {args:?}"
        );
    }
}
