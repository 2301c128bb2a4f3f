//! A flag a driver does not know is an error, not a silent default run:
//! a typo (`--scael 64`) or a flag the drivers no longer take
//! (`--shards`) exits 2 and names the flag. The trace tools judge their
//! switches (`--stream`, `--verify`) and positionals the same way.

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
