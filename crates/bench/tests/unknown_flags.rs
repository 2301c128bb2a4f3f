//! A flag a driver does not know is an error, not a silent default run:
//! a typo (`--scael 64`) or a flag the drivers no longer take
//! (`--shards`) exits 2 and names the flag.

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
