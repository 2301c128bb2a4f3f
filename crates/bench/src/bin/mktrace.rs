//! Generate a sample trace file for `analyze` (also doubles as the
//! save-path smoke test): a scaled IOR run saved as JSONL or, with
//! `--format ptb2` (or a `.ptb2` output extension), the binary format.
//!
//! Usage: `mktrace [<out>] [--format jsonl|ptb2]` (default
//! `results/sample_trace.jsonl`). A flag it does not know (`--formt`)
//! exits 2 with the usage line before anything is simulated or written.
use pio_bench::util::{format_from_args, reject_unknown_flags};
use pio_fs::FsConfig;
use pio_mpi::{RunConfig, Runner};
use pio_trace::TraceFormat;
use pio_workloads::IorConfig;

fn main() {
    let path = reject_unknown_flags(&["[<out>]", "--format jsonl|ptb2"])
        .into_iter()
        .next()
        .unwrap_or_else(|| "results/sample_trace.jsonl".into());
    let format = format_from_args().unwrap_or_else(|| {
        TraceFormat::from_extension(std::path::Path::new(&path)).unwrap_or(TraceFormat::Jsonl)
    });
    let cfg = IorConfig {
        repetitions: 2,
        ..IorConfig::paper_fig1().scaled(32)
    };
    let job = cfg.job();
    let res = Runner::new(
        &job,
        RunConfig::new(FsConfig::franklin().scaled(32), 7, "sample-ior"),
    )
    .execute_one()
    .unwrap();
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    pio_trace::io::save_as(res.trace(), std::path::Path::new(&path), format).unwrap();
    eprintln!(
        "wrote {} records to {path} ({})",
        res.trace().records.len(),
        format.name()
    );
}
