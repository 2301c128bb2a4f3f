//! Generate a sample trace file for `analyze` (also doubles as the
//! save-path smoke test): a scaled IOR run saved as JSONL or, with
//! `--format ptb2` (or a `.ptb2` output extension), the binary format.
//!
//! Usage: `mktrace [<out>] [--format jsonl|ptb2]` (default
//! `results/sample_trace.jsonl`). A flag it does not know (`--formt`)
//! exits 2 with the usage line before anything is simulated or written;
//! an output it cannot write exits 1 naming the path.
use pio_bench::util::{trace_format, write_or_exit, Args};
use pio_fs::FsConfig;
use pio_mpi::{RunConfig, Runner};
use pio_trace::TraceFormat;
use pio_workloads::IorConfig;
use std::path::Path;

fn main() {
    let args = Args::parse(&["[<out>]", "--format jsonl|ptb2"]);
    let path = args.positional(0).unwrap_or("results/sample_trace.jsonl");
    let format = args.value("--format", trace_format).unwrap_or_else(|| {
        TraceFormat::from_extension(Path::new(path)).unwrap_or(TraceFormat::Jsonl)
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
    write_or_exit(Path::new(path), |p| {
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent)?;
        }
        pio_trace::io::save_as(res.trace(), p, format)
    });
    eprintln!(
        "wrote {} records to {path} ({})",
        res.trace().records.len(),
        format.name()
    );
}
