//! Convert traces between JSONL and the binary ptb2 format.
//!
//! Usage: `trace_convert <in> <out> [--format jsonl|ptb2] [--verify]`
//!
//! The input format is sniffed from the file's bytes; the output format
//! comes from `--format`, or failing that from the output extension
//! (`.ptb2` → ptb2, anything else → JSONL). With `--verify`, the written
//! file is read back and checked record-for-record against the input —
//! a full round-trip proof, not just a clean exit. A flag it does not
//! know (`--verfy`) or a third positional exits 2 with the usage line
//! before anything is read or written.

use pio_bench::util::{trace_format, write_or_exit, Args};
use pio_trace::io as trace_io;
use pio_trace::TraceFormat;
use std::path::Path;

fn main() {
    let args = Args::parse(&["<in>", "<out>", "--format jsonl|ptb2", "--verify"]);
    let (Some(input), Some(output)) = (args.positional(0), args.positional(1)) else {
        args.usage_error("expected <in> and <out>");
    };
    let out_format = args.value("--format", trace_format);
    let verify = args.switch("--verify");
    let in_path = Path::new(input);
    let out_path = Path::new(output);

    let in_format = match TraceFormat::sniff(in_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace_convert: cannot read {input}: {e}");
            std::process::exit(1);
        }
    };
    let out_format = out_format
        .unwrap_or_else(|| TraceFormat::from_extension(out_path).unwrap_or(TraceFormat::Jsonl));

    let trace = match trace_io::load(in_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_convert: cannot load {input}: {e}");
            std::process::exit(1);
        }
    };
    write_or_exit(out_path, |p| trace_io::save_as(&trace, p, out_format));
    let out_bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "{}: {} records, {} -> {} ({} bytes)",
        output,
        trace.records.len(),
        in_format.name(),
        out_format.name(),
        out_bytes
    );

    if verify {
        let back = match trace_io::load(out_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace_convert: verify: cannot re-read {output}: {e}");
                std::process::exit(1);
            }
        };
        if back.meta != trace.meta {
            eprintln!("trace_convert: verify FAILED: metadata differs");
            std::process::exit(1);
        }
        if back.records != trace.records {
            eprintln!(
                "trace_convert: verify FAILED: records differ ({} vs {})",
                back.records.len(),
                trace.records.len()
            );
            std::process::exit(1);
        }
        eprintln!(
            "verify: round trip OK ({} records identical)",
            back.records.len()
        );
    }
}
