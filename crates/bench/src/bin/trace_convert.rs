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

use pio_bench::util::{format_from_args, reject_unknown_flags, usage_error};
use pio_trace::io as trace_io;
use pio_trace::TraceFormat;
use std::path::Path;

const USAGE: [&str; 4] = ["<in>", "<out>", "--format jsonl|ptb2", "--verify"];

fn main() {
    let positional = reject_unknown_flags(&USAGE);
    let [input, output] = &positional[..] else {
        usage_error(&USAGE, "expected <in> and <out>");
    };
    let verify = std::env::args().any(|a| a == "--verify");
    let in_path = Path::new(input);
    let out_path = Path::new(output);

    let in_format = match TraceFormat::sniff(in_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace_convert: cannot read {input}: {e}");
            std::process::exit(1);
        }
    };
    let out_format = format_from_args()
        .unwrap_or_else(|| TraceFormat::from_extension(out_path).unwrap_or(TraceFormat::Jsonl));

    let trace = match trace_io::load(in_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_convert: cannot load {input}: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = trace_io::save_as(&trace, out_path, out_format) {
        eprintln!("trace_convert: cannot write {output}: {e}");
        std::process::exit(1);
    }
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
