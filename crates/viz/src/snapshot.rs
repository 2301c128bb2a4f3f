//! Rendering for streaming-ingest snapshots: the monitoring view of a
//! run in flight, from `O(shards × bins)` state instead of a full trace,
//! and the online diagnoser's findings, which end with the run's one
//! verdict.

use pio_core::diagnosis::{run_verdict, Finding, Verdict};
use pio_ingest::diagnose::TimedFinding;
use pio_ingest::shard::EnsembleSnapshot;
use pio_trace::CallKind;
use std::fmt::Write as _;

/// Render an ensemble snapshot: the ingest totals, a per-call-class
/// summary table (sketch quantiles), and a duration histogram per data
/// call class. `width` is the histogram bar width. The panel shows the
/// ensemble only; a run's verdict is the online diagnoser's
/// ([`findings_text`]), and a fleet roll-up pools many runs.
pub fn snapshot_panel(snap: &EnsembleSnapshot, width: usize) -> String {
    assert!(width > 0);
    if snap.is_empty() {
        // A zero-record stream is a clean outcome, not an error: say so
        // instead of rendering an all-zero table.
        return format!(
            "# ensemble snapshot: no data ({} records dropped)\n",
            snap.dropped
        );
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ensemble snapshot: {} records ({} dropped), {} ranks, {} shards (~{:.1} KiB)",
        snap.ingested,
        snap.dropped,
        snap.ranks,
        snap.shards.len(),
        snap.approx_bytes() as f64 / 1024.0
    );
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "kind", "ops", "MB", "mean(s)", "p50(s)", "p99(s)", "max(s)"
    );
    for kind in CallKind::ALL {
        let Some(stats) = snap.kind_stats(kind) else {
            continue;
        };
        let s = &stats.sketch;
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>12.1} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            kind.name(),
            stats.ops,
            stats.bytes as f64 / 1e6,
            stats.moments.mean().unwrap_or(0.0),
            s.quantile(0.5).unwrap_or(0.0),
            s.quantile(0.99).unwrap_or(0.0),
            s.max().unwrap_or(0.0),
        );
    }
    for kind in [CallKind::Read, CallKind::Write] {
        let Some(stats) = snap.kind_stats(kind) else {
            continue;
        };
        let hist = stats.hist();
        if hist.in_range() == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "\n## {} durations ({} events)",
            kind.name(),
            hist.in_range()
        );
        let max = hist.counts().iter().copied().max().unwrap_or(0).max(1);
        for i in 0..hist.bins() {
            let c = hist.counts()[i];
            if c == 0 {
                continue;
            }
            let bar = (c as usize * width).div_ceil(max as usize);
            let _ = writeln!(
                out,
                "{:>10.4}s |{:<width$} {}",
                hist.bin_center(i),
                "#".repeat(bar),
                c,
                width = width
            );
        }
    }
    out
}

/// Render the online diagnoser's findings with when they fired.
pub fn findings_text(findings: &[TimedFinding]) -> String {
    if findings.is_empty() {
        return "no findings: ensemble statistics look healthy\n".to_string();
    }
    let mut out = String::new();
    for t in findings {
        let _ = writeln!(
            out,
            "[{:>9} records, phase {:>3}] {}",
            t.after_records, t.phase, t.finding
        );
    }
    let inner: Vec<Finding> = findings.iter().map(|t| t.finding.clone()).collect();
    let verdict = run_verdict(&inner);
    if verdict != Verdict::Clean {
        let _ = writeln!(out, "verdict: {}", verdict.label());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_ingest::{SnapshotBuilder, SnapshotConfig, StreamDiagnoser};
    use pio_trace::{Record, RecordSink};

    fn rec(rank: u32, call: CallKind, dur: f64, phase: u32) -> Record {
        Record {
            rank,
            call,
            fd: 3,
            offset: 0,
            bytes: 1 << 20,
            start_ns: 0,
            end_ns: (dur * 1e9) as u64,
            phase,
        }
    }

    #[test]
    fn panel_renders_table_and_histogram() {
        let mut sink = SnapshotBuilder::new(SnapshotConfig::default());
        for i in 0..500u32 {
            sink.push(&rec(
                i % 16,
                CallKind::Read,
                0.01 + (i % 10) as f64 * 0.001,
                0,
            ));
            sink.push(&rec(i % 16, CallKind::Write, 0.02, 0));
        }
        let snap = sink.into_snapshot(0);
        let text = snapshot_panel(&snap, 30);
        assert!(text.contains("1000 records"));
        assert!(text.contains("read"));
        assert!(text.contains("write durations"));
        assert!(text.contains('#'));
    }

    #[test]
    fn zero_record_snapshot_renders_a_no_data_header() {
        let snap = pio_ingest::shard::EnsembleSnapshot::empty();
        let text = snapshot_panel(&snap, 30);
        assert!(text.contains("no data"), "{text}");
        // No table header.
        assert!(!text.contains("p99"), "{text}");
    }

    #[test]
    fn findings_text_covers_both_cases() {
        assert!(findings_text(&[]).contains("healthy"));
        let mut d = StreamDiagnoser::with_defaults();
        for i in 0..200u32 {
            let dur = if i % 8 == 0 { 300.0 } else { 10.0 };
            d.push(&rec(i % 16, CallKind::Read, dur, 0));
        }
        d.finish();
        let text = findings_text(d.findings());
        assert!(text.contains("right shoulder"), "{text}");
        assert!(text.contains("records, phase"), "{text}");
    }

    #[test]
    fn attributed_findings_render_a_verdict_line() {
        // Two ranks slow on every operation: a rank-correlated tail the
        // stream attributes to a straggler node.
        let mut d = StreamDiagnoser::with_defaults();
        for i in 0..640u32 {
            let rank = i % 16;
            let dur = if rank < 2 { 1.0 } else { 0.01 };
            d.push(&rec(rank, CallKind::Read, dur, 0));
        }
        d.finish();
        let text = findings_text(d.findings());
        assert!(text.contains("verdict:"), "{text}");
        assert!(text.contains("straggler-node"), "{text}");
    }
}
