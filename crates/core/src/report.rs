//! Human-readable ensemble-analysis report for a trace: the textual
//! equivalent of the paper's figure panels plus the diagnosis.

use crate::diagnosis::diagnose;
use crate::empirical::EmpiricalDist;
use crate::modes::find_modes;
use crate::rates::{durations, write_rate_curve};
use pio_trace::{CallKind, Trace};
use std::fmt::Write as _;

/// Render a full analysis report for `trace`.
pub fn render(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ensemble analysis: {} on {} ({} ranks, seed {})",
        trace.meta.experiment, trace.meta.platform, trace.meta.ranks, trace.meta.seed
    );
    let _ = writeln!(
        out,
        "run time {:.2} s, aggregate {:.1} MB/s, {} phases, {} records",
        trace.makespan().as_secs_f64(),
        trace.aggregate_rate_mb_s(),
        trace.phase_count(),
        trace.records.len()
    );
    let wr = write_rate_curve(trace, trace.makespan().as_secs_f64().max(1e-9) / 100.0);
    let _ = writeln!(
        out,
        "write rate: peak {:.1} MB/s, average {:.1} MB/s",
        wr.peak(),
        wr.average()
    );

    for kind in [
        CallKind::Write,
        CallKind::Read,
        CallKind::MetaWrite,
        CallKind::MetaRead,
    ] {
        let samples = durations(trace, kind, None);
        if samples.len() < 4 {
            continue;
        }
        let d = EmpiricalDist::new(&samples);
        let _ = writeln!(
            out,
            "\n## {} ensemble ({} events)\n  mean {:.4}s  median {:.4}s  p99 {:.4}s  max {:.4}s  cv {:.2}",
            kind.name(),
            d.n(),
            d.mean(),
            d.median(),
            d.quantile(0.99),
            d.max(),
            d.cv().unwrap_or(0.0),
        );
        let modes = find_modes(&d);
        if !modes.is_empty() {
            let locs: Vec<String> = modes
                .iter()
                .map(|m| format!("{:.3}s ({:.0}%)", m.location, m.mass * 100.0))
                .collect();
            let _ = writeln!(out, "  modes: {}", locs.join(", "));
        }
    }

    let findings = diagnose(trace);
    let _ = writeln!(out, "\n## Diagnosis ({} findings)", findings.len());
    if findings.is_empty() {
        let _ = writeln!(out, "  no pathological signatures detected");
    }
    for f in &findings {
        let _ = writeln!(out, "  - {f}");
    }
    out
}

/// Render a multi-run ensemble report: stability metrics, stable modes
/// with their presence across runs, and bootstrap confidence intervals on
/// the pooled median — the paper's "is this experiment reproducible?"
/// question answered in one block.
pub fn render_ensemble(label: &str, runs: &[Vec<f64>]) -> String {
    use crate::bootstrap::median_ci;
    use crate::ensemble::Ensemble;
    let mut out = String::new();
    let _ = writeln!(out, "# Ensemble report: {label} ({} runs)", runs.len());
    if runs.iter().any(|r| r.is_empty()) || runs.is_empty() {
        let _ = writeln!(out, "  (insufficient data)");
        return out;
    }
    let ens = Ensemble::from_samples(runs);
    if let Some(s) = ens.stability() {
        let _ = writeln!(
            out,
            "stability: max KS {:.3}, mean KS {:.3}, median spread {:.1}%  -> {}",
            s.max_ks,
            s.mean_ks,
            s.median_spread * 100.0,
            if ens.is_reproducible(0.2) {
                "REPRODUCIBLE (the distribution is the stable object)"
            } else {
                "NOT reproducible — investigate the divergent run"
            }
        );
    }
    let pooled = ens.pooled();
    let ci = median_ci(&pooled, 200, 0.95, 0xC1);
    let _ = writeln!(
        out,
        "pooled median {:.4}s  (95% CI [{:.4}, {:.4}], n={})",
        ci.estimate,
        ci.lo,
        ci.hi,
        pooled.n()
    );
    let stable = ens.stable_modes();
    if !stable.is_empty() {
        let _ = writeln!(out, "modes (location, mass, presence across runs):");
        for (m, presence) in &stable {
            let _ = writeln!(
                out,
                "  {:>8.3}s  mass {:>4.0}%  in {:>3.0}% of runs{}",
                m.location,
                m.mass * 100.0,
                presence * 100.0,
                if *presence >= 0.99 { "  [stable]" } else { "" }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_trace::{Record, TraceMeta};

    fn sample_trace() -> Trace {
        let mut t = Trace::new(TraceMeta {
            experiment: "report-test".into(),
            platform: "test".into(),
            ranks: 16,
            seed: 42,
        });
        for i in 0..16u32 {
            t.push(Record {
                rank: i,
                call: CallKind::Write,
                fd: 3,
                offset: 0,
                bytes: 1 << 20,
                start_ns: 0,
                end_ns: 1_000_000_000 + i as u64 * 50_000_000,
                phase: 0,
            });
        }
        t
    }

    #[test]
    fn report_contains_sections() {
        let text = render(&sample_trace());
        assert!(text.contains("Ensemble analysis: report-test"));
        assert!(text.contains("write ensemble (16 events)"));
        assert!(text.contains("Diagnosis"));
        assert!(text.contains("median"));
    }

    #[test]
    fn healthy_trace_reports_no_findings() {
        let text = render(&sample_trace());
        assert!(text.contains("no pathological signatures"));
    }

    #[test]
    fn ensemble_report_renders_stable_modes() {
        let runs: Vec<Vec<f64>> = (0..3)
            .map(|r| {
                (0..200)
                    .map(|i| {
                        let base = if i % 3 == 0 { 8.0 } else { 16.0 };
                        base + ((i * 7 + r * 11) % 13) as f64 * 0.02
                    })
                    .collect()
            })
            .collect();
        let text = render_ensemble("ior-512m", &runs);
        assert!(text.contains("REPRODUCIBLE"), "{text}");
        assert!(text.contains("[stable]"), "{text}");
        assert!(text.contains("95% CI"));
    }

    #[test]
    fn ensemble_report_flags_divergence() {
        let runs = vec![
            (0..100)
                .map(|i| 1.0 + (i % 7) as f64 * 0.01)
                .collect::<Vec<f64>>(),
            (0..100).map(|i| 9.0 + (i % 7) as f64 * 0.01).collect(),
        ];
        let text = render_ensemble("bad", &runs);
        assert!(text.contains("NOT reproducible"), "{text}");
    }

    #[test]
    fn empty_trace_renders() {
        let t = Trace::default();
        let text = render(&t);
        assert!(text.contains("0 records"));
    }
}
