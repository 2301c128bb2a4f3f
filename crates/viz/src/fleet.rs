//! Rendering for the fleet service: the machine-wide roll-up, the
//! per-tenant verdict table, and the cross-job interference view.

use crate::snapshot::snapshot_panel;
use pio_ingest::shard::EnsembleSnapshot;
use std::fmt::Write as _;

/// One tenant row of the fleet panel.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJobRow {
    /// Tenant label.
    pub name: String,
    /// Records the service ingested for this tenant.
    pub records: u64,
    /// Records shed (budget or transport).
    pub shed: u64,
    /// Tenant was frozen by its memory budget.
    pub frozen: bool,
    /// Attributed fault class name, `None` for a clean tenant.
    pub verdict: Option<String>,
    /// The tenant's slowest operation (seconds), 0 when idle.
    pub slowest_s: f64,
}

/// One contended-target row of the fleet panel.
#[derive(Debug, Clone, PartialEq)]
pub struct OstContentionRow {
    /// The shared object storage target.
    pub ost: usize,
    /// `(tenant name, severity)` for every tenant slow on it.
    pub jobs: Vec<(String, f64)>,
}

/// Render the fleet roll-up panel: the merged machine-wide ensemble
/// snapshot, one row per tenant (records, sheds, verdict, slowest op),
/// and the interference view naming jobs that contend on the same OST.
/// Verdicts are per job: the roll-up pools every tenant's shards, so it
/// is shown as an ensemble only. `width` is the histogram bar width
/// of the embedded snapshot panel.
pub fn fleet_panel(
    machine: &EnsembleSnapshot,
    jobs: &[FleetJobRow],
    contention: &[OstContentionRow],
    width: usize,
) -> String {
    let mut out = String::new();
    let faulted = jobs.iter().filter(|j| j.verdict.is_some()).count();
    let _ = writeln!(
        out,
        "# fleet: {} jobs ({} attributed, {} clean)\n",
        jobs.len(),
        faulted,
        jobs.len() - faulted
    );
    out.push_str("## machine roll-up\n");
    out.push_str(&snapshot_panel(machine, width));
    out.push_str("\n## jobs\n");
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>8} {:>7} {:>10}  verdict",
        "job", "records", "shed", "frozen", "slowest(s)"
    );
    for j in jobs {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>8} {:>7} {:>10.4}  {}",
            j.name,
            j.records,
            j.shed,
            if j.frozen { "yes" } else { "-" },
            j.slowest_s,
            j.verdict.as_deref().unwrap_or("clean"),
        );
    }
    out.push_str("\n## interference\n");
    if contention.is_empty() {
        out.push_str("no shared-target contention: no OST is slow for two or more jobs\n");
    } else {
        for row in contention {
            let jobs = row
                .jobs
                .iter()
                .map(|(name, sev)| format!("{name} ({sev:.1}x)"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "OST {:>3} contended by: {}", row.ost, jobs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<FleetJobRow> {
        vec![
            FleetJobRow {
                name: "job-00-slow-ost".into(),
                records: 1000,
                shed: 0,
                frozen: false,
                verdict: Some("slow-ost".into()),
                slowest_s: 1.25,
            },
            FleetJobRow {
                name: "job-01-paced-read".into(),
                records: 800,
                shed: 12,
                frozen: true,
                verdict: None,
                slowest_s: 0.02,
            },
        ]
    }

    #[test]
    fn panel_names_jobs_verdicts_and_contention() {
        let machine = EnsembleSnapshot::empty();
        let contention = vec![OstContentionRow {
            ost: 1,
            jobs: vec![
                ("job-00-slow-ost".into(), 7.9),
                ("job-05-slow-ost".into(), 8.2),
            ],
        }];
        let text = fleet_panel(&machine, &rows(), &contention, 30);
        assert!(
            text.contains("fleet: 2 jobs (1 attributed, 1 clean)"),
            "{text}"
        );
        assert!(text.contains("job-00-slow-ost"));
        assert!(text.contains("slow-ost"));
        assert!(text.contains("clean"));
        assert!(
            text.contains("OST   1 contended by: job-00-slow-ost (7.9x), job-05-slow-ost (8.2x)")
        );
    }

    /// The roll-up of a straggler tenant's snapshot shows the ensemble
    /// and no findings or verdict; the job row keeps the tenant's own
    /// verdict.
    #[test]
    fn rollup_has_no_verdict_and_job_rows_keep_theirs() {
        use pio_core::diagnosis::run_verdict;
        use pio_ingest::StreamDiagnoser;
        use pio_trace::{CallKind, Record, RecordSink};
        // Two ranks slow on every read: a rank-correlated tail the
        // stream attributes to a straggler node.
        let mut d = StreamDiagnoser::with_defaults();
        for i in 0..640u32 {
            let rank = i % 16;
            let dur = if rank < 2 { 1.0 } else { 0.01 };
            d.push(&Record {
                rank,
                call: CallKind::Read,
                fd: 3,
                offset: 0,
                bytes: 1 << 20,
                start_ns: 0,
                end_ns: (dur * 1e9) as u64,
                phase: 0,
            });
        }
        d.finish();
        let (findings, builder) = d.into_parts();
        let inner: Vec<_> = findings.into_iter().map(|t| t.finding).collect();
        let row = FleetJobRow {
            name: "job-00-straggler".into(),
            records: 640,
            shed: 0,
            frozen: false,
            verdict: Some(run_verdict(&inner).label()),
            slowest_s: 1.0,
        };
        let mut machine = EnsembleSnapshot::empty();
        machine.merge(&builder.into_snapshot(0));
        let text = fleet_panel(&machine, &[row], &[], 30);
        let (rollup, jobs) = text.split_once("\n## jobs\n").expect("jobs section");
        assert!(rollup.contains("640 records"), "{rollup}");
        assert!(
            !rollup
                .lines()
                .any(|l| l.starts_with("## findings") || l.starts_with("verdict:")),
            "{rollup}"
        );
        assert!(
            jobs.lines()
                .any(|l| l.starts_with("job-00-straggler") && l.ends_with("  straggler-node")),
            "{jobs}"
        );
    }

    #[test]
    fn quiet_fleet_renders_no_contention() {
        let machine = EnsembleSnapshot::empty();
        let text = fleet_panel(&machine, &[], &[], 20);
        assert!(text.contains("fleet: 0 jobs"));
        assert!(text.contains("no shared-target contention"));
    }
}
