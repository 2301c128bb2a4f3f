//! The fleet acceptance test: a simulated machine of ≥24 concurrent
//! jobs — mixed workloads, ten under fault plans — streamed through the
//! always-on `pio-fleetd` service under a bounded per-tenant memory
//! budget.
//!
//! Asserts the tentpole guarantees end to end:
//!
//! * **Golden-corpus parity** — every faulted tenant's fleet verdict is
//!   its injected class, and matches the batch `diagnose` verdict over
//!   the very same records; every clean tenant stays clean.
//! * **Determinism** — per-job reports and the machine roll-up are
//!   bit-identical across worker-pool sizes {1, 2, 8}.
//! * **Budgets** — the bounded per-tenant budget is honored without
//!   shedding a record of these jobs, and a hostile budget freezes a
//!   tenant without corrupting its neighbors or the roll-up.
//! * **Interference** — two tenants hammering the same degraded OST are
//!   jointly named on that OST by the cross-job view.

use events_to_ensembles::fleetd::{
    self, feed, fleet_config, fleet_spec, FleetService, JobReport, SimConfig,
};
use events_to_ensembles::ingest::EnsembleSnapshot;
use events_to_ensembles::stats::attribution::FaultClass;
use events_to_ensembles::stats::diagnose;
use events_to_ensembles::stats::diagnosis::{run_verdict, Verdict};
use events_to_ensembles::trace::Trace;
use std::sync::Arc;

const JOBS: usize = 24;
const FAULTED: usize = 10;
const SCALE: u32 = 16;
const BUDGET: usize = 1 << 20; // bounded: 1 MiB of resident sketch per tenant
const POOLS: [usize; 3] = [1, 2, 8];

fn spec_and_traces() -> (Vec<fleetd::SimJob>, Vec<Trace>) {
    let cfg = SimConfig {
        jobs: JOBS,
        faulted: FAULTED,
        scale: SCALE,
    };
    let spec = fleet_spec(&cfg);
    let traces = fleetd::simulate(&spec, 4);
    (spec, traces)
}

fn run_pool(
    spec: &[fleetd::SimJob],
    traces: &[Trace],
    pool: usize,
) -> (
    Vec<Arc<JobReport>>,
    EnsembleSnapshot,
    Vec<fleetd::OstContention>,
) {
    let mut svc = FleetService::new(fleet_config(pool, BUDGET));
    let ids = feed(&svc, spec, traces, 4);
    svc.shutdown();
    assert_eq!(svc.live_jobs(), 0, "all tenants evicted at end of stream");
    let reports: Vec<Arc<JobReport>> = ids
        .iter()
        .map(|&id| svc.report(id).expect("report filed"))
        .collect();
    (reports, svc.rollup(), svc.interference())
}

/// The whole-run verdict batch `diagnose` reaches over a trace — the
/// same roll-up `JobReport::verdict` uses, recomputed independently.
fn batch_verdict(trace: &Trace) -> Verdict {
    run_verdict(&diagnose(trace))
}

#[test]
fn fleet_of_24_attributes_faulted_jobs_and_matches_batch_verdicts() {
    let (spec, traces) = spec_and_traces();
    assert!(spec.len() >= 24);

    let baseline = run_pool(&spec, &traces, POOLS[0]);
    for &pool in &POOLS[1..] {
        let other = run_pool(&spec, &traces, pool);
        assert_eq!(
            baseline.0, other.0,
            "per-job reports must be identical for pools {} and {pool}",
            POOLS[0]
        );
        assert_eq!(
            baseline.1, other.1,
            "machine roll-up must be identical for pools {} and {pool}",
            POOLS[0]
        );
        assert_eq!(
            baseline.2, other.2,
            "interference view must be identical for pools {} and {pool}",
            POOLS[0]
        );
    }

    let (reports, rollup, contention) = baseline;
    let mut total = 0u64;
    for ((s, t), r) in spec.iter().zip(&traces).zip(&reports) {
        assert_eq!(r.name, s.name);
        assert!(r.ingested > 0, "{}: no records ingested", s.name);
        assert_eq!(r.ingested as usize, t.records.len(), "{}", s.name);
        assert_eq!(r.shed, 0, "{}: budget must not shed these jobs", s.name);
        assert!(!r.frozen, "{}: must not freeze under the budget", s.name);
        total += r.ingested;

        // Fleet verdict == injected class (Clean for clean tenants)...
        let want = match s.expected {
            Some(c) => Verdict::Single(c),
            None => Verdict::Clean,
        };
        assert_eq!(
            r.verdict(),
            want,
            "{}: fleet verdict {}, expected {}; findings: {:?}",
            s.name,
            r.verdict().label(),
            want.label(),
            r.findings
        );
        // ...and parity with the batch detectors over the same records.
        assert_eq!(batch_verdict(t), want, "{}: batch verdict differs", s.name);
    }
    assert_eq!(rollup.ingested, total, "roll-up sums every tenant");
    assert_eq!(rollup.dropped, 0);

    // Two slow-ost tenants (jobs 0 and 5 of the faulted cycle) collide
    // on OST 1; the interference view must name both on that target.
    let slow_jobs: Vec<&str> = spec
        .iter()
        .filter(|s| s.expected == Some(FaultClass::SlowOst))
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(slow_jobs.len(), 2, "the spec provides the collision pair");
    let row = contention
        .iter()
        .find(|c| c.ost == 1)
        .expect("OST 1 must appear in the interference view");
    for name in &slow_jobs {
        assert!(
            row.jobs.iter().any(|(n, _)| n == name),
            "interference on OST 1 must name {name}: {:?}",
            row.jobs
        );
    }
    // And nothing else is jointly blamed: clean tenants never co-sign.
    for c in &contention {
        for (name, _) in &c.jobs {
            assert!(
                slow_jobs.contains(&name.as_str()),
                "clean tenant {name} flagged on OST {}",
                c.ost
            );
        }
    }
}

#[test]
fn hostile_budget_freezes_one_tenant_without_perturbing_the_rest() {
    let cfg = SimConfig {
        jobs: 3,
        faulted: 0,
        scale: SCALE,
    };
    let spec = fleet_spec(&cfg);
    let traces = fleetd::simulate(&spec, 2);

    // Generous budget: nothing shed.
    let mut free = FleetService::new(fleet_config(2, 0));
    let free_ids = feed(&free, &spec, &traces, 2);
    free.shutdown();

    // One-byte budget: every tenant freezes after its first block, yet
    // reports still file, verdicts stay clean, and the roll-up only
    // counts what was admitted.
    let mut tight = FleetService::new(fleet_config(2, 1));
    let tight_ids = feed(&tight, &spec, &traces, 2);
    tight.shutdown();

    for (&fid, &tid) in free_ids.iter().zip(&tight_ids) {
        let f = free.report(fid).expect("free report");
        let t = tight.report(tid).expect("tight report");
        assert_eq!(f.shed, 0);
        assert!(!f.frozen);
        assert!(t.frozen, "{}: 1-byte budget must freeze", t.name);
        assert!(t.ingested < f.ingested);
        assert_eq!(t.ingested + t.shed, f.ingested, "{}: conservation", t.name);
        assert_eq!(t.snapshot.dropped, t.shed);
        assert_eq!(
            t.verdict(),
            Verdict::Clean,
            "{}: prefix diagnosis stays clean",
            t.name
        );
    }
    assert_eq!(
        tight.rollup().ingested,
        tight_ids
            .iter()
            .map(|&id| tight.report(id).expect("report").ingested)
            .sum::<u64>()
    );
}
