//! The simulated fleet: dozens of concurrent jobs — mixed workloads, a
//! configurable fraction under fault plans — streamed through a
//! [`FleetService`].
//!
//! The job mix is the fault × workload matrix's (`pio-bench`'s
//! `fault_matrix`, whose cells the attribution-corpus test certifies):
//! tenants build their jobs with the cells' own builders in
//! [`pio_workloads::matrix`], and every faulted tenant is a workload/plan
//! pair whose batch and streaming verdicts are golden at the corpus
//! seeds. The `paced-read` and `meta-stream` clean tenants are those
//! cells' baselines; the `ior-read` one runs the slow-ost cell's job on
//! the default platform rather than the cell's calm one, so no matrix
//! cell certifies it (`pio-bench`'s `fleet_tenants` test checks all of
//! this against the cells). A fleet run is therefore checkable end to
//! end — faulted jobs must be attributed to their injected class, clean
//! jobs must stay clean — without this crate re-deriving any thresholds.
//!
//! Replay order is the corpus's arrival order: each simulated trace is
//! sorted by `(start_ns, rank)` before it is streamed, so per-job fleet
//! verdicts match the single-job streaming diagnoser verdict for the
//! same records.

use crate::interference::OstLayout;
use crate::service::{FleetConfig, FleetService, JobId, JobSink};
use pio_core::attribution::FaultClass;
use pio_core::diagnosis::Verdict;
use pio_des::par::map_claimed;
use pio_fault::{Fault, FaultPlan};
use pio_fs::FsConfig;
use pio_ingest::DiagnoserConfig;
use pio_mpi::program::Job;
use pio_mpi::{RunConfig, Runner};
use pio_trace::{RecordSink, Trace, TraceMeta};
use pio_workloads::matrix::{meta_heavy, paced_reads, read_heavy};

/// Seeds the attribution corpus certifies; the fleet cycles through
/// them so every tenant's verdict is backed by a golden cell.
pub const CORPUS_SEEDS: [u64; 2] = [101, 202];

/// The diagnoser window the attribution corpus replays with; fleet
/// tenants use the same so per-job verdicts match the corpus.
pub const CORPUS_WINDOW: usize = 256;

/// Shape of a simulated fleet.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Total concurrent jobs.
    pub jobs: usize,
    /// How many of them run under a fault plan (cycling through the
    /// attributable fault classes; the rest are clean baselines).
    pub faulted: usize,
    /// Platform scale divisor (16 = the corpus scale).
    pub scale: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            jobs: 8,
            faulted: 2,
            scale: 16,
        }
    }
}

/// One tenant of the simulated fleet.
pub struct SimJob {
    /// Tenant label (`job-NN-<fault or workload>`).
    pub name: String,
    /// The workload.
    pub job: Job,
    /// Its platform.
    pub fs: FsConfig,
    /// The fault plan, if this tenant is faulted.
    pub plan: Option<FaultPlan>,
    /// Simulation seed (cycles over [`CORPUS_SEEDS`]).
    pub seed: u64,
    /// The class the fleet must attribute (`None` = must stay clean).
    pub expected: Option<FaultClass>,
}

impl SimJob {
    /// The OST layout this tenant's offsets map through.
    pub fn layout(&self) -> OstLayout {
        OstLayout::new(self.fs.stripe_bytes, self.fs.n_osts, 0)
    }
}

/// Build the tenant list for a fleet shape. Deterministic in `cfg`:
/// the first `faulted` tenants cycle through the five attributable
/// fault cells (slow-ost, flaky-fabric, mds-stall, straggler-node,
/// drop-retry), the rest cycle through three clean workloads (ior-read,
/// paced-read, meta-stream; the module doc says which are matrix
/// baselines); seeds alternate over [`CORPUS_SEEDS`]. With
/// `faulted >= 6` the slow-ost cell recurs, giving two tenants colliding
/// on the same degraded OST — the interference view's must-catch case.
pub fn fleet_spec(cfg: &SimConfig) -> Vec<SimJob> {
    let fs = FsConfig::franklin().scaled(cfg.scale.max(1));
    let mut calm = fs.clone();
    calm.discipline_weights = [0.0, 0.0, 1.0];
    let tasks = (256 / cfg.scale.max(1)).max(16);
    let n_osts = fs.n_osts;

    (0..cfg.jobs)
        .map(|i| {
            let seed = CORPUS_SEEDS[i % CORPUS_SEEDS.len()];
            if i < cfg.faulted {
                let (label, plan, job, platform, expected) = match i % 5 {
                    0 => (
                        "slow-ost",
                        FaultPlan::new().with(Fault::SlowOst {
                            ost: 1 % n_osts,
                            slowdown: 8.0,
                            ramp_per_s: 0.0,
                        }),
                        read_heavy(tasks, 2),
                        calm.clone(),
                        FaultClass::SlowOst,
                    ),
                    1 => (
                        "flaky-fabric",
                        FaultPlan::new().with(Fault::FlakyFabric {
                            period_s: 0.25,
                            duty: 0.1,
                            slowdown: 40.0,
                        }),
                        paced_reads(tasks, 48, 0.1),
                        calm.clone(),
                        FaultClass::FlakyFabric,
                    ),
                    2 => (
                        "mds-stall",
                        FaultPlan::new().with(Fault::MdsStall {
                            period_s: 3.1,
                            stall_s: 0.7,
                        }),
                        meta_heavy(tasks, 40),
                        fs.clone(),
                        FaultClass::MdsStall,
                    ),
                    3 => (
                        "straggler-node",
                        FaultPlan::new().with(Fault::StragglerNode {
                            node: 0,
                            slowdown: 32.0,
                        }),
                        paced_reads(tasks, 48, 0.1),
                        calm.clone(),
                        FaultClass::StragglerNode,
                    ),
                    _ => (
                        "drop-retry",
                        FaultPlan::new().with(Fault::DropRetry {
                            prob: 0.08,
                            timeout_s: 0.3,
                            max_retries: 4,
                        }),
                        paced_reads(tasks, 48, 0.1),
                        calm.clone(),
                        FaultClass::DropRetry,
                    ),
                };
                SimJob {
                    name: format!("job-{i:02}-{label}"),
                    job,
                    fs: platform,
                    plan: Some(plan),
                    seed,
                    expected: Some(expected),
                }
            } else {
                let (label, job, platform) = match i % 3 {
                    0 => ("ior-read", read_heavy(tasks, 2), fs.clone()),
                    1 => ("paced-read", paced_reads(tasks, 48, 0.1), calm.clone()),
                    _ => ("meta-stream", meta_heavy(tasks, 40), fs.clone()),
                };
                SimJob {
                    name: format!("job-{i:02}-{label}"),
                    job,
                    fs: platform,
                    plan: None,
                    seed,
                    expected: None,
                }
            }
        })
        .collect()
}

/// A [`FleetConfig`] tuned for the simulated fleet: `pool` workers,
/// per-tenant `budget_bytes`, and the corpus diagnoser window so fleet
/// verdicts match the golden single-job verdicts.
pub fn fleet_config(pool: usize, budget_bytes: usize) -> FleetConfig {
    FleetConfig {
        workers: pool,
        budget_bytes,
        diagnoser: DiagnoserConfig {
            window: CORPUS_WINDOW,
            ..DiagnoserConfig::default()
        },
        ..FleetConfig::default()
    }
}

/// Simulate every tenant concurrently over `threads` OS threads and
/// return each job's trace in corpus arrival order (records sorted by
/// `(start_ns, rank)`), indexed like `spec`. Each tenant is one
/// streaming [`Runner`] run into its own [`Trace`]; tenants fan out over
/// [`map_claimed`], so the traces are bit-identical for any `threads`.
pub fn simulate(spec: &[SimJob], threads: usize) -> Vec<Trace> {
    map_claimed(spec, threads, |s| {
        let mut cfg = RunConfig::new(s.fs.clone(), s.seed, s.name.clone());
        if let Some(p) = &s.plan {
            cfg = cfg.with_fault(p.clone());
        }
        let mut trace = Trace::new(TraceMeta {
            experiment: s.name.clone(),
            platform: s.fs.name.clone(),
            ranks: s.job.ranks(),
            seed: s.seed,
        });
        Runner::new(&s.job, cfg)
            .sink(&mut trace)
            .execute_one()
            .expect("simulated fleet job runs to completion");
        trace.records.sort_by_key(|r| (r.start_ns, r.rank));
        trace
    })
}

/// Register every tenant and stream its records into the service over
/// `threads` concurrent feeders (whole jobs are claimed through
/// [`map_claimed`], so each job's stream stays in order). Returns the
/// assigned job ids, indexed like `spec`.
pub fn feed(
    service: &FleetService,
    spec: &[SimJob],
    traces: &[Trace],
    threads: usize,
) -> Vec<JobId> {
    assert_eq!(spec.len(), traces.len(), "one trace per tenant");
    // Register in spec order so id assignment is deterministic.
    let sinks: Vec<JobSink> = spec
        .iter()
        .map(|s| service.register_with_layout(&s.name, s.layout()))
        .collect();
    let ids: Vec<JobId> = sinks.iter().map(JobSink::id).collect();
    map_claimed(
        sinks.into_iter().zip(traces),
        threads,
        |(mut sink, trace)| {
            sink.push_block(&trace.records);
            sink.finish();
        },
    );
    ids
}

/// One tenant's attribution check after a fleet run.
#[derive(Debug, Clone)]
pub struct FleetCheck {
    /// Tenant label.
    pub name: String,
    /// The class the tenant must be attributed to (`None` = clean).
    pub expected: Option<FaultClass>,
    /// The fleet's verdict.
    pub verdict: Verdict,
    /// Records the service ingested for this tenant.
    pub records: u64,
    /// Records shed (budget or transport).
    pub shed: u64,
    /// The tenant went over budget and was frozen, so its verdict covers
    /// only the records admitted before the freeze: it is not judged.
    pub frozen: bool,
    /// Verdict matches expectation (always true for a frozen tenant).
    pub ok: bool,
}

/// Compare every tenant's fleet verdict against its expectation,
/// leaving frozen tenants unjudged.
pub fn check(service: &FleetService, spec: &[SimJob], ids: &[JobId]) -> Vec<FleetCheck> {
    spec.iter()
        .zip(ids)
        .map(|(s, &id)| {
            let report = service.report(id);
            let verdict = report.as_ref().map_or(Verdict::Clean, |r| r.verdict());
            let frozen = report.as_ref().is_some_and(|r| r.frozen);
            let ok = frozen
                || match s.expected {
                    None => verdict == Verdict::Clean,
                    Some(c) => verdict == Verdict::Single(c),
                };
            FleetCheck {
                name: s.name.clone(),
                expected: s.expected,
                records: report.as_ref().map_or(0, |r| r.ingested),
                shed: report.as_ref().map_or(0, |r| r.shed),
                verdict,
                frozen,
                ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_deterministic_and_labeled() {
        let cfg = SimConfig {
            jobs: 12,
            faulted: 6,
            scale: 16,
        };
        let a = fleet_spec(&cfg);
        let b = fleet_spec(&cfg);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.expected, y.expected);
        }
        // Faulted prefix, clean tail.
        assert!(a[..6]
            .iter()
            .all(|s| s.plan.is_some() && s.expected.is_some()));
        assert!(a[6..]
            .iter()
            .all(|s| s.plan.is_none() && s.expected.is_none()));
        // faulted >= 6 makes the slow-ost cell recur: the interference
        // collision pair.
        assert!(a[0].name.ends_with("slow-ost"));
        assert!(a[5].name.ends_with("slow-ost"));
    }

    #[test]
    fn simulated_traces_are_identical_for_any_thread_count() {
        let spec = fleet_spec(&SimConfig {
            jobs: 5,
            faulted: 2,
            scale: 16,
        });
        let serial = simulate(&spec, 1);
        let parallel = simulate(&spec, 4);
        assert_eq!(serial.len(), spec.len());
        for ((a, b), s) in serial.iter().zip(&parallel).zip(&spec) {
            assert_eq!(a.meta, b.meta, "{}", s.name);
            assert_eq!(a.meta.experiment, s.name);
            assert!(!a.records.is_empty(), "{}", s.name);
            assert_eq!(a.records, b.records, "{}", s.name);
        }
    }

    #[test]
    fn simulate_orders_records_by_arrival() {
        let spec = fleet_spec(&SimConfig {
            jobs: 2,
            faulted: 0,
            scale: 16,
        });
        let traces = simulate(&spec, 2);
        assert_eq!(traces.len(), 2);
        for t in &traces {
            assert!(!t.records.is_empty());
            assert!(t
                .records
                .windows(2)
                .all(|w| (w[0].start_ns, w[0].rank) <= (w[1].start_ns, w[1].rank)));
        }
    }
}
