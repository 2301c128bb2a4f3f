//! Job execution: a [`Runner`] builder drives one or many seeded
//! simulations of a job — serial or fanned out over threads, with or
//! without an injected fault plan — and returns one [`RunReport`] per
//! seed.
//!
//! Every run captures through one [`RecordSink`]: the caller's, when it
//! streams ([`Runner::sink`]), or else a [`Trace`] that the report
//! carries, sorted by start time.
//!
//! ```no_run
//! # use pio_mpi::{Runner, RunConfig, Job};
//! # use pio_fs::FsConfig;
//! # let job: Job = todo!();
//! let reports = Runner::new(&job, RunConfig::new(FsConfig::tiny_test(), 0, "exp"))
//!     .seeds(&[1, 2, 3])
//!     .threads(3)
//!     .execute()?;
//! # Ok::<(), pio_mpi::RunError>(())
//! ```

use crate::program::Job;
use crate::world::MpiWorld;
use pio_des::par::map_claimed;
use pio_des::{SimTime, Simulator};
use pio_fault::FaultPlan;
use pio_fs::sim::UtilizationReport;
use pio_fs::{FsConfig, FsSim, FsStats, LockStats};
use pio_trace::{Record, RecordSink, Trace, TraceMeta};

/// Everything that identifies a run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Platform preset.
    pub fs: FsConfig,
    /// Master seed — the only source of run-to-run variability.
    pub seed: u64,
    /// Experiment label for the trace metadata.
    pub experiment: String,
    /// Optional fault plan. `None` (and the empty plan) leave the
    /// simulation bit-identical to a build without the fault layer.
    pub fault: Option<FaultPlan>,
}

impl RunConfig {
    /// A run of `experiment` on `fs` with `seed` and no faults.
    pub fn new(fs: FsConfig, seed: u64, experiment: impl Into<String>) -> Self {
        RunConfig {
            fs,
            seed,
            experiment: experiment.into(),
            fault: None,
        }
    }

    /// The same run with a fault plan installed (builder style).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The job failed static validation.
    InvalidJob(String),
    /// The event queue drained with unfinished ranks (e.g. a recv whose
    /// send never happens). Lists `(rank, pc)` of stuck ranks.
    Deadlock(Vec<(u32, usize)>),
    /// The [`Runner`] was configured inconsistently (e.g. a sink with
    /// several seeds).
    Config(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidJob(e) => write!(f, "invalid job: {e}"),
            RunError::Deadlock(stuck) => {
                write!(
                    f,
                    "deadlock: {} ranks stuck (first: {:?})",
                    stuck.len(),
                    stuck.first()
                )
            }
            RunError::Config(e) => write!(f, "invalid runner configuration: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The outcome of one seeded run.
#[derive(Debug, PartialEq)]
pub struct RunReport {
    /// The seed this run used.
    pub seed: u64,
    /// Trace metadata (always present, even when records went to a sink).
    pub meta: TraceMeta,
    /// The captured IPM-I/O trace, sorted by start time — `None` when
    /// the run streamed its records into a sink instead of memory.
    pub trace: Option<Trace>,
    /// File-system statistics.
    pub stats: FsStats,
    /// Extent-lock statistics.
    pub lock_stats: LockStats,
    /// Resource-utilization breakdown at run end.
    pub util: UtilizationReport,
    /// Events processed by the engine.
    pub events: u64,
    /// Virtual end time of the run.
    pub end: SimTime,
}

impl RunReport {
    /// Wall-clock of the run in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.end.as_secs_f64()
    }

    /// The buffered trace. Panics if the run streamed into a sink — a
    /// streamed run's records live wherever the sink put them.
    pub fn trace(&self) -> &Trace {
        self.trace
            .as_ref()
            .expect("this run streamed its records into a sink; no buffered trace")
    }

    /// Take ownership of the buffered trace (panics if streamed).
    pub fn into_trace(self) -> Trace {
        self.trace
            .expect("this run streamed its records into a sink; no buffered trace")
    }
}

/// Builder for executing a job one or more times.
///
/// * [`Runner::seeds`] — run once per seed (default: the config's seed).
/// * [`Runner::threads`] — worker threads for multi-seed ensembles
///   (runs are independent simulations; results come back in seed
///   order regardless of completion order).
/// * [`Runner::sink`] — stream records into a [`RecordSink`] instead of
///   buffering a trace (constant memory; single seed only).
///
/// A fault plan rides in the [`RunConfig`] ([`RunConfig::with_fault`]).
pub struct Runner<'j, 's> {
    job: &'j Job,
    cfg: RunConfig,
    seeds: Vec<u64>,
    threads: usize,
    sink: Option<&'s mut dyn RecordSink>,
}

impl<'j, 's> Runner<'j, 's> {
    /// A runner for `job` under `cfg`, defaulting to one buffered,
    /// serial run with `cfg.seed`.
    pub fn new(job: &'j Job, cfg: RunConfig) -> Self {
        Runner {
            job,
            seeds: vec![cfg.seed],
            cfg,
            threads: 1,
            sink: None,
        }
    }

    /// Run once per seed — the paper's "ensemble of runs" construction.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Use up to `n` worker threads for multi-seed ensembles (values
    /// below 1 mean serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Stream every record into `sink` as the simulated call completes
    /// instead of buffering a trace — the online capture mode (memory
    /// stays constant in run length). Records arrive in completion
    /// order; [`RecordSink::phase_end`] fires at every barrier release
    /// and [`RecordSink::finish`] when the run ends. Streaming is
    /// single-seed and single-threaded.
    pub fn sink(mut self, sink: &'s mut dyn RecordSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Execute all configured runs, returning one report per seed, in
    /// seed order. Seeds fan out over [`pio_des::par::map_claimed`], so
    /// the reports are bit-identical for any thread count.
    pub fn execute(self) -> Result<Vec<RunReport>, RunError> {
        self.job.validate().map_err(RunError::InvalidJob)?;
        if self.seeds.is_empty() {
            return Err(RunError::Config("no seeds to run".into()));
        }
        let (job, base) = (self.job, &self.cfg);
        let cfg = |seed| RunConfig {
            seed,
            ..base.clone()
        };
        if let Some(sink) = self.sink {
            let &[seed] = self.seeds.as_slice() else {
                return Err(RunError::Config(
                    "a sink receives exactly one run; use a single seed".into(),
                ));
            };
            return run_single(job, &cfg(seed), Some(sink)).map(|r| vec![r]);
        }
        map_claimed(&self.seeds, self.threads, |&seed| {
            run_single(job, &cfg(seed), None)
        })
        .into_iter()
        .collect()
    }

    /// Execute a single-seed configuration and unwrap its one report.
    pub fn execute_one(self) -> Result<RunReport, RunError> {
        if self.seeds.len() != 1 {
            return Err(RunError::Config(format!(
                "execute_one needs exactly one seed, got {}",
                self.seeds.len()
            )));
        }
        Ok(self.execute()?.pop().expect("one report"))
    }
}

/// One seeded run of an already validated job. Records stream into
/// `sink`, and the report carries no trace; without a sink they stream
/// into a [`Trace`], which the report carries sorted by start time.
fn run_single(
    job: &Job,
    cfg: &RunConfig,
    sink: Option<&mut (dyn RecordSink + '_)>,
) -> Result<RunReport, RunError> {
    let ranks = job.ranks();
    let nodes = ranks.div_ceil(cfg.fs.tasks_per_node).max(1);
    let mut fs = FsSim::new(cfg.fs.clone(), nodes, cfg.seed);
    for spec in &job.files {
        fs.register_file(spec.shared);
    }
    // Empty plans install nothing, so `FaultPlan::new()` is exactly as
    // inert as `None`.
    let plan = cfg.fault.as_ref().filter(|p| !p.is_empty());
    if let Some(plan) = plan {
        fs.set_fault(Box::new(plan.fs_injector(cfg.seed)));
    }
    let meta = TraceMeta {
        experiment: cfg.experiment.clone(),
        platform: cfg.fs.name.clone(),
        ranks,
        seed: cfg.seed,
    };
    let buffered = sink.is_none();
    let mut trace = Trace::new(meta.clone());
    if buffered {
        // Every op emits one record, so the capture allocates once.
        let ops = job.programs.iter().map(|p| p.ops.len()).sum();
        trace.records.reserve_exact(ops);
    }
    let sink = sink.unwrap_or(&mut trace);
    let mut world = MpiWorld::new(job.clone(), fs, cfg.seed, &mut *sink);
    if let Some(plan) = plan {
        world.set_fault(Box::new(plan.mpi_injector(cfg.seed)));
    }
    let initial = world.initial_events();
    let mut sim = Simulator::new(world);
    for (t, e) in initial {
        sim.schedule(t, e);
    }
    let end = sim.run();
    if sim.world.finished_ranks() != ranks {
        return Err(RunError::Deadlock(sim.world.stuck_ranks()));
    }
    let final_phase = sim.world.phase();
    let mut report = RunReport {
        seed: cfg.seed,
        meta,
        trace: None,
        stats: sim.world.fs.stats().clone(),
        lock_stats: sim.world.fs.lock_stats(),
        util: sim.world.fs.utilization(end),
        events: sim.processed(),
        end,
    };
    drop(sim);
    // The tail of the program after the last barrier is a final,
    // implicitly closed phase.
    sink.phase_end(final_phase);
    sink.finish();
    if buffered {
        trace.records = start_order(&trace.records);
        debug_assert_eq!(trace.validate(), Ok(()));
        report.trace = Some(trace);
    }
    Ok(report)
}

/// A buffered run's records, given in arrival order, in the order a
/// stable [`Trace::sort_by_start`] gives: by `(start_ns, rank,
/// end_ns)`, ties in arrival order.
///
/// A rank has one call in flight, so its records arrive ordered by
/// `(start_ns, end_ns)`, and the target order is exactly `(start_ns,
/// rank, arrival index)`. Those keys are distinct, so an unstable sort
/// of them, packed into one `u128` each, gives that order without
/// comparing or moving a whole record; one gather then places each
/// record once.
fn start_order(arrived: &[Record]) -> Vec<Record> {
    debug_assert!(
        arrives_in_rank_order(arrived),
        "a rank's records arrived out of (start, end) order"
    );
    assert!(
        u32::try_from(arrived.len()).is_ok(),
        "a buffered trace holds at most 2^32 records"
    );
    let mut keys: Vec<u128> = arrived
        .iter()
        .enumerate()
        .map(|(i, r)| u128::from(r.start_ns) << 64 | u128::from(r.rank) << 32 | i as u128)
        .collect();
    keys.sort_unstable();
    keys.iter()
        .map(|&k| arrived[k as u32 as usize].clone())
        .collect()
}

/// Does each rank's stream arrive nondecreasing in `(start_ns, end_ns)`?
fn arrives_in_rank_order(arrived: &[Record]) -> bool {
    let mut last: pio_des::FxHashMap<u32, (u64, u64)> = Default::default();
    arrived.iter().all(|r| {
        let now = (r.start_ns, r.end_ns);
        last.insert(r.rank, now).is_none_or(|prev| prev <= now)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FileSpec, Op, ProgramBuilder};
    use pio_trace::CallKind;

    const MB: u64 = 1 << 20;

    fn simple_job(ranks: u32, write_mb: u64) -> Job {
        let programs = (0..ranks)
            .map(|r| {
                ProgramBuilder::new()
                    .open(0)
                    .seek(0, r as u64 * 512 * MB)
                    .write(0, write_mb * MB)
                    .barrier()
                    .flush(0)
                    .close(0)
                    .build()
            })
            .collect();
        Job {
            programs,
            files: vec![FileSpec { shared: true }],
        }
    }

    fn cfg(seed: u64) -> RunConfig {
        RunConfig::new(FsConfig::tiny_test(), seed, "unit")
    }

    fn go(job: &Job, config: RunConfig) -> RunReport {
        Runner::new(job, config).execute_one().unwrap()
    }

    #[test]
    fn simple_job_runs_to_completion() {
        let job = simple_job(8, 4);
        let res = go(&job, cfg(1));
        assert_eq!(res.trace().meta.ranks, 8);
        // 8 ranks × (open, seek, write, barrier, flush, close) = 48 records.
        assert_eq!(res.trace().records.len(), 48);
        assert_eq!(res.stats.bytes_written, 8 * 4 * MB);
        assert!(res.end > SimTime::ZERO);
        res.trace().validate().unwrap();
    }

    #[test]
    fn trace_has_correct_phases() {
        let job = simple_job(4, 2);
        let res = go(&job, cfg(2));
        // Ops before the barrier are phase 0; flush/close are phase 1.
        for r in &res.trace().records {
            match r.call {
                CallKind::Open | CallKind::Seek | CallKind::Write | CallKind::Barrier => {
                    assert_eq!(r.phase, 0, "{r:?}")
                }
                CallKind::Flush | CallKind::Close => assert_eq!(r.phase, 1, "{r:?}"),
                _ => {}
            }
        }
        assert_eq!(res.trace().phase_count(), 2);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let job = simple_job(8, 4);
        let a = go(&job, cfg(7));
        let b = go(&job, cfg(7));
        assert_eq!(a.trace().records, b.trace().records);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn different_seeds_differ_but_same_shape() {
        let job = simple_job(8, 4);
        let a = go(&job, cfg(1));
        let b = go(&job, cfg(2));
        assert_ne!(a.trace().records, b.trace().records);
        assert_eq!(a.trace().records.len(), b.trace().records.len());
        // Total bytes identical (the experiment, not the run, fixes them).
        assert_eq!(a.stats.bytes_written, b.stats.bytes_written);
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let job = simple_job(4, 2);
        let res = go(&job, cfg(3));
        // All barrier records end at the same instant.
        let ends: Vec<u64> = res
            .trace()
            .of_kind(CallKind::Barrier)
            .map(|r| r.end_ns)
            .collect();
        assert_eq!(ends.len(), 4);
        assert!(ends.windows(2).all(|w| w[0] == w[1]));
        // And that instant is ≥ every pre-barrier write end.
        let max_write = res
            .trace()
            .of_kind(CallKind::Write)
            .map(|r| r.end_ns)
            .max()
            .unwrap();
        assert!(ends[0] >= max_write);
    }

    #[test]
    fn send_recv_pair_works() {
        let p0 = ProgramBuilder::new().send(1, 10 * MB).build();
        let p1 = ProgramBuilder::new().recv(0).build();
        let job = Job {
            programs: vec![p0, p1],
            files: vec![],
        };
        let res = go(&job, cfg(4));
        let send: Vec<_> = res.trace().of_kind(CallKind::Send).collect();
        let recv: Vec<_> = res.trace().of_kind(CallKind::Recv).collect();
        assert_eq!(send.len(), 1);
        assert_eq!(recv.len(), 1);
        // Recv cannot complete before the send does.
        assert!(recv[0].end_ns >= send[0].end_ns);
        assert_eq!(send[0].bytes, 10 * MB);
    }

    #[test]
    fn recv_before_send_blocks_until_send() {
        // Rank 1 computes first, so its send lands after rank 0's recv.
        let p0 = ProgramBuilder::new().recv(1).build();
        let p1 = ProgramBuilder::new()
            .compute(pio_des::SimSpan::from_secs(1))
            .send(0, 1024)
            .build();
        let job = Job {
            programs: vec![p0, p1],
            files: vec![],
        };
        let res = go(&job, cfg(5));
        let binding = res.trace();
        let recv = binding.of_kind(CallKind::Recv).next().unwrap();
        assert!(recv.secs() >= 0.99, "recv must wait for the send: {recv:?}");
    }

    #[test]
    fn unmatched_recv_is_invalid_job() {
        let p0 = ProgramBuilder::new().recv(1).build();
        let p1 = ProgramBuilder::new().build();
        let job = Job {
            programs: vec![p0, p1],
            files: vec![],
        };
        assert!(matches!(
            Runner::new(&job, cfg(6)).execute(),
            Err(RunError::InvalidJob(_))
        ));
    }

    #[test]
    fn utilization_report_accounts_for_the_run() {
        let job = simple_job(8, 4);
        let res = go(&job, cfg(31));
        let u = &res.util;
        assert!(u.horizon_s > 0.0);
        // Bytes served by OSTs equal bytes written (all drained by flush).
        assert_eq!(u.ost_bytes.iter().sum::<u64>(), res.stats.bytes_written);
        assert!(u.fabric_utilization() > 0.0 && u.fabric_utilization() <= 1.0);
        assert!(u.mean_ost_utilization() > 0.0);
        assert!(u.ost_imbalance() >= 1.0);
        // Some node buffered data at some point.
        assert!(u.node_dirty_peak.iter().any(|&p| p > 0));
    }

    #[test]
    fn streaming_run_matches_buffered_run() {
        let job = simple_job(8, 4);
        let buffered = go(&job, cfg(21));

        // Collect through the streaming path into an in-memory trace.
        let mut collected = Trace::new(buffered.trace().meta.clone());
        let res = Runner::new(&job, cfg(21))
            .sink(&mut collected)
            .execute_one()
            .unwrap();
        collected.sort_by_start();
        assert_eq!(collected.records, buffered.trace().records);
        assert_eq!(res.meta, buffered.trace().meta);
        assert!(res.trace.is_none(), "streamed run buffers nothing");
        assert_eq!(res.end, buffered.end);
        assert_eq!(res.stats.bytes_written, buffered.stats.bytes_written);
    }

    #[test]
    fn streaming_capture_to_ptb2_round_trips() {
        // Capture straight to the binary trace format — no in-memory
        // Trace — then decode and compare with the buffered run.
        let job = simple_job(8, 4);
        let buffered = go(&job, cfg(21));

        let mut enc = pio_trace::Ptb2Writer::new(Vec::new(), &buffered.trace().meta).unwrap();
        Runner::new(&job, cfg(21))
            .sink(&mut enc)
            .execute_one()
            .unwrap();
        assert!(enc.error().is_none(), "{:?}", enc.error());
        assert_eq!(
            enc.records_written() as usize,
            buffered.trace().records.len()
        );
        let bytes = enc.into_inner().unwrap();

        let mut back = pio_trace::ptb2::read_ptb2(std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(back.meta, buffered.trace().meta);
        back.sort_by_start();
        assert_eq!(back.records, buffered.trace().records);
    }

    #[test]
    fn streaming_run_fires_phase_boundaries() {
        #[derive(Default)]
        struct Log {
            pushes: u64,
            phase_ends: Vec<u32>,
            finished: bool,
        }
        impl pio_trace::RecordSink for Log {
            fn push_block(&mut self, block: &[pio_trace::Record]) {
                self.pushes += block.len() as u64;
            }
            fn phase_end(&mut self, phase: u32) {
                self.phase_ends.push(phase);
            }
            fn finish(&mut self) {
                self.finished = true;
            }
        }
        let job = simple_job(4, 2);
        let mut log = Log::default();
        Runner::new(&job, cfg(22))
            .sink(&mut log)
            .execute_one()
            .unwrap();
        // 4 ranks × 6 ops = 24 records; one barrier then the final tail.
        assert_eq!(log.pushes, 24);
        assert_eq!(log.phase_ends, vec![0, 1]);
        assert!(log.finished);
    }

    #[test]
    fn parallel_ensemble_matches_serial() {
        let job = simple_job(4, 2);
        let seeds = [5u64, 6, 7];
        let serial = Runner::new(&job, cfg(0)).seeds(&seeds).execute().unwrap();
        let parallel = Runner::new(&job, cfg(0))
            .seeds(&seeds)
            .threads(3)
            .execute()
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.seed, b.seed, "seed order preserved");
            assert_eq!(
                a.trace().records,
                b.trace().records,
                "parallel must be bit-identical"
            );
        }
    }

    #[test]
    fn ensemble_runs_all_seeds() {
        let job = simple_job(4, 1);
        let reports = Runner::new(&job, cfg(0))
            .seeds(&[1, 2, 3])
            .execute()
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].meta.seed, 1);
        assert_eq!(reports[2].meta.seed, 3);
    }

    #[test]
    fn sink_with_many_seeds_is_a_config_error() {
        let job = simple_job(2, 1);
        let mut collected = Trace::new(TraceMeta {
            experiment: "x".into(),
            platform: "y".into(),
            ranks: 2,
            seed: 0,
        });
        let err = Runner::new(&job, cfg(1))
            .seeds(&[1, 2])
            .sink(&mut collected)
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
        let err = Runner::new(&job, cfg(1)).seeds(&[]).execute().unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
        let err = Runner::new(&job, cfg(1))
            .seeds(&[1, 2])
            .execute_one()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
    }

    #[test]
    fn compute_op_takes_time_and_is_traced() {
        let p = ProgramBuilder::new()
            .compute(pio_des::SimSpan::from_secs(2))
            .build();
        let job = Job {
            programs: vec![p],
            files: vec![],
        };
        let res = go(&job, cfg(8));
        let binding = res.trace();
        let c = binding.of_kind(CallKind::Compute).next().unwrap();
        assert!((c.secs() - 2.0).abs() < 1e-9);
        assert!((res.wall_secs() - 2.0).abs() < 1e-2);
    }

    #[test]
    fn sequential_writes_advance_cursor() {
        let p = ProgramBuilder::new()
            .open(0)
            .write(0, MB)
            .write(0, MB)
            .write(0, MB)
            .close(0)
            .build();
        let job = Job {
            programs: vec![p],
            files: vec![FileSpec { shared: false }],
        };
        let res = go(&job, cfg(9));
        let offsets: Vec<u64> = res
            .trace()
            .of_kind(CallKind::Write)
            .map(|r| r.offset)
            .collect();
        assert_eq!(offsets, vec![0, MB, 2 * MB]);
    }

    #[test]
    fn read_after_write_with_flush() {
        let p = ProgramBuilder::new()
            .open(0)
            .write(0, 2 * MB)
            .flush(0)
            .seek(0, 0)
            .read(0, 2 * MB)
            .close(0)
            .build();
        let job = Job {
            programs: vec![p],
            files: vec![FileSpec { shared: false }],
        };
        let res = go(&job, cfg(10));
        assert_eq!(res.stats.bytes_read, 2 * MB);
        assert_eq!(res.stats.bytes_written, 2 * MB);
        assert_eq!(res.stats.flushes, 1);
        // Program order is preserved in the trace.
        let kinds: Vec<CallKind> = res.trace().records.iter().map(|r| r.call).collect();
        let w = kinds.iter().position(|&k| k == CallKind::Write).unwrap();
        let f = kinds.iter().position(|&k| k == CallKind::Flush).unwrap();
        let r = kinds.iter().position(|&k| k == CallKind::Read).unwrap();
        assert!(w < f && f < r);
    }

    #[test]
    fn many_ranks_over_many_nodes() {
        // 32 ranks on 8 nodes (tiny config: 4 tasks/node).
        let job = simple_job(32, 1);
        let res = go(&job, cfg(11));
        assert_eq!(res.trace().meta.ranks, 32);
        assert_eq!(res.stats.bytes_written, 32 * MB);
        assert!(res.events > 0);
    }

    #[test]
    fn op_helpers_in_running_context() {
        // WriteAt does not move the cursor.
        let p = ProgramBuilder::new()
            .open(0)
            .write_at(0, 10 * MB, MB)
            .write(0, MB) // cursor still 0
            .close(0)
            .build();
        let job = Job {
            programs: vec![p],
            files: vec![FileSpec { shared: false }],
        };
        let res = go(&job, cfg(12));
        let offsets: Vec<u64> = res
            .trace()
            .of_kind(CallKind::Write)
            .map(|r| r.offset)
            .collect();
        assert_eq!(offsets, vec![10 * MB, 0]);
        assert!(matches!(job.programs[0].ops[1], Op::WriteAt { .. }));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pio_trace::CallKind;
    use proptest::prelude::*;

    proptest! {
        /// Any interleaving of per-rank streams, each nondecreasing in
        /// `(start, end)`, comes out of `start_order` exactly as a stable
        /// sort by `(start_ns, rank, end_ns)` leaves it. Gaps and
        /// durations of 0–2 ns make equal starts across ranks,
        /// zero-duration records and whole-key ties within a rank
        /// common; each record's `offset` is its arrival index, so a tie
        /// broken against arrival order shows.
        #[test]
        fn start_order_is_the_stable_start_sort(steps in proptest::collection::vec(
            (0u32..6, 0u64..3, 0u64..3),
            0..300,
        )) {
            let mut cursor = [0u64; 6];
            let arrived: Vec<Record> = steps
                .iter()
                .enumerate()
                .map(|(i, &(rank, gap, dur))| {
                    let start = cursor[rank as usize] + gap;
                    cursor[rank as usize] = start + dur;
                    Record {
                        rank,
                        call: CallKind::Read,
                        fd: 3,
                        offset: i as u64,
                        bytes: 1,
                        start_ns: start,
                        end_ns: start + dur,
                        phase: 0,
                    }
                })
                .collect();
            let mut want = arrived.clone();
            want.sort_by_key(|r| (r.start_ns, r.rank, r.end_ns));
            prop_assert_eq!(start_order(&arrived), want);
        }
    }
}
