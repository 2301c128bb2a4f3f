//! The always-on fleet service: many concurrent job streams, one
//! bounded worker pool, per-tenant budgets, and a query surface.
//!
//! # Architecture
//!
//! A [`FleetService`] owns a fixed pool of worker threads. Registering
//! a job hands back a [`JobSink`] — a [`RecordSink`] the producer (a
//! tracer transport, or the simulated fleet driver) pushes records
//! into. The sink batches records into blocks and sends them over the
//! owning worker's bounded channel; jobs are sharded onto workers by
//! `job id % workers`, so one worker owns *all* of a job's stream and
//! processes it in producer order. Per-job state is therefore
//! independent of the pool size: verdicts, snapshots, and roll-ups are
//! bit-identical whether the service runs 1 worker or 8.
//!
//! Each tenant carries a [`StreamDiagnoser`] (online findings over its
//! own whole-run evidence, and the mergeable ensemble sketch it owns), a
//! [`TenantMeter`] enforcing the per-tenant resident budget over both
//! ([`StreamDiagnoser::approx_bytes`]; a tenant over it is frozen), a
//! top-k slowest-operation heap, and a per-OST usage ledger for the
//! cross-job interference view. End of stream finalizes the diagnosis,
//! evicts the tenant from the live table, and files an immutable
//! [`JobReport`] behind an [`Arc`] — findings, the shard-only ensemble
//! sketch, counts and ledgers; the evidence behind the findings is
//! dropped. The worker files it once, and every later query shares that
//! allocation.
//!
//! The machine-wide roll-up merges every per-job ensemble sketch
//! ([`EnsembleSnapshot::merge`]) in job-id order — the canonical fold
//! order that makes the roll-up reproducible across pool sizes and
//! completion interleavings. It pools shards only: no tenant's per-rank
//! state is merged with another's.

use crate::interference::{contention, OstContention, OstLayout, OstUsage};
use pio_core::diagnosis::{run_verdict, Verdict};
use pio_ingest::{
    Admission, DiagnoserConfig, EnsembleSnapshot, StreamDiagnoser, TenantMeter, TimedFinding,
};
use pio_trace::{CallKind, Record, RecordSink};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;

/// Fleet-wide job identifier, assigned at registration.
pub type JobId = u64;

/// Bounded channel capacity (messages) per worker. A full channel
/// blocks the producer: transport is lossless.
const CAPACITY: usize = 64;

/// Slowest operations retained per job.
const TOP_K: usize = 8;

/// Interference view: minimum calls on a target before judging it.
const MIN_OST_OPS: u64 = 32;

/// Interference view: per-target mean vs. pool-rest mean multiple at
/// which a target counts as slow for a job.
const CONTENTION_RATIO: f64 = 2.0;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker-pool size; jobs are sharded by `id % workers`.
    pub workers: usize,
    /// Records per block in a [`JobSink`] before it ships.
    pub batch: usize,
    /// Per-tenant resident-sketch budget in bytes (0 = unlimited),
    /// enforced by a [`TenantMeter`]: a tenant over it is frozen.
    pub budget_bytes: usize,
    /// Online-diagnoser shape for every tenant; its
    /// [`snapshot_config`](DiagnoserConfig::snapshot_config) is the
    /// shape of every tenant's ensemble sketch and of the roll-up.
    pub diagnoser: DiagnoserConfig,
    /// Default OST layout for tenants registered without one.
    pub layout: OstLayout,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            batch: 256,
            budget_bytes: 0,
            diagnoser: DiagnoserConfig::default(),
            layout: OstLayout::new(1 << 20, 48, 0),
        }
    }
}

/// One operation in a job's slowest-k list.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowOp {
    /// Service time in seconds.
    pub secs: f64,
    /// Issuing rank.
    pub rank: u32,
    /// Call class.
    pub call: CallKind,
    /// Virtual start time.
    pub start_ns: u64,
    /// Bytes moved.
    pub bytes: u64,
}

impl SlowOp {
    fn key(&self) -> (u64, u64, u32, u8) {
        // Total order: duration first, then a deterministic tiebreak so
        // the retained set never depends on arrival interleaving.
        (
            self.secs.max(0.0).to_bits(),
            self.start_ns,
            self.rank,
            self.call as u8,
        )
    }
}

/// Heap adapter ordering [`SlowOp`] by its deterministic key.
struct HeapOp(SlowOp);

impl PartialEq for HeapOp {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for HeapOp {}
impl PartialOrd for HeapOp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapOp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// The immutable record of a finished (or frozen) tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Fleet job id.
    pub id: JobId,
    /// Tenant label.
    pub name: String,
    /// Online findings in firing order.
    pub findings: Vec<TimedFinding>,
    /// The job's final ensemble sketch (its `dropped` counts every
    /// record shed by budget or transport).
    pub snapshot: EnsembleSnapshot,
    /// Records admitted into the sketches.
    pub ingested: u64,
    /// Records shed (budget) plus records a stopped worker never
    /// received.
    pub shed: u64,
    /// The tenant went over budget and was frozen (diagnosis covers the
    /// admitted prefix).
    pub frozen: bool,
    /// Slowest operations, slowest first.
    pub top_slow: Vec<SlowOp>,
    /// Per-OST usage ledger for the interference view.
    pub ost: OstUsage,
    /// The layout the ledger was accumulated under.
    pub layout: OstLayout,
}

impl JobReport {
    /// The job's verdict: the union of every attributed online finding
    /// — [`Verdict::Clean`] for a clean job, a single class, a compound
    /// verdict naming each independently evidenced class, or an
    /// ambiguous candidate list the evidence could not separate.
    pub fn verdict(&self) -> Verdict {
        let inner: Vec<_> = self.findings.iter().map(|t| t.finding.clone()).collect();
        run_verdict(&inner)
    }

    /// Did the job stream zero records?
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_empty() && self.shed == 0
    }
}

/// Live per-tenant state, owned by exactly one worker. The diagnoser
/// holds the tenant's ensemble sketch beside its evidence, so each
/// record is classified once and updates one set of whole-run
/// accumulators.
struct TenantState {
    name: String,
    layout: OstLayout,
    meter: TenantMeter,
    diagnoser: StreamDiagnoser,
    slow: BinaryHeap<std::cmp::Reverse<HeapOp>>,
    ost: OstUsage,
}

impl TenantState {
    fn new(name: String, layout: OstLayout, cfg: &FleetConfig) -> Self {
        TenantState {
            name,
            layout,
            meter: TenantMeter::new(cfg.budget_bytes),
            diagnoser: StreamDiagnoser::new(cfg.diagnoser.clone()),
            slow: BinaryHeap::new(),
            ost: OstUsage::new(layout.n_osts),
        }
    }

    /// Block ingest: the diagnoser takes the whole block through its
    /// batched path; the OST meter and slow-op heap stay per-record.
    /// Components are independent, so the state is identical for any
    /// block partition of the stream.
    fn ingest_block(&mut self, records: &[Record]) {
        self.diagnoser.push_block(records);
        for r in records {
            if matches!(r.call, CallKind::Read | CallKind::Write) {
                self.ost.add(self.layout.ost_of(r.offset), r.secs());
            }
            let op = SlowOp {
                secs: r.secs(),
                rank: r.rank,
                call: r.call,
                start_ns: r.start_ns,
                bytes: r.bytes,
            };
            if self.slow.len() < TOP_K {
                self.slow.push(std::cmp::Reverse(HeapOp(op)));
            } else if let Some(min) = self.slow.peek() {
                if HeapOp(op.clone()) > min.0 {
                    self.slow.pop();
                    self.slow.push(std::cmp::Reverse(HeapOp(op)));
                }
            }
        }
    }

    fn into_report(mut self, id: JobId, transport_dropped: u64) -> JobReport {
        self.diagnoser.finish();
        let shed = self.meter.shed() + transport_dropped;
        // Ascending in `Reverse` order is slowest first.
        let top_slow: Vec<SlowOp> = self
            .slow
            .into_sorted_vec()
            .into_iter()
            .map(|r| r.0 .0)
            .collect();
        let (findings, builder) = self.diagnoser.into_parts();
        JobReport {
            id,
            name: self.name,
            findings,
            snapshot: builder.into_snapshot(shed),
            ingested: self.meter.ingested(),
            shed,
            frozen: self.meter.frozen(),
            top_slow,
            ost: self.ost,
            layout: self.layout,
        }
    }
}

#[derive(Debug)]
enum Msg {
    Open {
        job: JobId,
        name: String,
        layout: OstLayout,
    },
    Block {
        job: JobId,
        records: Vec<Record>,
    },
    PhaseEnd {
        job: JobId,
        phase: u32,
    },
    Eos {
        job: JobId,
        transport_dropped: u64,
    },
}

type LiveMap = Arc<Mutex<HashMap<JobId, TenantState>>>;
type DoneMap = Arc<Mutex<BTreeMap<JobId, Arc<JobReport>>>>;

/// The multi-tenant fleet diagnosis service. See the [module
/// docs](self) for the architecture.
pub struct FleetService {
    cfg: FleetConfig,
    senders: Vec<Sender<Msg>>,
    live: Vec<LiveMap>,
    completed: DoneMap,
    handles: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl FleetService {
    /// Start the worker pool.
    pub fn new(cfg: FleetConfig) -> Self {
        let workers = cfg.workers.max(1);
        let completed: DoneMap = Arc::new(Mutex::new(BTreeMap::new()));
        let mut senders = Vec::with_capacity(workers);
        let mut live = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::bounded::<Msg>(CAPACITY);
            let map: LiveMap = Arc::new(Mutex::new(HashMap::new()));
            let worker_cfg = cfg.clone();
            let worker_map = Arc::clone(&map);
            let worker_done = Arc::clone(&completed);
            handles.push(std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Open { job, name, layout } => {
                            let st = TenantState::new(name, layout, &worker_cfg);
                            worker_map.lock().insert(job, st);
                        }
                        Msg::Block { job, records } => {
                            let mut map = worker_map.lock();
                            let Some(st) = map.get_mut(&job) else {
                                continue;
                            };
                            // An unlimited budget never reads the size,
                            // so only a metered tenant pays for it.
                            let resident = if st.meter.budget_bytes() > 0 {
                                st.diagnoser.approx_bytes()
                            } else {
                                0
                            };
                            // Freeze is sticky: the meter stays frozen
                            // and counts every later block as shed.
                            if st.meter.admit(resident, records.len() as u64) == Admission::Admit {
                                st.ingest_block(&records);
                            }
                        }
                        Msg::PhaseEnd { job, phase } => {
                            if let Some(st) = worker_map.lock().get_mut(&job) {
                                if !st.meter.frozen() {
                                    st.diagnoser.phase_end(phase);
                                }
                            }
                        }
                        Msg::Eos {
                            job,
                            transport_dropped,
                        } => {
                            let st = worker_map.lock().remove(&job);
                            if let Some(st) = st {
                                // Finalize before taking the lock that
                                // every query takes.
                                let report = Arc::new(st.into_report(job, transport_dropped));
                                worker_done.lock().insert(job, report);
                            }
                        }
                    }
                }
            }));
            senders.push(tx);
            live.push(map);
        }
        FleetService {
            cfg,
            senders,
            live,
            completed,
            handles,
            next_id: AtomicU64::new(0),
        }
    }

    /// Register a tenant under the service's default OST layout.
    pub fn register(&self, name: &str) -> JobSink {
        self.register_with_layout(name, self.cfg.layout)
    }

    /// Register a tenant with its own OST layout (platforms differ
    /// across a fleet). Returns the sink the producer streams into;
    /// dropping or [`RecordSink::finish`]ing it ends the stream.
    pub fn register_with_layout(&self, name: &str, layout: OstLayout) -> JobSink {
        assert!(
            !self.senders.is_empty(),
            "register on a shut-down FleetService"
        );
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let sender = self.senders[self.worker_of(id)].clone();
        sender
            .send(Msg::Open {
                job: id,
                name: name.to_string(),
                layout,
            })
            .expect("fleet worker alive");
        JobSink {
            job: id,
            sender,
            batch: self.cfg.batch.max(1),
            pending: Vec::with_capacity(self.cfg.batch.max(1)),
            dropped: 0,
            eos: false,
        }
    }

    fn worker_of(&self, id: JobId) -> usize {
        (id as usize) % self.live.len()
    }

    /// Worker-pool size.
    pub fn workers(&self) -> usize {
        self.live.len()
    }

    /// Tenants currently live (registered, no end-of-stream yet).
    ///
    /// Counts what the workers have *processed*; messages still queued
    /// in worker channels are not yet visible.
    pub fn live_jobs(&self) -> usize {
        self.live.iter().map(|m| m.lock().len()).sum()
    }

    /// Ids of completed jobs, ascending.
    pub fn completed_jobs(&self) -> Vec<JobId> {
        self.completed.lock().keys().copied().collect()
    }

    /// The finished report of a completed job: a shared handle to the
    /// report the worker filed, not a copy.
    pub fn report(&self, id: JobId) -> Option<Arc<JobReport>> {
        self.completed.lock().get(&id).cloned()
    }

    /// Every completed report, in job-id order, as shared handles.
    pub fn reports(&self) -> Vec<Arc<JobReport>> {
        self.completed.lock().values().cloned().collect()
    }

    /// A job's online findings so far (live) or final findings
    /// (completed). `None` for an unknown id or one still queued.
    pub fn findings(&self, id: JobId) -> Option<Vec<TimedFinding>> {
        if let Some(r) = self.completed.lock().get(&id) {
            return Some(r.findings.clone());
        }
        self.live[self.worker_of(id)]
            .lock()
            .get(&id)
            .map(|st| st.diagnoser.findings().to_vec())
    }

    /// A job's verdict so far: the union of every attributed online
    /// finding, `None` for an unknown job.
    pub fn verdict(&self, id: JobId) -> Option<Verdict> {
        let inner: Vec<_> = self
            .findings(id)?
            .iter()
            .map(|t| t.finding.clone())
            .collect();
        Some(run_verdict(&inner))
    }

    /// A job's ensemble sketch: live tenants are snapshotted in place,
    /// completed jobs return their final sketch.
    pub fn snapshot(&self, id: JobId) -> Option<EnsembleSnapshot> {
        if let Some(r) = self.completed.lock().get(&id) {
            return Some(r.snapshot.clone());
        }
        self.live[self.worker_of(id)]
            .lock()
            .get(&id)
            .map(|st| st.diagnoser.builder().snapshot(st.meter.shed()))
    }

    /// A job's slowest operations so far, slowest first.
    pub fn top_slow(&self, id: JobId) -> Option<Vec<SlowOp>> {
        if let Some(r) = self.completed.lock().get(&id) {
            return Some(r.top_slow.clone());
        }
        self.live[self.worker_of(id)].lock().get(&id).map(|st| {
            let mut v: Vec<SlowOp> = st.slow.iter().map(|r| r.0 .0.clone()).collect();
            v.sort_by_key(|op| std::cmp::Reverse(op.key()));
            v
        })
    }

    /// The machine-wide roll-up: every job's ensemble sketch (completed
    /// and live) merged in job-id order. The canonical fold order makes
    /// the result identical across pool sizes and completion
    /// interleavings once the same streams have been processed.
    ///
    /// Completed snapshots are folded by reference under the completed
    /// map's lock; only live tenants are materialised. The live maps are
    /// locked inside it, which cannot deadlock because a worker releases
    /// its live-map lock before it files a report, so no thread ever
    /// waits for `completed` while holding a live map. Holding
    /// `completed` throughout also means no job is seen both live and
    /// completed.
    pub fn rollup(&self) -> EnsembleSnapshot {
        let done = self.completed.lock();
        let mut live: Vec<(JobId, EnsembleSnapshot)> = Vec::new();
        for map in &self.live {
            let map = map.lock();
            for (&id, st) in map.iter() {
                live.push((id, st.diagnoser.builder().snapshot(st.meter.shed())));
            }
        }
        let mut parts: Vec<(JobId, &EnsembleSnapshot)> = done
            .iter()
            .map(|(&id, r)| (id, &r.snapshot))
            .chain(live.iter().map(|(id, snap)| (*id, snap)))
            .collect();
        parts.sort_unstable_by_key(|(id, _)| *id);
        let mut acc = EnsembleSnapshot::empty();
        for (_, snap) in parts {
            acc.merge(snap);
        }
        acc
    }

    /// The cross-job interference view over completed jobs: OSTs that
    /// two or more tenants independently flagged slow, with the tenants
    /// named. See [`crate::interference`].
    pub fn interference(&self) -> Vec<OstContention> {
        let done = self.completed.lock();
        let per_job: Vec<(String, &OstUsage)> =
            done.values().map(|r| (r.name.clone(), &r.ost)).collect();
        contention(&per_job, MIN_OST_OPS, CONTENTION_RATIO)
    }

    /// Stop accepting registrations, drain every queued message, and
    /// join the workers. Idempotent; queries remain answerable from the
    /// completed map afterwards.
    pub fn shutdown(&mut self) {
        self.senders.clear(); // disconnects channels; workers drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The producer half of one registered job: a [`RecordSink`] that
/// batches records into blocks and ships them to the owning worker.
///
/// Every send blocks while the worker's channel is full, so the
/// producer is throttled rather than losing records. Dropping the sink
/// sends end-of-stream if [`RecordSink::finish`] has not already.
pub struct JobSink {
    job: JobId,
    sender: Sender<Msg>,
    batch: usize,
    pending: Vec<Record>,
    dropped: u64,
    eos: bool,
}

impl JobSink {
    /// The fleet job id this sink feeds.
    pub fn id(&self) -> JobId {
        self.job
    }

    /// Records a stopped worker never received (0 while the service
    /// runs).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn flush_block(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let records = std::mem::take(&mut self.pending);
        let n = records.len() as u64;
        let msg = Msg::Block {
            job: self.job,
            records,
        };
        if self.sender.send(msg).is_err() {
            self.dropped += n;
        }
    }
}

impl RecordSink for JobSink {
    /// Fill-to-batch chunking: the pending buffer tops up to the batch
    /// size and ships, repeatedly — the same shipped blocks for any
    /// partition of the stream, so worker-side admission metering sees
    /// the same block sequence whatever the upstream decoder's block
    /// size was.
    fn push_block(&mut self, block: &[Record]) {
        let mut run = block;
        while !run.is_empty() {
            // Invariant: pending is always below the batch size here
            // (every full buffer ships at once), so room >= 1.
            let room = self.batch - self.pending.len();
            let take = room.min(run.len());
            self.pending.extend_from_slice(&run[..take]);
            run = &run[take..];
            if self.pending.len() >= self.batch {
                self.flush_block();
            }
        }
    }

    fn phase_end(&mut self, phase: u32) {
        self.flush_block();
        let _ = self.sender.send(Msg::PhaseEnd {
            job: self.job,
            phase,
        });
    }

    fn finish(&mut self) {
        self.flush_block();
        if !self.eos {
            self.eos = true;
            let _ = self.sender.send(Msg::Eos {
                job: self.job,
                transport_dropped: self.dropped,
            });
        }
    }
}

impl Drop for JobSink {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rank: u32, call: CallKind, offset: u64, start_ns: u64, dur_ns: u64) -> Record {
        Record {
            rank,
            call,
            fd: 3,
            offset,
            bytes: 1 << 20,
            start_ns,
            end_ns: start_ns + dur_ns,
            phase: 0,
        }
    }

    fn stream(n: usize, rank_mod: u32) -> Vec<Record> {
        (0..n)
            .map(|i| {
                rec(
                    i as u32 % rank_mod,
                    if i % 3 == 0 {
                        CallKind::Write
                    } else {
                        CallKind::Read
                    },
                    (i as u64) << 20,
                    i as u64 * 1_000_000,
                    2_000_000 + (i as u64 % 7) * 100_000,
                )
            })
            .collect()
    }

    fn cfg(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            layout: OstLayout::new(1 << 20, 4, 0),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn tenant_block_ingest_matches_per_record_reference() {
        // A deliberately hostile stream for the batched kernels: every
        // call kind (meta runs included), rolling phase stamps, small
        // writes, and spiky durations.
        let mut records = Vec::new();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..1800u64 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let call = CallKind::ALL[(seed >> 33) as usize % CallKind::ALL.len()];
            let mut r = rec(
                (i % 24) as u32,
                call,
                (seed >> 7) & 0x0fff_ffff,
                i * 500_000,
                200_000 + seed % 40_000_000,
            );
            r.phase = (i / 450) as u32;
            if i % 11 == 0 {
                r.bytes = 2048;
            }
            records.push(r);
        }

        // Blocks of one are the reference.
        let layout = OstLayout::new(1 << 20, 6, 0);
        let fcfg = FleetConfig::default();
        let mut reference = TenantState::new("job".into(), layout, &fcfg);
        for r in &records {
            reference.ingest_block(std::slice::from_ref(r));
        }
        reference.diagnoser.phase_end(0);
        reference.diagnoser.phase_end(1);
        let want = reference.into_report(1, 0);

        for chunk in [5usize, 64, 257, 1800] {
            let mut st = TenantState::new("job".into(), layout, &fcfg);
            for block in records.chunks(chunk) {
                st.ingest_block(block);
            }
            st.diagnoser.phase_end(0);
            st.diagnoser.phase_end(1);
            assert_eq!(st.into_report(1, 0), want, "chunk={chunk}");
        }
    }

    #[test]
    fn eos_evicts_and_files_a_report() {
        let mut svc = FleetService::new(cfg(2));
        let records = stream(600, 8);
        let mut sink = svc.register("tenant-a");
        let id = sink.id();
        for r in &records {
            sink.push(r);
        }
        sink.finish();
        drop(sink);
        svc.shutdown();
        assert_eq!(svc.live_jobs(), 0);
        let report = svc.report(id).expect("report filed");
        assert_eq!(report.name, "tenant-a");
        assert_eq!(report.ingested, 600);
        assert_eq!(report.shed, 0);
        assert!(!report.frozen);
        assert_eq!(report.snapshot.ingested, 600);
        assert_eq!(report.top_slow.len(), TOP_K);
        // Slowest-first and genuinely the max.
        let max = records.iter().map(Record::secs).fold(0.0f64, f64::max);
        assert_eq!(report.top_slow[0].secs, max);
        assert!(report.top_slow.windows(2).all(|w| w[0].secs >= w[1].secs));
    }

    #[test]
    fn top_slow_keeps_the_k_slowest_slowest_first() {
        // Distinct durations in shuffled order (17 is coprime to 40), so
        // both the retained set and its order are checked.
        let records: Vec<Record> = (0..40u64)
            .map(|i| {
                let dur_ns = ((i * 17) % 40 + 1) * 1_000_000;
                rec(i as u32 % 4, CallKind::Read, 0, i * 1_000_000, dur_ns)
            })
            .collect();
        let mut svc = FleetService::new(cfg(1));
        let mut sink = svc.register("distinct");
        let id = sink.id();
        sink.push_block(&records);
        sink.finish();
        drop(sink);
        svc.shutdown();
        let mut want: Vec<f64> = records.iter().map(Record::secs).collect();
        want.sort_by(|a, b| b.total_cmp(a));
        want.truncate(TOP_K);
        let report = svc.report(id).expect("report filed");
        let got: Vec<f64> = report.top_slow.iter().map(|op| op.secs).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn ingest_file_streams_any_codec_with_identical_reports() {
        use pio_trace::io::TraceFormat;
        let dir = std::env::temp_dir().join("pio_fleetd_ingest_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut trace = pio_trace::Trace::new(pio_trace::TraceMeta {
            experiment: "fleet-file".into(),
            platform: "test".into(),
            ranks: 8,
            seed: 11,
        });
        for r in stream(600, 8) {
            trace.push(r);
        }
        let mut svc = FleetService::new(cfg(2));
        for format in TraceFormat::ALL {
            let path = dir.join(format!("job.{}", format.name()));
            pio_trace::io::save_as(&trace, &path, format).unwrap();
            // A trace file is one tenant: register it, stream the file
            // into its sink; end of file is end of stream.
            let mut sink = svc.register(format.name());
            let (meta, n) = pio_trace::io::stream_file(&path, &mut sink).unwrap();
            assert_eq!(meta, trace.meta);
            assert_eq!(n, 600);
            std::fs::remove_file(&path).ok();
        }
        svc.shutdown();
        let reports = svc.reports();
        assert_eq!(reports.len(), TraceFormat::ALL.len());
        // The encoding must not leak into the diagnosis: every format's
        // report carries the same snapshot, findings, and slow ops.
        for r in &reports[1..] {
            assert_eq!(r.ingested, reports[0].ingested);
            assert_eq!(r.snapshot, reports[0].snapshot);
            assert_eq!(r.findings, reports[0].findings);
            assert_eq!(r.top_slow, reports[0].top_slow);
        }
    }

    #[test]
    fn zero_record_job_reports_empty_and_clean() {
        let mut svc = FleetService::new(cfg(1));
        let mut sink = svc.register("idle");
        let id = sink.id();
        sink.finish();
        drop(sink);
        svc.shutdown();
        let report = svc.report(id).expect("report filed");
        assert!(report.is_empty());
        assert!(report.snapshot.is_empty());
        assert_eq!(report.verdict(), Verdict::Clean);
        assert!(report.findings.is_empty());
        assert!(report.top_slow.is_empty());
        // An empty job is the merge identity: it cannot perturb the
        // machine roll-up.
        assert!(svc.rollup().is_empty());
    }

    #[test]
    fn block_budget_freezes_tenant_but_keeps_prefix() {
        let mut c = cfg(1);
        c.budget_bytes = 1; // over budget as soon as anything is resident
        c.batch = 64;
        let mut svc = FleetService::new(c);
        let mut sink = svc.register("greedy");
        let id = sink.id();
        for r in stream(640, 8) {
            sink.push(&r);
        }
        sink.finish();
        drop(sink);
        svc.shutdown();
        let report = svc.report(id).expect("report filed");
        assert!(report.frozen, "a tenant over budget must freeze");
        // First block admitted (resident was 0 at the check), the rest shed.
        assert_eq!(report.ingested, 64);
        assert_eq!(report.shed, 640 - 64);
        assert_eq!(report.snapshot.dropped, 640 - 64);
        assert!(report.snapshot.ingested == 64);
    }

    #[test]
    fn unlimited_budget_never_sheds() {
        let mut svc = FleetService::new(cfg(2));
        let mut sink = svc.register("big");
        let id = sink.id();
        for r in stream(5_000, 16) {
            sink.push(&r);
        }
        sink.finish();
        drop(sink);
        svc.shutdown();
        let report = svc.report(id).expect("report filed");
        assert_eq!(report.ingested, 5_000);
        assert_eq!(report.shed, 0);
        assert!(!report.frozen);
    }

    #[test]
    fn live_queries_answer_before_eos() {
        let mut svc = FleetService::new(cfg(1));
        let records = stream(600, 8);
        let mut sink = svc.register("live");
        let id = sink.id();
        for r in &records {
            sink.push(r);
        }
        // Flush pending without ending the stream, then give the worker
        // a moment to drain.
        sink.phase_end(0);
        for _ in 0..200 {
            if svc.snapshot(id).map(|s| s.ingested) == Some(600) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(svc.live_jobs(), 1);
        let snap = svc.snapshot(id).expect("live snapshot");
        assert_eq!(snap.ingested, 600);
        assert!(svc.top_slow(id).is_some());
        assert_eq!(svc.rollup().ingested, 600);
        sink.finish();
        drop(sink);
        svc.shutdown();
        assert_eq!(svc.live_jobs(), 0);
        assert_eq!(svc.rollup().ingested, 600);
    }

    #[test]
    fn rollup_folds_live_and_completed_tenants_in_id_order() {
        for workers in [1, 2] {
            let mut svc = FleetService::new(cfg(workers));
            let mut ids = Vec::new();
            let mut live = Vec::new();
            for j in 0..6 {
                let records = stream(300 + 40 * j, 4 + j as u32);
                let mut sink = svc.register(&format!("job-{j}"));
                for r in &records {
                    sink.push(r);
                }
                ids.push(sink.id());
                if sink.id() % 2 == 1 {
                    sink.finish();
                } else {
                    // Flush without ending the stream: the tenant stays live.
                    sink.phase_end(0);
                    live.push((sink, records.len() as u64));
                }
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while svc.completed_jobs().len() < 3
                || live
                    .iter()
                    .any(|(s, n)| svc.snapshot(s.id()).map(|x| x.ingested) != Some(*n))
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "workers={workers}: tenants not drained"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(svc.completed_jobs(), vec![1, 3, 5]);
            assert_eq!(svc.live_jobs(), 3);
            let mut want = EnsembleSnapshot::empty();
            for &id in &ids {
                want.merge(&svc.snapshot(id).expect("registered job"));
            }
            assert_eq!(svc.rollup(), want, "workers={workers}");
            drop(live);
            svc.shutdown();
        }
    }

    #[test]
    fn per_job_state_is_identical_across_pool_sizes() {
        let jobs: Vec<Vec<Record>> = (0..6).map(|j| stream(400 + j * 50, 8)).collect();
        let run = |workers: usize| -> Vec<Arc<JobReport>> {
            let mut svc = FleetService::new(cfg(workers));
            let mut sinks: Vec<JobSink> = (0..jobs.len())
                .map(|j| svc.register(&format!("job-{j}")))
                .collect();
            for (sink, records) in sinks.iter_mut().zip(&jobs) {
                for r in records {
                    sink.push(r);
                }
            }
            for mut sink in sinks {
                sink.finish();
            }
            svc.shutdown();
            svc.reports()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.len(), 6);
        assert_eq!(one, eight);
        // And so is the roll-up.
        let roll = |reports: &[Arc<JobReport>]| {
            let mut acc = EnsembleSnapshot::empty();
            for r in reports {
                acc.merge(&r.snapshot);
            }
            acc
        };
        assert_eq!(roll(&one), roll(&eight));
    }

    #[test]
    fn reports_are_shared_not_copied() {
        let mut svc = FleetService::new(cfg(2));
        let mut ids = Vec::new();
        for j in 0..3 {
            let mut sink = svc.register(&format!("job-{j}"));
            for r in stream(200 + 50 * j, 8) {
                sink.push(&r);
            }
            sink.finish();
            ids.push(sink.id());
        }
        svc.shutdown();
        let reports = svc.reports();
        assert_eq!(reports.len(), ids.len());
        for (&id, listed) in ids.iter().zip(&reports) {
            let a = svc.report(id).expect("report filed");
            let b = svc.report(id).expect("report filed");
            assert!(Arc::ptr_eq(&a, &b), "job {id}: two queries, one allocation");
            assert!(Arc::ptr_eq(&a, listed), "job {id}: reports() shares it too");
        }
        assert!(svc.report(99).is_none());
    }

    #[test]
    fn rollup_ingested_is_the_sum_of_tenants() {
        let mut svc = FleetService::new(cfg(3));
        let sizes = [300usize, 450, 700];
        for (j, &n) in sizes.iter().enumerate() {
            let mut sink = svc.register(&format!("job-{j}"));
            for r in stream(n, 8) {
                sink.push(&r);
            }
            sink.finish();
        }
        svc.shutdown();
        let total: u64 = sizes.iter().map(|&n| n as u64).sum();
        assert_eq!(svc.rollup().ingested, total);
        assert_eq!(svc.completed_jobs().len(), 3);
    }
}
