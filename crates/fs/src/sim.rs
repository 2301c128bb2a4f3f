//! The file-system simulator proper: wires nodes, fabric, OSTs, MDS,
//! locks and read-ahead into an event-driven model with one event per
//! RPC.
//!
//! ## I/O life cycle
//!
//! A data I/O acquires its node's discipline token, then streams
//! stripe-sized RPCs through the chain *NIC → fabric → OST*, each stage a
//! FIFO service center, keeping a window of RPCs in flight.
//!
//! * **Buffered writes** are accepted into the node's dirty-page cache;
//!   `write()` returns when the last byte is accepted (at memory speed if
//!   there is room, else when enough dirty data has drained). Write-back
//!   continues after return; `Flush` waits for node quiescence.
//! * **Synchronous writes**: a shared-file write that is mostly partial
//!   stripes (an unaligned small record), or that conflicts with another
//!   node's extent lock (a revocation round serialized through the DLM),
//!   loses caching — `write()` then returns only when the data is on the
//!   OSTs. This is what makes the unaligned GCRM baseline slow.
//! * **Reads** bypass the cache and return at the last RPC completion. A
//!   read classified *strided* by the read-ahead engine, on a node under
//!   memory pressure, degrades to serialized page-sized fetches whose
//!   cost scales with the erroneous window (the Franklin bug).
//! * **Metadata** ops go to the MDS service center (small writes also
//!   touch their OST); they bypass the data token.

use crate::config::FsConfig;
use crate::fault::FaultInjector;
use crate::locks::{LockMap, LockStats};
use crate::node::Node;
use crate::ost::Ost;
use crate::readahead::{ReadMode, ReadaheadTracker};
use crate::stripe::StripeLayout;
use crate::{FileId, NodeId};
use pio_des::{FxHashSet, MultiServiceCenter, ServiceCenter, SimRng, SimSpan, SimTime};

/// Identifier of an in-flight I/O: its slot in the simulator's I/O
/// table. A slot is reused once its I/O has completed, so an id is only
/// meaningful until the I/O's completion is delivered.
pub type IoId = u64;

/// What kind of call an I/O request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Data read.
    Read,
    /// Data write (buffered unless lock conflicts force sync).
    Write,
    /// Small metadata read (MDS lookup).
    MetaRead,
    /// Small metadata write (synchronous MDS transaction + OST touch).
    MetaWrite,
    /// File open (MDS).
    Open,
    /// File close (MDS); drops read-ahead stream state.
    Close,
    /// Wait for all dirty data on this rank's node to reach the servers.
    Flush,
}

/// An I/O request from the execution layer.
#[derive(Debug, Clone)]
pub struct IoReq {
    /// Issuing rank (returned in notifications).
    pub rank: u32,
    /// Node the rank runs on.
    pub node: NodeId,
    /// Target file (from [`FsSim::register_file`]).
    pub file: FileId,
    /// Stream identity (rank/fd) for read-ahead and OST seek modeling.
    pub stream: u64,
    /// Call kind.
    pub kind: IoKind,
    /// File offset.
    pub offset: u64,
    /// Length in bytes (data and metadata ops; 0 allowed for open/close/flush).
    pub len: u64,
}

/// Internal events of the file-system model.
#[derive(Debug, Clone, Copy)]
pub enum FsEvent {
    /// RPC `idx` of I/O `io` completed at the OSTs.
    RpcDone {
        /// The I/O.
        io: IoId,
        /// RPC index within the I/O's plan.
        idx: u32,
    },
    /// Buffered write `io` fully accepted into the cache (call returns).
    Accepted {
        /// The I/O.
        io: IoId,
    },
    /// Metadata operation finished.
    MetaDone {
        /// The I/O.
        io: IoId,
    },
}

/// Completion notifications to the execution layer.
#[derive(Debug, Clone, Copy)]
pub enum FsNotify {
    /// The call of I/O `io` returned to the application at the event time.
    Done {
        /// The I/O.
        io: IoId,
        /// Issuing rank.
        rank: u32,
    },
}

/// Aggregate statistics over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Data RPCs issued.
    pub data_rpcs: u64,
    /// Metadata operations.
    pub meta_ops: u64,
    /// Reads that executed degraded (the bug path).
    pub degraded_reads: u64,
    /// Writes forced synchronous by lock conflicts.
    pub sync_writes: u64,
    /// Bytes read (data plane).
    pub bytes_read: u64,
    /// Bytes written (data plane).
    pub bytes_written: u64,
    /// Flush operations.
    pub flushes: u64,
}

/// The extras of one RPC beyond its geometry. RPC `i` of an I/O moves
/// extent `i` of the I/O's range ([`StripeLayout::extent`]), so only
/// these are stored, and only for an I/O that has one.
#[derive(Debug, Clone, Copy)]
struct Rpc {
    /// Extra OST service (RMW, RAID partial-stripe penalty).
    ost_extra: SimSpan,
    /// Client-local extra latency (degraded page fetches).
    local_extra: SimSpan,
    /// Lock revocation required before this RPC (serialized via DLM).
    revoke: bool,
}

impl Rpc {
    /// An RPC with no extras.
    const PLAIN: Rpc = Rpc {
        ost_extra: SimSpan::ZERO,
        local_extra: SimSpan::ZERO,
        revoke: false,
    };
}

/// Plan entry of RPC `i` of an `n`-RPC I/O. The first call materializes
/// the plan as `n` plain RPCs in a buffer recycled from `pool`.
fn plan_entry<'a>(
    pool: &mut Vec<Vec<Rpc>>,
    plan: &'a mut Vec<Rpc>,
    n: usize,
    i: usize,
) -> &'a mut Rpc {
    if plan.is_empty() {
        *plan = pool.pop().unwrap_or_default();
        plan.resize(n, Rpc::PLAIN);
    }
    &mut plan[i]
}

#[derive(Debug)]
struct IoState {
    rank: u32,
    node: NodeId,
    file: FileId,
    stream: u64,
    kind: IoKind,
    offset: u64,
    len: u64,
    /// RPCs of a data I/O (one per stripe touched), set at grant.
    n_rpcs: u32,
    /// Per-RPC extras, indexed like the RPCs; empty while every RPC is
    /// plain.
    rpcs: Vec<Rpc>,
    next_rpc: u32,
    inflight: u32,
    done_rpcs: u32,
    window: u32,
    /// Write: bytes accepted into cache so far (== len for sync writes
    /// once granted, acceptance is bypassed).
    accepted: u64,
    noise: f64,
    /// Read degraded by the read-ahead bug.
    degraded: bool,
    /// Write forced synchronous by lock conflicts.
    sync: bool,
    /// Call-return notification delivered.
    returned: bool,
    /// Completion of the copy-in through the node's ingest engine.
    ingest_done: SimTime,
    /// When the node token was granted (acceptance-stretch anchor).
    granted_at: SimTime,
    /// Per-call grant-pacing stretch (≥ 1) applied to buffered-write
    /// acceptance duration.
    stretch: f64,
    /// Strided classification recorded at submit.
    read_mode: ReadMode,
    /// Strided severity (0 = not strided); a strided read degrades the
    /// moment its node comes under memory pressure, even mid-flight.
    strided_severity: u32,
    /// Whether the node was under memory pressure when the call was
    /// issued (POSIX submit time — the paper's "system memory was being
    /// filled with interleaved writes" condition).
    pressure_at_submit: bool,
}

struct FileMeta {
    layout: StripeLayout,
    shared: bool,
}

/// An RPC's streaming service spans at the client NIC, the fabric and
/// its OST.
#[derive(Clone, Copy)]
struct StageSpans {
    nic: SimSpan,
    fabric: SimSpan,
    ost: SimSpan,
}

impl StageSpans {
    fn for_bytes(bytes: u64, cfg: &FsConfig) -> Self {
        StageSpans {
            nic: SimSpan::for_bytes(bytes, cfg.nic_bw),
            fabric: SimSpan::for_bytes(bytes, cfg.fabric_bw),
            ost: SimSpan::for_bytes(bytes, cfg.ost_bw),
        }
    }
}

/// The file-system simulator.
pub struct FsSim {
    cfg: FsConfig,
    /// [`StageSpans`] of a full-stripe RPC, computed once: every RPC of a
    /// stripe-aligned write or read (all of Fig. 1's) moves exactly
    /// `stripe_bytes`.
    stripe_spans: StageSpans,
    fabric: ServiceCenter,
    dlm: ServiceCenter,
    mds: MultiServiceCenter,
    osts: Vec<Ost>,
    nodes: Vec<Node>,
    files: Vec<FileMeta>,
    readahead: ReadaheadTracker,
    locks: LockMap,
    /// I/O table: slot `io` holds I/O `io` while it is in flight.
    ios: Vec<Option<IoState>>,
    /// Empty slots of `ios`, reused before the table grows.
    free_ios: Vec<IoId>,
    rng: SimRng,
    stats: FsStats,
    /// Per-node outstanding write RPCs (for flush quiescence).
    node_wr_outstanding: Vec<u32>,
    /// Per-node flush waiters.
    node_flush_waiters: Vec<Vec<IoId>>,
    /// Streams whose current stride-run has already degraded: once the
    /// erroneous window is in effect it stays until the pattern breaks,
    /// even if memory pressure has eased (the window-size calculation,
    /// not the pressure, was the bug).
    degraded_streams: FxHashSet<u64>,
    /// Optional fault-injection hooks (see [`crate::fault`]). `None` is
    /// the common case and costs nothing: no hook calls, no RNG draws.
    fault: Option<Box<dyn FaultInjector>>,
    /// Cached [`FaultInjector::expiry`] horizon in nanoseconds: at or
    /// after this instant hook dispatch is skipped entirely (the
    /// injector guarantees every hook returns zero), so an expired
    /// time-windowed plan costs one integer compare per touch point.
    fault_expiry: u64,
    /// Recycled RPC-plan buffers: retired I/Os return their `rpcs` Vec
    /// here and [`plan_entry`] reuses them, so steady state allocates no
    /// plans.
    rpc_pool: Vec<Vec<Rpc>>,
}

/// Where a run's time went: per-resource busy time and contention
/// counters, for the utilization breakdowns the figure binaries and
/// `analyze` print.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilizationReport {
    /// Run end used for the fractions (seconds).
    pub horizon_s: f64,
    /// Fabric busy seconds and fraction of the horizon.
    pub fabric_busy_s: f64,
    /// DLM (lock revocation) busy seconds.
    pub dlm_busy_s: f64,
    /// Total MDS busy seconds across threads.
    pub mds_busy_s: f64,
    /// Per-OST busy seconds.
    pub ost_busy_s: Vec<f64>,
    /// Per-OST stream switches (seek-ish events).
    pub ost_switches: Vec<u64>,
    /// Per-OST read/write turnarounds.
    pub ost_direction_switches: Vec<u64>,
    /// Per-OST bytes served.
    pub ost_bytes: Vec<u64>,
    /// Per-node peak dirty level (bytes).
    pub node_dirty_peak: Vec<u64>,
    /// Per-node time-averaged dirty level (bytes) over the horizon.
    pub node_dirty_avg: Vec<f64>,
}

impl UtilizationReport {
    /// Fabric utilization over the horizon.
    pub fn fabric_utilization(&self) -> f64 {
        if self.horizon_s <= 0.0 {
            return 0.0;
        }
        (self.fabric_busy_s / self.horizon_s).min(1.0)
    }

    /// Mean OST utilization over the horizon.
    pub fn mean_ost_utilization(&self) -> f64 {
        if self.horizon_s <= 0.0 || self.ost_busy_s.is_empty() {
            return 0.0;
        }
        let mean = self.ost_busy_s.iter().sum::<f64>() / self.ost_busy_s.len() as f64;
        (mean / self.horizon_s).min(1.0)
    }

    /// Imbalance across OSTs: max busy / mean busy (1 = perfectly even).
    pub fn ost_imbalance(&self) -> f64 {
        let mean = self.ost_busy_s.iter().sum::<f64>() / self.ost_busy_s.len().max(1) as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        self.ost_busy_s.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Output buffers threaded through submit/handle: events to schedule and
/// notifications to deliver.
pub struct FsOut {
    /// Events to schedule at the given instants.
    pub sched: Vec<(SimTime, FsEvent)>,
    /// Call-return notifications.
    pub notify: Vec<FsNotify>,
}

impl FsOut {
    /// Empty buffers.
    pub fn new() -> Self {
        FsOut {
            sched: Vec::new(),
            notify: Vec::new(),
        }
    }

    /// Clear for reuse.
    pub fn clear(&mut self) {
        self.sched.clear();
        self.notify.clear();
    }
}

impl Default for FsOut {
    fn default() -> Self {
        Self::new()
    }
}

/// Stretch a buffered write's acceptance interval by the call's
/// grant-pacing factor: completion moves from `done` to
/// `granted + (done − granted)·stretch` (pure client-side wait; consumes
/// no shared resources).
fn stretch_accept(granted: SimTime, done: SimTime, stretch: f64) -> SimTime {
    granted + done.since(granted).scale(stretch)
}

impl FsSim {
    /// A simulator for `n_nodes` compute nodes under `cfg`, seeded with
    /// `seed` (stream-split from the run's master seed).
    pub fn new(cfg: FsConfig, n_nodes: u32, seed: u64) -> Self {
        cfg.validate().expect("invalid fs config");
        let osts = (0..cfg.n_osts).map(|_| Ost::new()).collect();
        let nodes = (0..n_nodes)
            .map(|_| Node::new(cfg.tasks_per_node))
            .collect();
        let mds = MultiServiceCenter::new(cfg.mds_threads);
        FsSim {
            stripe_spans: StageSpans::for_bytes(cfg.stripe_bytes, &cfg),
            fabric: ServiceCenter::new(),
            dlm: ServiceCenter::new(),
            mds,
            osts,
            nodes,
            files: Vec::new(),
            readahead: ReadaheadTracker::new(),
            locks: LockMap::new(),
            ios: Vec::new(),
            free_ios: Vec::new(),
            rng: SimRng::stream(seed, 0xF5),
            stats: FsStats::default(),
            node_wr_outstanding: vec![0; n_nodes as usize],
            node_flush_waiters: vec![Vec::new(); n_nodes as usize],
            degraded_streams: FxHashSet::default(),
            fault: None,
            fault_expiry: u64::MAX,
            rpc_pool: Vec::new(),
            cfg,
        }
    }

    /// Install fault-injection hooks for this run. The injector must own
    /// its own RNG stream (it may not draw from the simulator's), so a
    /// faulted run perturbs only what the plan says it perturbs.
    pub fn set_fault(&mut self, fault: Box<dyn FaultInjector>) {
        self.fault_expiry = fault.expiry().nanos();
        self.fault = Some(fault);
    }

    /// Register a file; `shared` enables extent-lock semantics.
    /// Files start on staggered OSTs to spread load.
    pub fn register_file(&mut self, shared: bool) -> FileId {
        let id = self.files.len() as FileId;
        let layout = StripeLayout::new(
            self.cfg.stripe_bytes,
            self.cfg.n_osts,
            (id as usize * 7) % self.cfg.n_osts,
        );
        self.files.push(FileMeta { layout, shared });
        id
    }

    /// Configuration in use.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    /// Lock-table statistics.
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Where the run's time went, measured against `end`.
    pub fn utilization(&self, end: SimTime) -> UtilizationReport {
        UtilizationReport {
            horizon_s: end.as_secs_f64(),
            fabric_busy_s: self.fabric.busy_time().as_secs_f64(),
            dlm_busy_s: self.dlm.busy_time().as_secs_f64(),
            mds_busy_s: self.mds.busy_time().as_secs_f64(),
            ost_busy_s: self
                .osts
                .iter()
                .map(|o| o.busy_time().as_secs_f64())
                .collect(),
            ost_switches: self.osts.iter().map(|o| o.switches()).collect(),
            ost_direction_switches: self.osts.iter().map(|o| o.direction_switches()).collect(),
            ost_bytes: self.osts.iter().map(|o| o.bytes()).collect(),
            node_dirty_peak: self.nodes.iter().map(|n| n.dirty_peak).collect(),
            node_dirty_avg: self
                .nodes
                .iter()
                .map(|n| n.dirty_over_time.average(end))
                .collect(),
        }
    }

    /// Node accessor (diagnostics and tests).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// OST accessor (diagnostics and tests).
    pub fn ost(&self, idx: usize) -> &Ost {
        &self.osts[idx]
    }

    /// Resample every node's service discipline — call at each barrier
    /// (synchronous phase boundary), mirroring the run-to-run randomness
    /// of which tasks the client favours.
    pub fn new_phase(&mut self) {
        let weights = self.cfg.discipline_weights;
        let tasks = self.cfg.tasks_per_node;
        for n in &mut self.nodes {
            n.resample(&mut self.rng, &weights, tasks);
        }
    }

    /// Submit an I/O request at `now`. Completion is notified via
    /// [`FsNotify::Done`] in `out` (possibly after events run).
    pub fn submit(&mut self, now: SimTime, req: IoReq, out: &mut FsOut) -> IoId {
        debug_assert!((req.node as usize) < self.nodes.len(), "unknown node");
        debug_assert!(
            (req.file as usize) < self.files.len()
                || !matches!(req.kind, IoKind::Read | IoKind::Write | IoKind::MetaWrite),
            "unknown file"
        );

        match req.kind {
            IoKind::Open | IoKind::Close | IoKind::MetaRead => {
                self.stats.meta_ops += 1;
                if matches!(req.kind, IoKind::Close) {
                    self.readahead.close_stream(req.stream);
                }
                let lat = self
                    .rng
                    .lognormal(self.cfg.mds_latency_median, self.cfg.meta_sigma);
                let mut demand = SimSpan::from_secs_f64(lat);
                if now.nanos() < self.fault_expiry {
                    if let Some(f) = self.fault.as_deref_mut() {
                        demand += f.mds_extra(now, demand);
                    }
                }
                let done = self.mds.submit(now, demand);
                let io = self.insert_io(Self::meta_state(&req));
                out.sched.push((done, FsEvent::MetaDone { io }));
                io
            }
            IoKind::MetaWrite => {
                self.stats.meta_ops += 1;
                assert!(req.len > 0, "zero-length metadata write");
                let lat = self
                    .rng
                    .lognormal(self.cfg.meta_sync_median, self.cfg.meta_sigma);
                let mut demand = SimSpan::from_secs_f64(lat);
                if now.nanos() < self.fault_expiry {
                    if let Some(f) = self.fault.as_deref_mut() {
                        demand += f.mds_extra(now, demand);
                    }
                }
                let t1 = self.mds.submit(now, demand);
                // The metadata bytes land on the OST of their offset.
                let layout = self.files[req.file as usize].layout;
                let ost = layout.ost_of_stripe(layout.stripe_of(req.offset));
                let done = self.osts[ost].submit(
                    t1,
                    req.len,
                    SimSpan::for_bytes(req.len, self.cfg.ost_bw),
                    req.stream,
                    false,
                    1.0,
                    SimSpan::ZERO,
                    &self.cfg,
                    &mut self.rng,
                );
                let io = self.insert_io(Self::meta_state(&req));
                out.sched.push((done, FsEvent::MetaDone { io }));
                io
            }
            IoKind::Flush => {
                self.stats.flushes += 1;
                let n = req.node as usize;
                let io = self.insert_io(Self::meta_state(&req));
                if self.node_quiescent(req.node) {
                    out.sched.push((now, FsEvent::MetaDone { io }));
                } else {
                    self.node_flush_waiters[n].push(io);
                }
                io
            }
            IoKind::Read | IoKind::Write => {
                assert!(req.len > 0, "zero-length data I/O");
                // Classify reads in program order at submit time.
                let read_mode = if req.kind == IoKind::Read {
                    let mode = self.readahead.observe_read(
                        &self.cfg.readahead,
                        req.stream,
                        req.offset,
                        req.len,
                    );
                    if mode == ReadMode::Normal {
                        // The stride-run broke: the erroneous window is gone.
                        self.degraded_streams.remove(&req.stream);
                    }
                    mode
                } else {
                    ReadMode::Normal
                };
                let noise = self.rng.lognormal(1.0, self.cfg.call_noise_sigma);
                let pressure_at_submit = self.nodes[req.node as usize].under_pressure(
                    now,
                    self.cfg.cache_bytes,
                    self.cfg.pressure_frac,
                );
                let stretch = self.rng.lognormal(1.0, self.cfg.grant_noise_sigma).max(1.0);
                let st = IoState {
                    rank: req.rank,
                    node: req.node,
                    file: req.file,
                    stream: req.stream,
                    kind: req.kind,
                    offset: req.offset,
                    len: req.len,
                    n_rpcs: 0,
                    rpcs: Vec::new(),
                    next_rpc: 0,
                    inflight: 0,
                    done_rpcs: 0,
                    window: 1,
                    accepted: 0,
                    noise,
                    degraded: false,
                    sync: false,
                    returned: false,
                    ingest_done: SimTime::ZERO,
                    granted_at: SimTime::ZERO,
                    stretch,
                    read_mode,
                    strided_severity: 0,
                    pressure_at_submit,
                };
                let io = self.insert_io(st);
                let granted = self.nodes[req.node as usize].acquire(io);
                if granted {
                    self.grant(now, io, out);
                }
                io
            }
        }
    }

    /// Handle one of this model's events.
    pub fn handle(&mut self, now: SimTime, ev: FsEvent, out: &mut FsOut) {
        match ev {
            FsEvent::MetaDone { io } => {
                let st = self.retire(io);
                out.notify.push(FsNotify::Done { io, rank: st.rank });
            }
            FsEvent::Accepted { io } => {
                let (rank, node, all_done) = {
                    let st = self.state_mut(io);
                    st.returned = true;
                    (st.rank, st.node, st.done_rpcs == st.n_rpcs)
                };
                out.notify.push(FsNotify::Done { io, rank });
                self.release_token(now, node, out);
                if all_done {
                    self.retire(io);
                }
            }
            FsEvent::RpcDone { io, idx } => self.rpc_done(now, io, idx, out),
        }
    }

    // ---- internal machinery -------------------------------------------

    /// Put a new I/O into a free slot of the table; the slot is its id.
    fn insert_io(&mut self, st: IoState) -> IoId {
        match self.free_ios.pop() {
            Some(io) => {
                self.ios[io as usize] = Some(st);
                io
            }
            None => {
                self.ios.push(Some(st));
                (self.ios.len() - 1) as IoId
            }
        }
    }

    fn state(&self, io: IoId) -> &IoState {
        self.ios[io as usize].as_ref().expect("live io state")
    }

    fn state_mut(&mut self, io: IoId) -> &mut IoState {
        self.ios[io as usize].as_mut().expect("live io state")
    }

    /// Remove a finished I/O, freeing its slot and recycling its
    /// RPC-plan buffer (if it had one) for a later plan.
    fn retire(&mut self, io: IoId) -> IoState {
        let mut st = self.ios[io as usize].take().expect("retire io state");
        self.free_ios.push(io);
        if st.rpcs.capacity() > 0 {
            let mut rpcs = std::mem::take(&mut st.rpcs);
            rpcs.clear();
            self.rpc_pool.push(rpcs);
        }
        st
    }

    fn meta_state(req: &IoReq) -> IoState {
        IoState {
            rank: req.rank,
            node: req.node,
            file: req.file,
            stream: req.stream,
            kind: req.kind,
            offset: req.offset,
            len: req.len,
            n_rpcs: 0,
            rpcs: Vec::new(),
            next_rpc: 0,
            inflight: 0,
            done_rpcs: 0,
            window: 1,
            accepted: 0,
            noise: 1.0,
            degraded: false,
            sync: false,
            returned: false,
            ingest_done: SimTime::ZERO,
            granted_at: SimTime::ZERO,
            stretch: 1.0,
            read_mode: ReadMode::Normal,
            strided_severity: 0,
            pressure_at_submit: false,
        }
    }

    fn node_quiescent(&self, node: NodeId) -> bool {
        let n = node as usize;
        self.node_wr_outstanding[n] == 0
            && self.nodes[n].dirty == 0
            && self.nodes[n].blocked.is_empty()
    }

    /// Token granted: take the write's extent locks, price the RPCs that
    /// carry extras, and start the pipeline.
    fn grant(&mut self, now: SimTime, io: IoId, out: &mut FsOut) {
        let (kind, node_id, file, offset, len, read_mode, pressure) = {
            let st = self.state(io);
            (
                st.kind,
                st.node,
                st.file,
                st.offset,
                st.len,
                st.read_mode,
                st.pressure_at_submit,
            )
        };
        let layout = self.files[file as usize].layout;
        let shared = self.files[file as usize].shared;
        let window_default = self.nodes[node_id as usize].io_window(self.cfg.node_window);

        // One RPC per stripe touched; RPC `i` moves extent `i`.
        let n = layout.stripes_touched(offset, len) as usize;
        let mut plan = Vec::new();
        let mut sync = false;
        match kind {
            IoKind::Write => {
                // Only the edge extents of a contiguous range can be
                // partial.
                let first = layout.extent(offset, len, 0);
                let last = layout.extent(offset, len, n as u64 - 1);
                let first_full = first.is_full_stripe(self.cfg.stripe_bytes);
                let last_full = last.is_full_stripe(self.cfg.stripe_bytes);
                // A small shared-file write dominated by partial stripes
                // cannot be buffered: the client must perform the
                // lock-covered read-modify-write edges synchronously. Large
                // writes amortize their two edges and stay cached.
                let partials = usize::from(!first_full) + usize::from(n > 1 && !last_full);
                if shared && partials * 4 > n {
                    sync = true;
                }
                // Sub-stripe write: RAID read-modify-write penalty, drawn
                // in extent order.
                for (i, full) in [(0, first_full), (n - 1, last_full)].into_iter().take(n) {
                    if !full {
                        let penalty = self.rng.lognormal(self.cfg.raid_partial_median, 0.3);
                        plan_entry(&mut self.rpc_pool, &mut plan, n, i).ost_extra +=
                            SimSpan::from_secs_f64(penalty);
                    }
                }
                if shared {
                    let readback = self.stripe_spans.ost;
                    let stripes = first.stripe..first.stripe + n as u64;
                    self.locks.write_range(
                        file,
                        stripes,
                        node_id,
                        first_full,
                        last_full,
                        |stripe, rmw| {
                            let i = (stripe - first.stripe) as usize;
                            let rpc = plan_entry(&mut self.rpc_pool, &mut plan, n, i);
                            rpc.revoke = true;
                            sync = true;
                            if rmw {
                                // Read the stripe back before writing.
                                rpc.ost_extra += readback;
                            }
                        },
                    );
                }
                self.stats.bytes_written += len;
                if sync {
                    self.stats.sync_writes += 1;
                }
            }
            IoKind::Read => self.stats.bytes_read += len,
            _ => unreachable!("grant is only for data I/O"),
        }

        let severity = match read_mode {
            ReadMode::Strided { severity } if kind == IoKind::Read => severity,
            _ => 0,
        };
        {
            let st = self.state_mut(io);
            st.granted_at = now;
            st.n_rpcs = n as u32;
            st.rpcs = plan;
            st.sync = sync;
            st.strided_severity = severity;
            st.window = window_default;
        }
        // A strided read degrades from the first page if the node is
        // already pressured or this stream's stride-run degraded before;
        // otherwise it may still degrade mid-flight (see `pump`) once
        // interleaved writes fill the cache.
        if severity > 0 {
            let sticky = self.degraded_streams.contains(&self.state(io).stream);
            if pressure || sticky {
                self.degrade_read(io);
            }
        }

        if kind == IoKind::Write {
            if sync {
                // Synchronous path: no cache acceptance; completion at the
                // last RPC.
                let st = self.state_mut(io);
                st.accepted = st.len;
            } else {
                let cache = self.cfg.cache_bytes;
                let free = self.nodes[node_id as usize].free_cache(cache);
                let take = free.min(len);
                self.state_mut(io).accepted = take;
                self.nodes[node_id as usize].add_dirty(now, take);
                // Reserve the node's shared ingest engine for the memcpy
                // regardless of cache state; the call cannot return before
                // the copy-in finishes.
                let ingest_done = self.nodes[node_id as usize]
                    .ingest
                    .submit(now, SimSpan::for_bytes(len, self.cfg.ingest_bw));
                let st = self.state_mut(io);
                st.ingest_done = ingest_done;
                if take == len {
                    let ret = stretch_accept(st.granted_at, ingest_done.max(now), st.stretch);
                    out.sched.push((ret, FsEvent::Accepted { io }));
                } else {
                    self.nodes[node_id as usize].blocked.push_back(io);
                }
            }
        }
        self.pump(now, io, out);
    }

    /// Degrade the un-submitted remainder of a strided read: the
    /// erroneous read-ahead window is fetched as serialized page-sized
    /// RPCs whose per-page cost scales with the window severity.
    fn degrade_read(&mut self, io: IoId) {
        let severity = {
            let st = self.state(io);
            if st.degraded || st.strided_severity == 0 {
                return;
            }
            st.strided_severity
        };
        let page_cost = self.rng.lognormal(
            self.cfg.readahead.page_cost_median * severity as f64,
            self.cfg.readahead.page_cost_sigma,
        );
        let page_bytes = self.cfg.readahead.page_bytes;
        let st = self.ios[io as usize].as_mut().expect("degrade io state");
        st.degraded = true;
        st.window = 1;
        let layout = self.files[st.file as usize].layout;
        let n = st.n_rpcs as usize;
        for i in st.next_rpc as usize..n {
            let pages = layout
                .extent(st.offset, st.len, i as u64)
                .len
                .div_ceil(page_bytes);
            plan_entry(&mut self.rpc_pool, &mut st.rpcs, n, i).local_extra =
                SimSpan::from_secs_f64(pages as f64 * page_cost);
        }
        self.degraded_streams.insert(st.stream);
        self.stats.degraded_reads += 1;
    }

    /// Submit RPCs of `io` up to its window (and, for buffered writes,
    /// only for bytes already accepted into the cache).
    fn pump(&mut self, now: SimTime, io: IoId, out: &mut FsOut) {
        // Mid-flight degradation: a strided read whose node has since come
        // under memory pressure collapses to page-sized fetches for its
        // remaining extent.
        if let Some(st) = &self.ios[io as usize] {
            if st.kind == IoKind::Read && !st.degraded && st.strided_severity > 0 {
                let node = st.node as usize;
                if self.nodes[node].under_pressure(
                    now,
                    self.cfg.cache_bytes,
                    self.cfg.pressure_frac,
                ) {
                    self.degrade_read(io);
                }
            }
        }
        // Split the borrow: the I/O state stays mutably borrowed from
        // `ios` while the service centers, RNG and counters are reached
        // through their own disjoint fields.
        let FsSim {
            ios,
            nodes,
            files,
            fabric,
            dlm,
            osts,
            rng,
            cfg,
            stripe_spans,
            fault,
            fault_expiry,
            stats,
            node_wr_outstanding,
            ..
        } = self;
        let fault_expiry = *fault_expiry;
        let Some(st) = ios[io as usize].as_mut() else {
            return;
        };
        let layout = files[st.file as usize].layout;
        let (node_id, stream, noise, is_write) =
            (st.node, st.stream, st.noise, st.kind == IoKind::Write);
        while st.inflight < st.window && st.next_rpc < st.n_rpcs {
            let idx = st.next_rpc;
            let ex = layout.extent(st.offset, st.len, u64::from(idx));
            // Buffered writes send only accepted bytes.
            if is_write && !st.sync && ex.offset + ex.len > st.offset + st.accepted {
                return;
            }
            let rpc = st.rpcs.get(idx as usize).copied().unwrap_or(Rpc::PLAIN);
            st.next_rpc += 1;
            st.inflight += 1;

            let bytes = ex.len;
            let ost = ex.ost;
            let spans = if bytes == cfg.stripe_bytes {
                *stripe_spans
            } else {
                StageSpans::for_bytes(bytes, cfg)
            };
            // Fault hooks (inert when no injector is installed): extra
            // per-stage demand plus a client-side drop/retry delay before
            // the RPC is (re)transmitted.
            let (drop_delay, nic_x, fab_x, ost_x) = match fault.as_deref_mut() {
                Some(f) if now.nanos() < fault_expiry => (
                    f.rpc_drop_delay(now),
                    f.nic_extra(now, node_id, spans.nic),
                    f.fabric_extra(now, spans.fabric),
                    f.ost_extra(now, ost, spans.ost, !is_write),
                ),
                _ => (SimSpan::ZERO, SimSpan::ZERO, SimSpan::ZERO, SimSpan::ZERO),
            };
            // Lock revocation serializes through the DLM before the data
            // moves.
            let start = if rpc.revoke {
                let lat = rng.lognormal(cfg.lock_revoke_latency, 0.3);
                dlm.submit(now, SimSpan::from_secs_f64(lat))
            } else {
                now
            };
            let t_nic = nodes[node_id as usize].nic.submit(start, spans.nic);
            let t_fab = fabric.submit(t_nic, spans.fabric + fab_x);
            let t_ost = osts[ost].submit(
                t_fab,
                bytes,
                spans.ost,
                stream,
                !is_write,
                noise,
                rpc.ost_extra + ost_x,
                cfg,
                rng,
            );
            // Drop/retry waits and the straggler-NIC excess are
            // client-visible latency only: with eager completion-time
            // reservations, charging them to the shared pipeline would
            // let one sick client stall the global fabric FIFO behind
            // its future start times.
            let done = t_ost + rpc.local_extra + drop_delay + nic_x;
            stats.data_rpcs += 1;
            if is_write {
                node_wr_outstanding[node_id as usize] += 1;
            }
            out.sched.push((done, FsEvent::RpcDone { io, idx }));
        }
    }

    fn rpc_done(&mut self, now: SimTime, io: IoId, idx: u32, out: &mut FsOut) {
        let (kind, node_id, sync, returned) = {
            let st = self.state_mut(io);
            st.inflight -= 1;
            st.done_rpcs += 1;
            (st.kind, st.node, st.sync, st.returned)
        };

        if kind == IoKind::Write {
            let n = node_id as usize;
            self.node_wr_outstanding[n] -= 1;
            if !sync {
                let st = self.state(io);
                let layout = self.files[st.file as usize].layout;
                let rpc_len = layout.extent(st.offset, st.len, u64::from(idx)).len;
                self.nodes[n].drain_dirty(now, rpc_len);
                self.wake_blocked(now, node_id, out);
            }
        }

        // Keep this I/O's pipeline full.
        self.pump(now, io, out);

        let (all_done, rank) = {
            let st = self.state(io);
            (st.done_rpcs == st.n_rpcs && st.inflight == 0, st.rank)
        };
        if all_done {
            match kind {
                IoKind::Read => {
                    out.notify.push(FsNotify::Done { io, rank });
                    self.retire(io);
                    self.release_token(now, node_id, out);
                }
                IoKind::Write => {
                    if sync {
                        // Sync write returns at last RPC.
                        out.notify.push(FsNotify::Done { io, rank });
                        self.retire(io);
                        self.release_token(now, node_id, out);
                    } else if returned {
                        // Call already returned at acceptance; write-back done.
                        self.retire(io);
                    }
                    // else: acceptance event will clean up.
                }
                _ => unreachable!(),
            }
        }

        // Flush quiescence check (after drains and pumps above).
        if kind == IoKind::Write && self.node_quiescent(node_id) {
            let waiters = std::mem::take(&mut self.node_flush_waiters[node_id as usize]);
            for fio in waiters {
                out.sched.push((now, FsEvent::MetaDone { io: fio }));
            }
        }
    }

    /// Grant freed cache space to blocked writers, round-robin in
    /// RPC-sized chunks so concurrent writers make even progress.
    fn wake_blocked(&mut self, now: SimTime, node_id: NodeId, out: &mut FsOut) {
        let cache = self.cfg.cache_bytes;
        loop {
            let n = node_id as usize;
            let free = self.nodes[n].free_cache(cache);
            if free == 0 {
                return;
            }
            let Some(&front) = self.nodes[n].blocked.front() else {
                return;
            };
            let (take, fully, ret) = {
                let st = self.state_mut(front);
                let take = free.min(st.len - st.accepted);
                st.accepted += take;
                let ret = stretch_accept(st.granted_at, st.ingest_done.max(now), st.stretch);
                (take, st.accepted == st.len, ret)
            };
            self.nodes[n].add_dirty(now, take);
            if self.nodes[n].under_pressure(now, self.cfg.cache_bytes, self.cfg.pressure_frac) {
                self.nodes[n].note_pressure(now, self.cfg.pressure_hold);
            }
            if fully {
                self.nodes[n].blocked.pop_front();
                out.sched.push((ret, FsEvent::Accepted { io: front }));
                self.pump(now, front, out);
                // Loop: maybe more free space for the next blocked writer.
            } else {
                // Cache exhausted: rotate for round-robin fairness.
                self.pump(now, front, out);
                if let Some(x) = self.nodes[n].blocked.pop_front() {
                    self.nodes[n].blocked.push_back(x);
                }
                return;
            }
        }
    }

    fn release_token(&mut self, now: SimTime, node_id: NodeId, out: &mut FsOut) {
        if let Some(next) = self.nodes[node_id as usize].release(&mut self.rng) {
            self.grant(now, next, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_des::{Scheduler, Simulator, World};

    /// Minimal world that drives FsSim and records notifications.
    struct FsWorld {
        fs: FsSim,
        done: Vec<(SimTime, IoId, u32)>,
    }

    impl World for FsWorld {
        type Event = FsEvent;
        fn handle(&mut self, now: SimTime, ev: FsEvent, sched: &mut Scheduler<FsEvent>) {
            let mut out = FsOut::new();
            self.fs.handle(now, ev, &mut out);
            for (t, e) in out.sched {
                sched.at(t, e);
            }
            for FsNotify::Done { io, rank } in out.notify {
                self.done.push((now, io, rank));
            }
        }
    }

    fn world(cfg: FsConfig, nodes: u32) -> Simulator<FsWorld> {
        Simulator::new(FsWorld {
            fs: FsSim::new(cfg, nodes, 42),
            done: Vec::new(),
        })
    }

    fn submit(sim: &mut Simulator<FsWorld>, now: SimTime, req: IoReq) -> IoId {
        let mut out = FsOut::new();
        let io = sim.world.fs.submit(now, req, &mut out);
        for (t, e) in out.sched {
            sim.schedule(t, e);
        }
        for FsNotify::Done { io, rank } in out.notify {
            sim.world.done.push((now, io, rank));
        }
        io
    }

    fn req(rank: u32, node: NodeId, file: FileId, kind: IoKind, offset: u64, len: u64) -> IoReq {
        IoReq {
            rank,
            node,
            file,
            stream: rank as u64,
            kind,
            offset,
            len,
        }
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn single_write_completes_with_plausible_time() {
        let mut sim = world(FsConfig::tiny_test(), 1);
        let f = sim.world.fs.register_file(false);
        // 64 MB write, cache is 16 MB → drain-bound.
        let io = submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::Write, 0, 64 * MB),
        );
        sim.run();
        assert_eq!(sim.world.done.len(), 1);
        let (t, done_io, rank) = sim.world.done[0];
        assert_eq!(done_io, io);
        assert_eq!(rank, 0);
        // Fabric 400 MB/s: (64-16) MB must drain before acceptance: ≥ 0.12 s
        // and well under 10 s.
        let secs = t.as_secs_f64();
        assert!(secs > 0.1 && secs < 10.0, "{secs}");
        assert_eq!(sim.world.fs.stats().bytes_written, 64 * MB);
    }

    #[test]
    fn small_write_fits_cache_and_returns_at_ingest_speed() {
        let mut sim = world(FsConfig::tiny_test(), 1);
        let f = sim.world.fs.register_file(false);
        submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::Write, 0, 4 * MB),
        );
        sim.run();
        let (t, _, _) = sim.world.done[0];
        // 4 MB at 400 MB/s ingest ≈ 0.01 s, far faster than 4 MB at
        // fabric 400 MB/s + overheads would be with drain semantics.
        let secs = t.as_secs_f64();
        assert!(secs < 0.05, "{secs}");
        // Write-back still happened.
        sim.run();
        assert_eq!(sim.world.fs.node(0).dirty, 0);
    }

    #[test]
    fn read_completes_at_last_rpc() {
        let mut sim = world(FsConfig::tiny_test(), 1);
        let f = sim.world.fs.register_file(false);
        submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::Read, 0, 8 * MB),
        );
        sim.run();
        assert_eq!(sim.world.done.len(), 1);
        let (t, _, _) = sim.world.done[0];
        // 8 MB at ~100-200 MB/s effective — tens of ms.
        let secs = t.as_secs_f64();
        assert!(secs > 0.02 && secs < 2.0, "{secs}");
        assert_eq!(sim.world.fs.stats().bytes_read, 8 * MB);
    }

    #[test]
    fn flush_waits_for_writeback() {
        let mut sim = world(FsConfig::tiny_test(), 1);
        let f = sim.world.fs.register_file(false);
        submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::Write, 0, 4 * MB),
        );
        // Run until the write call returns (fast), then flush.
        sim.run_until(SimTime::from_secs_f64(0.02));
        assert!(sim.world.fs.node(0).dirty > 0, "write-back still pending");
        let now = sim.now();
        submit(&mut sim, now, req(0, 0, f, IoKind::Flush, 0, 0));
        sim.run();
        // Flush is the second completion and comes after drain.
        assert_eq!(sim.world.done.len(), 2);
        assert_eq!(sim.world.fs.node(0).dirty, 0);
        let flush_t = sim.world.done[1].0;
        assert!(flush_t > SimTime::from_secs_f64(0.02));
    }

    #[test]
    fn flush_on_quiescent_node_is_immediate() {
        let mut sim = world(FsConfig::tiny_test(), 1);
        let f = sim.world.fs.register_file(false);
        submit(&mut sim, SimTime::ZERO, req(0, 0, f, IoKind::Flush, 0, 0));
        sim.run();
        assert_eq!(sim.world.done.len(), 1);
        assert_eq!(sim.world.done[0].0, SimTime::ZERO);
    }

    #[test]
    fn metadata_ops_complete_and_count() {
        let mut sim = world(FsConfig::tiny_test(), 1);
        let f = sim.world.fs.register_file(true);
        submit(&mut sim, SimTime::ZERO, req(0, 0, f, IoKind::Open, 0, 0));
        submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::MetaRead, 0, 2048),
        );
        submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::MetaWrite, 0, 2048),
        );
        submit(&mut sim, SimTime::ZERO, req(0, 0, f, IoKind::Close, 0, 0));
        sim.run();
        assert_eq!(sim.world.done.len(), 4);
        assert_eq!(sim.world.fs.stats().meta_ops, 4);
    }

    #[test]
    fn shared_unaligned_writes_conflict_and_go_sync() {
        let mut cfg = FsConfig::tiny_test();
        cfg.cache_bytes = 1 << 30; // cache never the issue
        let mut sim = world(cfg, 2);
        let f = sim.world.fs.register_file(true);
        // Node 0 writes [0, 1.5MB); node 1 writes [1.5MB, 3MB): stripe 1 shared.
        submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::Write, 0, 3 * MB / 2),
        );
        sim.run();
        let now = sim.now();
        submit(
            &mut sim,
            now,
            req(4, 1, f, IoKind::Write, 3 * MB / 2, 3 * MB / 2),
        );
        sim.run();
        let locks = sim.world.fs.lock_stats();
        assert!(locks.contended >= 1, "boundary stripe must conflict");
        assert!(locks.revoked >= 1, "partial boundary stripe needs RMW");
        // Both writes are small unaligned shared-file writes: sync.
        assert_eq!(sim.world.fs.stats().sync_writes, 2);
    }

    #[test]
    fn aligned_shared_writes_do_not_conflict() {
        let mut sim = world(FsConfig::tiny_test(), 2);
        let f = sim.world.fs.register_file(true);
        submit(
            &mut sim,
            SimTime::ZERO,
            req(0, 0, f, IoKind::Write, 0, 2 * MB),
        );
        submit(
            &mut sim,
            SimTime::ZERO,
            req(4, 1, f, IoKind::Write, 2 * MB, 2 * MB),
        );
        sim.run();
        assert_eq!(sim.world.fs.lock_stats().contended, 0);
        assert_eq!(sim.world.fs.stats().sync_writes, 0);
    }

    #[test]
    fn strided_reads_under_pressure_degrade() {
        let mut cfg = FsConfig::tiny_test();
        cfg.cache_bytes = 8 * MB;
        cfg.pressure_frac = 0.25;
        let mut sim = world(cfg, 1);
        let f = sim.world.fs.register_file(false);
        // Keep the node dirty: a big buffered write that can't drain fast.
        submit(
            &mut sim,
            SimTime::ZERO,
            req(1, 0, f, IoKind::Write, 1000 * MB, 64 * MB),
        );
        // Strided read sequence on another stream (2 MB reads, 1 MB gaps),
        // issued while the write is still draining so the node is under
        // pressure when the strided mode engages.
        let f2 = sim.world.fs.register_file(false);
        for i in 0..6u64 {
            let r = IoReq {
                rank: 0,
                node: 0,
                file: f2,
                stream: 99,
                kind: IoKind::Read,
                offset: i * 3 * MB,
                len: 2 * MB,
            };
            submit(&mut sim, SimTime::ZERO, r);
        }
        sim.run();
        assert!(
            sim.world.fs.stats().degraded_reads >= 1,
            "stride + pressure must degrade ({} degraded)",
            sim.world.fs.stats().degraded_reads
        );
    }

    #[test]
    fn patched_config_never_degrades() {
        let mut cfg = FsConfig::tiny_test();
        cfg.readahead.strided_detection = false;
        cfg.cache_bytes = 8 * MB;
        cfg.pressure_frac = 0.25;
        let mut sim = world(cfg, 1);
        let f = sim.world.fs.register_file(false);
        submit(
            &mut sim,
            SimTime::ZERO,
            req(1, 0, f, IoKind::Write, 1000 * MB, 64 * MB),
        );
        let f2 = sim.world.fs.register_file(false);
        for i in 0..6u64 {
            let r = IoReq {
                rank: 0,
                node: 0,
                file: f2,
                stream: 99,
                kind: IoKind::Read,
                offset: i * 3 * MB,
                len: 2 * MB,
            };
            let now = sim.now();
            submit(&mut sim, now, r);
            sim.run();
        }
        assert_eq!(sim.world.fs.stats().degraded_reads, 0);
    }

    #[test]
    fn exclusive_discipline_staggers_completions() {
        let mut cfg = FsConfig::tiny_test();
        cfg.discipline_weights = [1.0, 0.0, 0.0]; // always exclusive
        cfg.cache_bytes = MB; // force drain-bound
        cfg.call_noise_sigma = 1e-6;
        cfg.ost_overhead_sigma = 1e-6;
        let mut sim = world(cfg, 1);
        sim.world.fs.new_phase();
        let f = sim.world.fs.register_file(false);
        for rank in 0..4u32 {
            submit(
                &mut sim,
                SimTime::ZERO,
                req(rank, 0, f, IoKind::Write, rank as u64 * 64 * MB, 32 * MB),
            );
        }
        sim.run();
        assert_eq!(sim.world.done.len(), 4);
        let mut times: Vec<f64> = sim.world.done.iter().map(|d| d.0.as_secs_f64()).collect();
        times.sort_by(f64::total_cmp);
        // Serialized: roughly arithmetic progression T, 2T, 3T, 4T —
        // the 4th should be ≈4× the 1st (tolerance for cache head start).
        let ratio = times[3] / times[0];
        assert!(ratio > 2.5, "expected staggering, got {times:?}");
    }

    #[test]
    fn fair_discipline_finishes_together() {
        let mut cfg = FsConfig::tiny_test();
        cfg.discipline_weights = [0.0, 0.0, 1.0];
        cfg.cache_bytes = MB;
        cfg.call_noise_sigma = 1e-6;
        cfg.ost_overhead_sigma = 1e-6;
        let mut sim = world(cfg, 1);
        sim.world.fs.new_phase();
        let f = sim.world.fs.register_file(false);
        for rank in 0..4u32 {
            submit(
                &mut sim,
                SimTime::ZERO,
                req(rank, 0, f, IoKind::Write, rank as u64 * 64 * MB, 32 * MB),
            );
        }
        sim.run();
        let mut times: Vec<f64> = sim.world.done.iter().map(|d| d.0.as_secs_f64()).collect();
        times.sort_by(f64::total_cmp);
        let spread = (times[3] - times[0]) / times[3];
        assert!(
            spread < 0.25,
            "fair sharing should finish together: {times:?}"
        );
    }

    #[test]
    fn utilization_breaks_down_the_run() {
        let mut sim = world(FsConfig::tiny_test(), 2);
        let f = sim.world.fs.register_file(false);
        for rank in 0..8u32 {
            submit(
                &mut sim,
                SimTime::ZERO,
                req(
                    rank,
                    rank % 2,
                    f,
                    IoKind::Write,
                    rank as u64 * 64 * MB,
                    8 * MB,
                ),
            );
        }
        let end = sim.run();
        let u = sim.world.fs.utilization(end);
        assert_eq!(u.ost_busy_s.len(), 4);
        assert_eq!(u.ost_bytes.iter().sum::<u64>(), 8 * 8 * MB);
        assert!(u.fabric_busy_s > 0.0);
        assert!(u.mean_ost_utilization() > 0.0);
        assert!(u.node_dirty_peak.iter().all(|&p| p > 0));
    }

    #[test]
    fn pressure_hold_keeps_reads_degrading_after_drain() {
        // A node crosses the dirty threshold once; the hold window keeps
        // a later strided read degraded even though dirty has drained.
        let mut cfg = FsConfig::tiny_test();
        cfg.cache_bytes = 8 * MB;
        cfg.pressure_frac = 0.25;
        cfg.pressure_hold = 1000.0; // effectively forever for this test
        let mut sim = world(cfg, 1);
        let f = sim.world.fs.register_file(false);
        // Cross the threshold, then let everything drain.
        submit(
            &mut sim,
            SimTime::ZERO,
            req(1, 0, f, IoKind::Write, 1000 * MB, 16 * MB),
        );
        sim.run();
        assert_eq!(sim.world.fs.node(0).dirty, 0, "drained");
        // Strided reads issued long after: still under held pressure.
        let f2 = sim.world.fs.register_file(false);
        let t0 = sim.now();
        for i in 0..5u64 {
            let r = IoReq {
                rank: 0,
                node: 0,
                file: f2,
                stream: 42,
                kind: IoKind::Read,
                offset: i * 3 * MB,
                len: 2 * MB,
            };
            submit(&mut sim, t0, r);
        }
        sim.run();
        assert!(
            sim.world.fs.stats().degraded_reads > 0,
            "hold window must keep the pressure verdict alive"
        );
    }

    #[test]
    fn sticky_degradation_survives_pressure_loss_until_stride_breaks() {
        let mut cfg = FsConfig::tiny_test();
        cfg.cache_bytes = 8 * MB;
        cfg.pressure_frac = 0.25;
        cfg.pressure_hold = 0.0;
        let mut sim = world(cfg, 1);
        let fw = sim.world.fs.register_file(false);
        let fr = sim.world.fs.register_file(false);
        // Build the stride while pressured (concurrent big write).
        submit(
            &mut sim,
            SimTime::ZERO,
            req(1, 0, fw, IoKind::Write, 1000 * MB, 64 * MB),
        );
        for i in 0..4u64 {
            let r = IoReq {
                rank: 0,
                node: 0,
                file: fr,
                stream: 9,
                kind: IoKind::Read,
                offset: i * 3 * MB,
                len: 2 * MB,
            };
            submit(&mut sim, SimTime::ZERO, r);
        }
        sim.run();
        let degraded_during = sim.world.fs.stats().degraded_reads;
        assert!(degraded_during > 0, "stride + pressure degrades");
        // Continue the stride with zero pressure: stickiness keeps it
        // degraded...
        let t = sim.now();
        let r = IoReq {
            rank: 0,
            node: 0,
            file: fr,
            stream: 9,
            kind: IoKind::Read,
            offset: 4 * 3 * MB,
            len: 2 * MB,
        };
        submit(&mut sim, t, r);
        sim.run();
        assert!(sim.world.fs.stats().degraded_reads > degraded_during);
        // ...until a backwards seek resets the stride-run.
        let after_sticky = sim.world.fs.stats().degraded_reads;
        let t = sim.now();
        for (off, len) in [(0u64, MB), (2 * MB, MB), (4 * MB, MB)] {
            let r = IoReq {
                rank: 0,
                node: 0,
                file: fr,
                stream: 9,
                kind: IoKind::Read,
                offset: off,
                len,
            };
            submit(&mut sim, t, r);
            sim.run();
        }
        assert_eq!(
            sim.world.fs.stats().degraded_reads,
            after_sticky,
            "reset stride on an unpressured node must not degrade"
        );
    }

    #[test]
    fn grant_stretch_never_speeds_up_acceptance() {
        // With a huge grant-noise sigma, buffered writes only get slower;
        // sync paths and totals stay conserved.
        let mut base = FsConfig::tiny_test();
        base.grant_noise_sigma = 1e-9;
        let mut noisy = FsConfig::tiny_test();
        noisy.grant_noise_sigma = 1.0;
        let run_one = |cfg: FsConfig| {
            let mut sim = world(cfg, 1);
            let f = sim.world.fs.register_file(false);
            submit(
                &mut sim,
                SimTime::ZERO,
                req(0, 0, f, IoKind::Write, 0, 64 * MB),
            );
            sim.run();
            sim.world.done[0].0.as_secs_f64()
        };
        let quiet = run_one(base);
        let loud = run_one(noisy);
        assert!(
            loud >= quiet * 0.99,
            "stretch is a pure delay: {quiet} vs {loud}"
        );
    }

    #[test]
    fn byte_conservation_across_many_ios() {
        let mut sim = world(FsConfig::tiny_test(), 2);
        let f = sim.world.fs.register_file(false);
        let mut expect_w = 0;
        let mut expect_r = 0;
        for i in 0..10u64 {
            let node = (i % 2) as u32;
            submit(
                &mut sim,
                SimTime::ZERO,
                req(i as u32, node, f, IoKind::Write, i * 100 * MB, 3 * MB),
            );
            expect_w += 3 * MB;
        }
        sim.run();
        for i in 0..10u64 {
            let node = (i % 2) as u32;
            let now = sim.now();
            submit(
                &mut sim,
                now,
                req(i as u32, node, f, IoKind::Read, i * 100 * MB, 3 * MB),
            );
            expect_r += 3 * MB;
        }
        sim.run();
        let st = sim.world.fs.stats();
        assert_eq!(st.bytes_written, expect_w);
        assert_eq!(st.bytes_read, expect_r);
        assert_eq!(sim.world.done.len(), 20);
        // OST bytes match total moved (writes drain fully; reads fetched).
        let ost_bytes: u64 = (0..4).map(|i| sim.world.fs.ost(i).bytes()).sum();
        assert_eq!(ost_bytes, expect_w + expect_r);
        assert_eq!(sim.world.fs.node(0).dirty + sim.world.fs.node(1).dirty, 0);
    }
}
