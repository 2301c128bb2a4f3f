//! Sharded parallel discrete-event execution of a job.
//!
//! The classic engine ([`crate::world`]) runs one global event loop; at
//! 100k ranks that serializes minutes of wall time. This module shards
//! the simulation **by component**: every compute node is its own
//! conservative mini-DES (program stepping, page cache, NIC/ingest
//! service, read-ahead, fault lanes), and the shared server plane
//! (fabric, OSTs, MDS, DLM, extent locks) plus MPI coordination
//! (barriers, send/recv matching) run in a serial coordinator. Execution
//! proceeds in **rounds**:
//!
//! 1. *Node phase* (parallel over worker shards): each node with pending
//!    deliveries applies its inbox and drains its local event heap
//!    strictly below a conservative horizon — the earliest **reply
//!    floor** (issue time plus a deterministic lower bound on the reply
//!    delay) of any request whose reply has not yet arrived. Every
//!    reply lands at or after its floor, so no event a node processes
//!    can be invalidated by a later delivery: each node is a causally
//!    correct DES on its own timeline, running `floor`-deep past its
//!    outstanding requests.
//! 2. *Coordinator* (serial): matches point-to-point messages, releases
//!    barriers, and serves server requests in deterministic
//!    `(time, node, seq)` order through eager completion-time service
//!    centers — but only requests strictly below the round's
//!    **conservative lookahead bound** (LBTS: the minimum over deferred
//!    requests' reply floors, undelivered inbox timestamps, and every
//!    node's next local event). Later requests wait in a pool, so the
//!    shared FIFO centers are reserved in true global time order even
//!    though nodes run ahead of one another across rounds. Replies land
//!    in per-node inboxes for the next round.
//!
//! ## Determinism
//!
//! The shard count is a *worker-thread* count, nothing else. All state
//! and RNG lanes are keyed by stable entity identity
//! ([`pio_des::SimRng::keyed`] on the node id, coordinator, or server
//! plane), node phases share no mutable state, and the coordinator
//! consumes node outputs in node-index order — so the run is
//! bit-identical for any shard count, including `1`, by construction.
//!
//! ## Model fidelity
//!
//! The server plane works at the classic engine's granularity: one
//! fabric + OST RPC per stripe extent, the full [`pio_fs::Ost`] model
//! (stochastic overhead, stream-switch and read/write turnaround
//! penalties, drawn in served order from the server lane), per-extent
//! fault hooks, and LBTS-ordered reservations. Remaining divergences
//! from the classic engine (see DESIGN.md §15): RNG lanes are split by
//! component rather than shared, extents enter the NIC unwindowed at
//! issue time, lock conflicts cost one DLM round per chunk, reads
//! degrade only on submit-time pressure, and degraded-read page costs
//! land as one client-side term at completion. The statistical shape
//! (cache plateaus, discipline modes, stragglers, lock storms, metadata
//! shoulders) is preserved; the attribution corpus and the fault matrix
//! verify that verdicts survive the swap.

use crate::program::{Job, Op};
use crate::runner::{RunConfig, RunError, RunReport};
use crate::world::MpiConfig;
use pio_des::{
    EventQueue, FxHashMap, FxHashSet, MultiServiceCenter, ServiceCenter, SimRng, SimSpan, SimTime,
};
use pio_fault::{FaultPlan, PlanInjector};
use pio_fs::fault::FaultInjector;
use pio_fs::node::Node;
use pio_fs::readahead::{ReadMode, ReadaheadTracker};
use pio_fs::sim::UtilizationReport;
use pio_fs::{Extent, FsConfig, FsStats, LockStats, Ost, StripeLayout};
use pio_trace::{CallKind, FdTable, Record, RecordSink, Trace, TraceMeta};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// RNG lane components (see [`SimRng::keyed`]): one lane per node, one
/// for the coordinator, one for the server plane, plus fault-injector
/// variants — draws depend on identity, never on sharding.
const LANE_NODE: u64 = 0x5348_4E44;
const LANE_COORD: u64 = 0x5348_4352;
const LANE_SERVER: u64 = 0x5348_5356;
const LANE_NODE_FAULT: u64 = 0x5348_4E46;
const LANE_SERVER_FAULT: u64 = 0x5348_5346;

type IoId = u64;

/// How the server plane answers a data request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    /// One `Done` at the last batch completion (reads, sync writes).
    Done,
    /// One `Drain` per batch as it lands (buffered write-back).
    Drain,
}

/// One stripe RPC of a data I/O, matching the classic engine's per-RPC
/// granularity: NIC completion (fabric arrival), extra OST service
/// demand (RAID partial-stripe read-modify-write), and client-visible
/// extra latency (drop/retry + straggler NIC) — the latter two drawn on
/// the node's lanes at issue time.
#[derive(Debug, Clone, Copy)]
struct Batch {
    ost: u32,
    bytes: u64,
    t_nic: SimTime,
    svc_extra: SimSpan,
    client_extra: SimSpan,
}

/// Extent-lock acquisition for a write chunk: stripes `[s0, s1]` of
/// `file`, with partial-stripe flags at the true I/O boundaries.
#[derive(Debug, Clone, Copy)]
struct LockReq {
    file: u32,
    s0: u64,
    s1: u64,
    lo_partial: bool,
    hi_partial: bool,
}

/// A request from a node shard to the server plane.
#[derive(Debug)]
enum RReqKind {
    /// MDS transaction (open/close/stat).
    Meta { demand: SimSpan },
    /// Synchronous metadata write: MDS then the OST of its offset.
    MetaWrite {
        demand: SimSpan,
        ost: u32,
        stream: u64,
        bytes: u64,
    },
    /// Data transfer: per-extent fabric + OST RPC chains.
    Data {
        is_read: bool,
        stream: u64,
        noise: f64,
        /// Client pipeline window: extent `k` enters the fabric no
        /// earlier than extent `k - window` completed (the classic
        /// engine's in-flight RPC cap, which compounds slow-server
        /// delays across one I/O's extents).
        window: u32,
        batches: Vec<Batch>,
        /// Client-side serialized extra added to the final completion
        /// (degraded-read page fetches).
        io_extra: SimSpan,
        lock: Option<LockReq>,
        reply: Reply,
    },
}

#[derive(Debug)]
struct RReq {
    node: u32,
    io: IoId,
    t: SimTime,
    /// Per-node emission counter: `(t, node, seq)` totally orders the
    /// server plane's work, independent of shard scheduling.
    seq: u64,
    /// Deterministic lower bound on the reply's delay past `t` (pure
    /// bandwidth/demand terms, no queueing). The run loop's lookahead:
    /// no event caused by this request can precede `t + floor`.
    floor: SimSpan,
    kind: RReqKind,
}

/// A point-to-point send completed by a node this round.
#[derive(Debug, Clone, Copy)]
struct MsgSend {
    from: u32,
    to: u32,
    done: SimTime,
    bytes: u64,
}

/// A blocking receive issued by a node this round (global rank).
#[derive(Debug, Clone, Copy)]
struct RecvReq {
    from: u32,
    rank: u32,
    issue: SimTime,
}

/// A reply delivered into a node's inbox for the next round.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    /// Server-side completion of I/O `io`.
    Done { io: IoId, t: SimTime },
    /// One write-back batch of `io` drained `bytes` at `t`.
    Drain { io: IoId, t: SimTime, bytes: u64 },
    /// Rank resumes after a barrier release (or the initial start).
    Resume { r: u32, t: SimTime, phase: u32 },
    /// Blocking receive completed.
    RecvDone { r: u32, t: SimTime, bytes: u64 },
    /// Barrier released: resample the node's service discipline.
    Resample { t: SimTime },
}

impl Delivery {
    /// When this delivery takes effect on its node's timeline.
    fn t(&self) -> SimTime {
        match *self {
            Delivery::Done { t, .. }
            | Delivery::Drain { t, .. }
            | Delivery::Resume { t, .. }
            | Delivery::RecvDone { t, .. }
            | Delivery::Resample { t } => t,
        }
    }
}

/// Per-node delivery queues plus the list of nodes touched this round,
/// so the run loop can drain and re-activate in O(deliveries) instead
/// of scanning every node's (overwhelmingly empty) queue each round.
struct Inboxes {
    v: Vec<Vec<Delivery>>,
    touched: Vec<usize>,
    /// Earliest delivery time pushed since the last drain; read at the
    /// LBTS point (before server replies are pushed) as the round's
    /// undelivered-inbox bound.
    min_t: SimTime,
}

impl Inboxes {
    fn new(n_nodes: usize) -> Self {
        Inboxes {
            v: (0..n_nodes).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            min_t: SimTime::MAX,
        }
    }

    fn push(&mut self, node: usize, d: Delivery) {
        self.min_t = self.min_t.min(d.t());
        self.touched.push(node);
        self.v[node].push(d);
    }
}

/// Node-local events (per-node heap).
#[derive(Debug, Clone, Copy)]
enum NEv {
    Resume(u32),
    ResumeBarrier(u32, u32),
    ComputeDone(u32),
    AcceptDone(IoId),
    ExtDone(IoId),
    RecvDone(u32, u64),
    Drain(IoId, u64),
    FlushDone(u32),
    Resample,
}

#[derive(Debug, Clone, Copy)]
struct CurOp {
    call: CallKind,
    fd: i32,
    offset: u64,
    bytes: u64,
    open_file: Option<u32>,
}

struct RankSt {
    pc: usize,
    fdt: FdTable,
    op_start: SimTime,
    cur: Option<CurOp>,
    finished: bool,
    phase: u32,
}

/// An in-flight I/O on a node shard.
struct IoSt {
    r: u32,
    file: u32,
    offset: u64,
    len: u64,
    stream: u64,
    noise: f64,
    stretch: f64,
    severity: u32,
    pressure: bool,
    accepted: u64,
    granted_at: SimTime,
    ingest_done: SimTime,
    sync: bool,
    /// Outstanding write-back batches.
    wb_out: u32,
    /// The call already returned to the application.
    returned: bool,
    /// Data I/O (holds a node token; meta ops bypass it).
    is_data: bool,
    is_read: bool,
}

/// Read-only run context shared by all node shards.
struct Env<'a> {
    job: &'a Job,
    fs: &'a FsConfig,
    mpi: &'a MpiConfig,
    layouts: Vec<StripeLayout>,
    shared: Vec<bool>,
}

/// One compute node as a conservative mini-DES.
struct NodeSim {
    id: u32,
    /// First global rank on this node (ranks are contiguous per node).
    rank0: u32,
    ranks: Vec<RankSt>,
    node: Node,
    rng: SimRng,
    injector: Option<PlanInjector>,
    readahead: ReadaheadTracker,
    degraded_streams: FxHashSet<u64>,
    heap: EventQueue<NEv>,
    ios: FxHashMap<IoId, IoSt>,
    next_io: IoId,
    records: Vec<Record>,
    stats: FsStats,
    /// Outstanding write-back batches node-wide (flush quiescence).
    wr_out: u32,
    flush_waiters: Vec<u32>,
    /// Issue times of server requests emitted this round; together with
    /// [`NodeSim::base_horizon`] they form the conservative horizon.
    /// Cleared at round start (prior requests move to the run loop's
    /// deferral pool, which sets `base_horizon`).
    r_pending: BTreeSet<(SimTime, u64)>,
    /// Earliest issue time of this node's requests still deferred in the
    /// run loop's pool (awaiting the global lookahead bound). Set
    /// serially before each round; `SimTime::MAX` when none.
    base_horizon: SimTime,
    inbox: Vec<Delivery>,
    out_r: Vec<RReq>,
    out_send: Vec<MsgSend>,
    out_recv: Vec<RecvReq>,
    out_arrival: Vec<(u32, SimTime)>,
    finished: u32,
    processed: u64,
    max_t: SimTime,
    req_seq: u64,
    pend_tok: u64,
    extent_scratch: Vec<Extent>,
}

/// Stretch a buffered write's acceptance interval by its grant-pacing
/// factor (same formula as the classic engine).
fn stretch_accept(granted: SimTime, done: SimTime, stretch: f64) -> SimTime {
    granted + done.since(granted).scale(stretch)
}

/// Bytes to accept from a blocked/partial write given `free` cache,
/// rounded **down to a stripe boundary** when the I/O cannot finish in
/// this grant — so write-back chunks keep full-stripe extents and an
/// aligned IOR never pays artificial RAID partial-stripe penalties at
/// arbitrary cache-chunk edges.
fn aligned_take(io_offset: u64, io_len: u64, accepted: u64, free: u64, stripe: u64) -> u64 {
    let remaining = io_len - accepted;
    let take = free.min(remaining);
    if take == remaining {
        return take;
    }
    let pos = io_offset + accepted;
    let end = pos + take;
    let aligned_end = end - (end % stripe);
    if aligned_end > pos {
        aligned_end - pos
    } else {
        take // sub-stripe trickle: better than no progress
    }
}

impl NodeSim {
    fn new(id: u32, total_ranks: u32, tpn: u32, seed: u64, plan: Option<&FaultPlan>) -> Self {
        let rank0 = id * tpn;
        let nranks = total_ranks.saturating_sub(rank0).min(tpn);
        let ranks = (0..nranks)
            .map(|_| RankSt {
                pc: 0,
                fdt: FdTable::new(),
                op_start: SimTime::ZERO,
                cur: None,
                finished: false,
                phase: 0,
            })
            .collect();
        NodeSim {
            id,
            rank0,
            ranks,
            node: Node::new(tpn),
            rng: SimRng::keyed(seed, LANE_NODE, id as u64),
            injector: plan.map(|p| p.keyed_injector(seed, LANE_NODE_FAULT, id as u64)),
            readahead: ReadaheadTracker::new(),
            degraded_streams: FxHashSet::default(),
            heap: EventQueue::new(),
            ios: FxHashMap::default(),
            next_io: 1,
            records: Vec::new(),
            stats: FsStats::default(),
            wr_out: 0,
            flush_waiters: Vec::new(),
            r_pending: BTreeSet::new(),
            base_horizon: SimTime::MAX,
            inbox: Vec::new(),
            out_r: Vec::new(),
            out_send: Vec::new(),
            out_recv: Vec::new(),
            out_arrival: Vec::new(),
            finished: 0,
            processed: 0,
            max_t: SimTime::ZERO,
            req_seq: 0,
            pend_tok: 0,
            extent_scratch: Vec::new(),
        }
    }

    fn stream_of(&self, r: u32, fd: i32) -> u64 {
        ((self.rank0 + r) as u64) << 20 | (fd.max(0) as u64)
    }

    fn fd_of(&self, r: u32, file: u32) -> i32 {
        let fdt = &self.ranks[r as usize].fdt;
        for fd in 3..(3 + fdt.opened_total() as i32) {
            if let Some(of) = fdt.get(fd) {
                if of.file == file {
                    return fd;
                }
            }
        }
        -1
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        r: u32,
        call: CallKind,
        fd: i32,
        offset: u64,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        self.max_t = self.max_t.max(end);
        self.records.push(Record {
            rank: self.rank0 + r,
            call,
            fd,
            offset,
            bytes,
            start_ns: start.nanos(),
            end_ns: end.nanos(),
            phase: self.ranks[r as usize].phase,
        });
    }

    /// Emit a server request and register its *reply floor* — issue time
    /// plus a lower bound on the reply delay — in the horizon. `floor`
    /// must lower-bound the reply delay; a strictly positive guard keeps
    /// the run loop's lookahead advancing even for zero-demand requests.
    fn send_req(&mut self, t: SimTime, io: IoId, floor: SimSpan, kind: RReqKind) {
        let seq = self.req_seq;
        self.req_seq += 1;
        let floor = floor.max(SimSpan::from_secs_f64(1e-9));
        self.out_r.push(RReq {
            node: self.id,
            io,
            t,
            seq,
            floor,
            kind,
        });
        let tok = self.pend_tok;
        self.pend_tok += 1;
        self.r_pending.insert((t + floor, tok));
    }

    /// The conservative horizon: the earliest *reply floor* of any
    /// not-yet-answered server request (this round's emissions plus the
    /// pool-deferred `base_horizon`). Every reply lands at or after its
    /// floor, so events strictly before the horizon can never be
    /// invalidated — this is the engine's lookahead, and it is what lets
    /// a node run `floor`-deep past an outstanding request instead of
    /// stalling at the issue time (lockstep). Blocking receives park
    /// only their own rank — they never gate the node (the matching
    /// send may be rounds away, or on this very node), and their
    /// completions are ordinary next-round deliveries.
    fn horizon(&self) -> SimTime {
        self.r_pending
            .first()
            .map(|&(t, _)| t)
            .unwrap_or(SimTime::MAX)
            .min(self.base_horizon)
    }

    fn quiescent(&self) -> bool {
        self.wr_out == 0 && self.node.dirty == 0 && self.node.blocked.is_empty()
    }

    fn apply_inbox(&mut self) {
        let inbox = std::mem::take(&mut self.inbox);
        for d in inbox {
            match d {
                Delivery::Done { io, t } => {
                    let key = 2 + self.ios[&io].r as u64;
                    self.heap.push_keyed(t, key, NEv::ExtDone(io));
                }
                Delivery::Drain { io, t, bytes } => {
                    self.heap.push_keyed(t, 1, NEv::Drain(io, bytes));
                }
                Delivery::Resume { r, t, phase } => {
                    self.heap
                        .push_keyed(t, 2 + r as u64, NEv::ResumeBarrier(r, phase));
                }
                Delivery::RecvDone { r, t, bytes } => {
                    self.heap
                        .push_keyed(t, 2 + r as u64, NEv::RecvDone(r, bytes));
                }
                Delivery::Resample { t } => {
                    self.heap.push_keyed(t, 0, NEv::Resample);
                }
            }
        }
    }

    /// One round's node phase: apply deliveries, then drain the heap
    /// strictly below the conservative horizon (a reply may land exactly
    /// *at* a floor, so an event at the horizon could still be preempted
    /// by a same-time, lower-key delivery).
    fn node_phase(&mut self, env: &Env) {
        self.r_pending.clear();
        self.apply_inbox();
        while let Some(t) = self.heap.peek_time() {
            if t >= self.horizon() {
                break;
            }
            let (t, ev) = self.heap.pop().expect("peeked event");
            self.processed += 1;
            self.max_t = self.max_t.max(t);
            self.handle(t, ev, env);
        }
    }
}

impl NodeSim {
    fn handle(&mut self, t: SimTime, ev: NEv, env: &Env) {
        match ev {
            NEv::Resample => {
                self.node.resample(
                    &mut self.rng,
                    &env.fs.discipline_weights,
                    env.fs.tasks_per_node,
                );
            }
            NEv::ResumeBarrier(r, phase) => {
                self.ranks[r as usize].phase = phase;
                self.step_rank(t, r, env);
            }
            NEv::Resume(r) => self.step_rank(t, r, env),
            NEv::ComputeDone(r) => self.complete_op(t, r, 0, env),
            NEv::RecvDone(r, bytes) => self.complete_op(t, r, bytes, env),
            NEv::AcceptDone(io) => {
                let (r, cleanup) = {
                    let st = self.ios.get_mut(&io).expect("accepted io");
                    st.returned = true;
                    (st.r, st.wb_out == 0)
                };
                if cleanup {
                    self.ios.remove(&io);
                }
                self.release_token(t, env);
                self.complete_op(t, r, 0, env);
            }
            NEv::ExtDone(io) => {
                let st = self.ios.remove(&io).expect("ext io");
                if st.is_data {
                    self.release_token(t, env);
                }
                self.complete_op(t, st.r, 0, env);
            }
            NEv::Drain(io, bytes) => {
                self.node.drain_dirty(t, bytes);
                self.wr_out -= 1;
                let cleanup = {
                    let st = self.ios.get_mut(&io).expect("drain io");
                    st.wb_out -= 1;
                    st.wb_out == 0 && st.returned
                };
                if cleanup {
                    self.ios.remove(&io);
                }
                self.wake_blocked(t, env);
                if self.quiescent() && !self.flush_waiters.is_empty() {
                    let waiters = std::mem::take(&mut self.flush_waiters);
                    for r in waiters {
                        self.heap.push_keyed(t, 2 + r as u64, NEv::FlushDone(r));
                    }
                }
            }
            NEv::FlushDone(r) => self.complete_op(t, r, 0, env),
        }
    }

    /// The rank's blocking call returned: record it and keep stepping.
    /// `bytes_override` carries receive sizes (recorded bytes of a recv
    /// depend on which side blocked, decided by the coordinator).
    fn complete_op(&mut self, t: SimTime, r: u32, bytes_override: u64, env: &Env) {
        let cur = self.ranks[r as usize]
            .cur
            .take()
            .expect("completion without pending op");
        let start = self.ranks[r as usize].op_start;
        let mut fd = cur.fd;
        if let Some(file) = cur.open_file {
            fd = self.ranks[r as usize].fdt.open(file, format!("file{file}"));
        }
        if cur.call == CallKind::Close {
            self.ranks[r as usize].fdt.close(cur.fd);
        }
        let bytes = if cur.call == CallKind::Recv {
            bytes_override
        } else {
            cur.bytes
        };
        self.record(r, cur.call, fd, cur.offset, bytes, start, t);
        self.ranks[r as usize].pc += 1;
        self.step_rank(t, r, env);
    }

    fn release_token(&mut self, t: SimTime, env: &Env) {
        if let Some(next) = self.node.release(&mut self.rng) {
            self.grant_io(t, next, env);
        }
    }

    /// Execute ops for local rank `r` starting at its pc until one blocks.
    fn step_rank(&mut self, t: SimTime, r: u32, env: &Env) {
        loop {
            let ri = r as usize;
            let pc = self.ranks[ri].pc;
            let prog = &env.job.programs[(self.rank0 + r) as usize];
            let Some(op) = prog.ops.get(pc).cloned() else {
                if !self.ranks[ri].finished {
                    self.ranks[ri].finished = true;
                    self.finished += 1;
                }
                return;
            };
            match op {
                Op::Seek { file, offset } => {
                    let fd = self.fd_of(r, file);
                    self.ranks[ri].fdt.seek(fd, offset);
                    self.record(r, CallKind::Seek, fd, offset, 0, t, t);
                    self.ranks[ri].pc += 1;
                }
                Op::Open { file } => {
                    self.submit_meta(t, r, file, CallKind::Open, -1, 0, 0, Some(file), env);
                    return;
                }
                Op::Close { file } => {
                    let fd = self.fd_of(r, file);
                    self.readahead.close_stream(self.stream_of(r, fd));
                    self.submit_meta(t, r, file, CallKind::Close, fd, 0, 0, None, env);
                    return;
                }
                Op::MetaRead {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(r, file);
                    self.submit_meta(t, r, file, CallKind::MetaRead, fd, offset, bytes, None, env);
                    return;
                }
                Op::MetaWrite {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(r, file);
                    self.submit_meta(
                        t,
                        r,
                        file,
                        CallKind::MetaWrite,
                        fd,
                        offset,
                        bytes,
                        None,
                        env,
                    );
                    return;
                }
                Op::Write { file, bytes } => {
                    let fd = self.fd_of(r, file);
                    let offset = self.ranks[ri].fdt.advance(fd, bytes).unwrap_or(0);
                    self.submit_data(t, r, false, file, offset, bytes, fd, env);
                    return;
                }
                Op::WriteAt {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(r, file);
                    self.submit_data(t, r, false, file, offset, bytes, fd, env);
                    return;
                }
                Op::Read { file, bytes } => {
                    let fd = self.fd_of(r, file);
                    let offset = self.ranks[ri].fdt.advance(fd, bytes).unwrap_or(0);
                    self.submit_data(t, r, true, file, offset, bytes, fd, env);
                    return;
                }
                Op::ReadAt {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(r, file);
                    self.submit_data(t, r, true, file, offset, bytes, fd, env);
                    return;
                }
                Op::Flush { file } => {
                    let fd = self.fd_of(r, file);
                    self.stats.flushes += 1;
                    if self.quiescent() {
                        self.record(r, CallKind::Flush, fd, 0, 0, t, t);
                        self.ranks[ri].pc += 1;
                    } else {
                        self.ranks[ri].op_start = t;
                        self.ranks[ri].cur = Some(CurOp {
                            call: CallKind::Flush,
                            fd,
                            offset: 0,
                            bytes: 0,
                            open_file: None,
                        });
                        self.flush_waiters.push(r);
                        return;
                    }
                }
                Op::Compute { span } => {
                    self.ranks[ri].op_start = t;
                    self.ranks[ri].cur = Some(CurOp {
                        call: CallKind::Compute,
                        fd: -1,
                        offset: 0,
                        bytes: 0,
                        open_file: None,
                    });
                    self.heap
                        .push_keyed(t + span, 2 + r as u64, NEv::ComputeDone(r));
                    return;
                }
                Op::Barrier => {
                    self.out_arrival.push((self.rank0 + r, t));
                    self.ranks[ri].pc += 1;
                    return;
                }
                Op::Send { to, bytes } => {
                    let mut cost = SimSpan::from_secs_f64(env.mpi.latency)
                        + SimSpan::for_bytes(bytes, env.mpi.bw);
                    if let Some(f) = self.injector.as_mut() {
                        cost += f.msg_drop_delay(t);
                    }
                    let done = t + cost;
                    self.record(r, CallKind::Send, -1, 0, bytes, t, done);
                    self.ranks[ri].pc += 1;
                    self.out_send.push(MsgSend {
                        from: self.rank0 + r,
                        to,
                        done,
                        bytes,
                    });
                    self.heap.push_keyed(done, 2 + r as u64, NEv::Resume(r));
                    return;
                }
                Op::Recv { from } => {
                    self.ranks[ri].op_start = t;
                    self.ranks[ri].cur = Some(CurOp {
                        call: CallKind::Recv,
                        fd: -1,
                        offset: 0,
                        bytes: 0,
                        open_file: None,
                    });
                    self.out_recv.push(RecvReq {
                        from,
                        rank: self.rank0 + r,
                        issue: t,
                    });
                    return;
                }
            }
        }
    }

    /// Park the rank on a metadata transaction through the server plane.
    #[allow(clippy::too_many_arguments)]
    fn submit_meta(
        &mut self,
        t: SimTime,
        r: u32,
        file: u32,
        call: CallKind,
        fd: i32,
        offset: u64,
        bytes: u64,
        open_file: Option<u32>,
        env: &Env,
    ) {
        self.stats.meta_ops += 1;
        let median = if call == CallKind::MetaWrite {
            env.fs.meta_sync_median
        } else {
            env.fs.mds_latency_median
        };
        let demand = SimSpan::from_secs_f64(self.rng.lognormal(median, env.fs.meta_sigma));
        let (kind, floor) = if call == CallKind::MetaWrite {
            let layout = env.layouts[file as usize];
            let ost = layout.ost_of_stripe(layout.stripe_of(offset)) as u32;
            (
                RReqKind::MetaWrite {
                    demand,
                    ost,
                    stream: self.stream_of(r, fd),
                    bytes,
                },
                demand + SimSpan::for_bytes(bytes, env.fs.ost_bw),
            )
        } else {
            (RReqKind::Meta { demand }, demand)
        };
        let io = self.next_io;
        self.next_io += 1;
        self.ios.insert(
            io,
            IoSt {
                r,
                file,
                offset,
                len: bytes,
                stream: self.stream_of(r, fd),
                noise: 1.0,
                stretch: 1.0,
                severity: 0,
                pressure: false,
                accepted: 0,
                granted_at: t,
                ingest_done: SimTime::ZERO,
                sync: false,
                wb_out: 0,
                returned: false,
                is_data: false,
                is_read: false,
            },
        );
        self.ranks[r as usize].op_start = t;
        self.ranks[r as usize].cur = Some(CurOp {
            call,
            fd,
            offset,
            bytes,
            open_file,
        });
        self.send_req(t, io, floor, kind);
    }

    /// Submit a data I/O: classify, draw per-call noise, take the node
    /// token (or queue), then build the server request on grant.
    #[allow(clippy::too_many_arguments)]
    fn submit_data(
        &mut self,
        t: SimTime,
        r: u32,
        is_read: bool,
        file: u32,
        offset: u64,
        len: u64,
        fd: i32,
        env: &Env,
    ) {
        let stream = self.stream_of(r, fd);
        let severity = if is_read {
            let mode = self
                .readahead
                .observe_read(&env.fs.readahead, stream, offset, len);
            if mode == ReadMode::Normal {
                self.degraded_streams.remove(&stream);
            }
            match mode {
                ReadMode::Strided { severity } => severity,
                ReadMode::Normal => 0,
            }
        } else {
            0
        };
        let noise = self.rng.lognormal(1.0, env.fs.call_noise_sigma);
        let pressure = self
            .node
            .under_pressure(t, env.fs.cache_bytes, env.fs.pressure_frac);
        let stretch = self.rng.lognormal(1.0, env.fs.grant_noise_sigma).max(1.0);
        let io = self.next_io;
        self.next_io += 1;
        self.ios.insert(
            io,
            IoSt {
                r,
                file,
                offset,
                len,
                stream,
                noise,
                stretch,
                severity,
                pressure,
                accepted: 0,
                granted_at: t,
                ingest_done: SimTime::ZERO,
                sync: false,
                wb_out: 0,
                returned: false,
                is_data: true,
                is_read,
            },
        );
        self.ranks[r as usize].op_start = t;
        self.ranks[r as usize].cur = Some(CurOp {
            call: if is_read {
                CallKind::Read
            } else {
                CallKind::Write
            },
            fd,
            offset,
            bytes: len,
            open_file: None,
        });
        if self.node.acquire(io) {
            self.grant_io(t, io, env);
        }
    }
}

impl NodeSim {
    /// The node I/O token was granted: build the server request(s).
    fn grant_io(&mut self, t: SimTime, io: IoId, env: &Env) {
        let (r, file, offset, len, stream, noise, severity, pressure, stretch, is_read) = {
            let st = self.ios.get_mut(&io).expect("granted io");
            st.granted_at = t;
            (
                st.r,
                st.file,
                st.offset,
                st.len,
                st.stream,
                st.noise,
                st.severity,
                st.pressure,
                st.stretch,
                st.is_read,
            )
        };
        let layout = env.layouts[file as usize];
        let shared = env.shared[file as usize];
        let stripe = env.fs.stripe_bytes;
        if is_read {
            let degraded = severity > 0 && (pressure || self.degraded_streams.contains(&stream));
            let page_cost = if degraded {
                self.stats.degraded_reads += 1;
                self.degraded_streams.insert(stream);
                Some(self.rng.lognormal(
                    env.fs.readahead.page_cost_median * severity as f64,
                    env.fs.readahead.page_cost_sigma,
                ))
            } else {
                None
            };
            self.stats.bytes_read += len;
            let layout2 = layout;
            layout2.extents_into(offset, len, &mut self.extent_scratch);
            let (batches, floor, io_extra) = self.build_batches(t, false, page_cost, env);
            let window = if page_cost.is_some() {
                1 // degraded reads serialize, as in the classic engine
            } else {
                self.node.io_window(env.fs.node_window)
            };
            self.send_req(
                t,
                io,
                floor,
                RReqKind::Data {
                    is_read: true,
                    stream,
                    noise,
                    window,
                    batches,
                    io_extra,
                    lock: None,
                    reply: Reply::Done,
                },
            );
            return;
        }
        // Write path: decide sync vs buffered.
        layout.extents_into(offset, len, &mut self.extent_scratch);
        let partials = self
            .extent_scratch
            .iter()
            .filter(|e| !e.is_full_stripe(stripe))
            .count();
        let sync = shared && partials * 4 > self.extent_scratch.len();
        self.stats.bytes_written += len;
        if sync {
            self.stats.sync_writes += 1;
            {
                let st = self.ios.get_mut(&io).expect("sync io");
                st.sync = true;
                st.accepted = len;
            }
            let (batches, floor, io_extra) = self.build_batches(t, true, None, env);
            let lock = shared.then(|| LockReq {
                file,
                s0: layout.stripe_of(offset),
                s1: layout.stripe_of(offset + len - 1),
                lo_partial: offset % stripe != 0,
                hi_partial: (offset + len) % stripe != 0,
            });
            self.send_req(
                t,
                io,
                floor,
                RReqKind::Data {
                    is_read: false,
                    stream,
                    noise,
                    window: self.node.io_window(env.fs.node_window),
                    batches,
                    io_extra,
                    lock,
                    reply: Reply::Done,
                },
            );
            return;
        }
        // Buffered: accept into the page cache, spill write-back chunks.
        let free = self.node.free_cache(env.fs.cache_bytes);
        let take = aligned_take(offset, len, 0, free, stripe);
        let ingest_done = self
            .node
            .ingest
            .submit(t, SimSpan::for_bytes(len, env.fs.ingest_bw));
        {
            let st = self.ios.get_mut(&io).expect("buffered io");
            st.accepted = take;
            st.ingest_done = ingest_done;
        }
        self.node.add_dirty(t, take);
        if take > 0 {
            self.submit_wb_chunk(t, io, offset, take, env);
        }
        if take == len {
            let accept = stretch_accept(t, ingest_done.max(t), stretch);
            self.heap
                .push_keyed(accept, 2 + r as u64, NEv::AcceptDone(io));
        } else {
            self.node.blocked.push_back(io);
        }
    }

    /// Turn the extents in `extent_scratch` into per-extent RPC batches
    /// (one [`Batch`] per stripe RPC, as in the classic engine), charging
    /// NIC service per extent. Returns the batches, the request's
    /// deterministic service floor (the smallest extent's pure
    /// fabric + OST bandwidth demand), and the summed client-side
    /// degraded-read page cost.
    fn build_batches(
        &mut self,
        t: SimTime,
        write: bool,
        page_cost: Option<f64>,
        env: &Env,
    ) -> (Vec<Batch>, SimSpan, SimSpan) {
        let stripe = env.fs.stripe_bytes;
        let page_bytes = env.fs.readahead.page_bytes;
        let mut batches: Vec<Batch> = Vec::new();
        let mut io_extra = SimSpan::ZERO;
        let mut floor: Option<SimSpan> = None;
        let extents = std::mem::take(&mut self.extent_scratch);
        for ex in &extents {
            let nic_demand = SimSpan::for_bytes(ex.len, env.fs.nic_bw);
            let t_nic = self.node.nic.submit(t, nic_demand);
            let mut svc_extra = SimSpan::ZERO;
            if write && !ex.is_full_stripe(stripe) {
                svc_extra +=
                    SimSpan::from_secs_f64(self.rng.lognormal(env.fs.raid_partial_median, 0.3));
            }
            let mut client_extra = SimSpan::ZERO;
            if let Some(f) = self.injector.as_mut() {
                client_extra = f.rpc_drop_delay(t) + f.nic_extra(t, self.id, nic_demand);
            }
            if let Some(pc) = page_cost {
                io_extra += SimSpan::from_secs_f64(ex.len.div_ceil(page_bytes) as f64 * pc);
            }
            self.stats.data_rpcs += 1;
            let lower = SimSpan::for_bytes(ex.len, env.fs.fabric_bw)
                + SimSpan::for_bytes(ex.len, env.fs.ost_bw);
            floor = Some(floor.map_or(lower, |f| f.min(lower)));
            batches.push(Batch {
                ost: ex.ost as u32,
                bytes: ex.len,
                t_nic,
                svc_extra,
                client_extra,
            });
        }
        self.extent_scratch = extents;
        (batches, floor.unwrap_or(SimSpan::ZERO), io_extra)
    }

    /// Spill one accepted chunk of a buffered write to the server plane
    /// as write-back batches that will drain the dirty pages.
    fn submit_wb_chunk(&mut self, t: SimTime, io: IoId, chunk_off: u64, chunk_len: u64, env: &Env) {
        let (file, io_offset, io_len, stream, noise) = {
            let st = &self.ios[&io];
            (st.file, st.offset, st.len, st.stream, st.noise)
        };
        let layout = env.layouts[file as usize];
        let shared = env.shared[file as usize];
        let stripe = env.fs.stripe_bytes;
        layout.extents_into(chunk_off, chunk_len, &mut self.extent_scratch);
        let (batches, floor, _) = self.build_batches(t, true, None, env);
        let lock = shared.then(|| LockReq {
            file,
            s0: layout.stripe_of(chunk_off),
            s1: layout.stripe_of(chunk_off + chunk_len - 1),
            lo_partial: chunk_off == io_offset && io_offset % stripe != 0,
            hi_partial: chunk_off + chunk_len == io_offset + io_len
                && (io_offset + io_len) % stripe != 0,
        });
        let n = batches.len() as u32;
        self.ios.get_mut(&io).expect("wb io").wb_out += n;
        self.wr_out += n;
        self.send_req(
            t,
            io,
            floor,
            RReqKind::Data {
                is_read: false,
                stream,
                noise,
                window: self.node.io_window(env.fs.node_window),
                batches,
                io_extra: SimSpan::ZERO,
                lock,
                reply: Reply::Drain,
            },
        );
    }

    /// Cache space freed: feed the blocked queue round-robin.
    fn wake_blocked(&mut self, t: SimTime, env: &Env) {
        loop {
            let free = self.node.free_cache(env.fs.cache_bytes);
            if free == 0 {
                return;
            }
            let Some(&front) = self.node.blocked.front() else {
                return;
            };
            let (r, offset, len, accepted0, granted_at, ingest_done, stretch) = {
                let st = &self.ios[&front];
                (
                    st.r,
                    st.offset,
                    st.len,
                    st.accepted,
                    st.granted_at,
                    st.ingest_done,
                    st.stretch,
                )
            };
            let take = aligned_take(offset, len, accepted0, free, env.fs.stripe_bytes);
            self.ios.get_mut(&front).expect("blocked io").accepted += take;
            self.node.add_dirty(t, take);
            if self
                .node
                .under_pressure(t, env.fs.cache_bytes, env.fs.pressure_frac)
            {
                self.node.note_pressure(t, env.fs.pressure_hold);
            }
            if take > 0 {
                self.submit_wb_chunk(t, front, offset + accepted0, take, env);
            }
            if accepted0 + take == len {
                self.node.blocked.pop_front();
                let accept = stretch_accept(granted_at, ingest_done.max(t), stretch);
                self.heap
                    .push_keyed(accept, 2 + r as u64, NEv::AcceptDone(front));
            } else {
                // Partial progress: rotate so peers get cache too.
                let f = self.node.blocked.pop_front().expect("front exists");
                self.node.blocked.push_back(f);
                return;
            }
        }
    }
}

/// The shared server plane: fabric, OSTs, MDS, DLM, and the extent-lock
/// map. Processed serially in `(t, node, seq)` order every round.
struct Servers {
    fabric: ServiceCenter,
    dlm: ServiceCenter,
    mds: MultiServiceCenter,
    osts: Vec<Ost>,
    /// Per-file interval lock map: start stripe → (end exclusive, owner).
    locks: FxHashMap<u32, BTreeMap<u64, (u64, u32)>>,
    acquired: u64,
    contended: u64,
    revoked: u64,
    rng: SimRng,
    injector: Option<PlanInjector>,
    processed: u64,
}

impl Servers {
    fn new(seed: u64, fs: &FsConfig, plan: Option<&FaultPlan>) -> Self {
        Servers {
            fabric: ServiceCenter::new(),
            dlm: ServiceCenter::new(),
            mds: MultiServiceCenter::new(fs.mds_threads),
            osts: (0..fs.n_osts).map(|_| Ost::new()).collect(),
            locks: FxHashMap::default(),
            acquired: 0,
            contended: 0,
            revoked: 0,
            rng: SimRng::keyed(seed, LANE_SERVER, 0),
            injector: plan.map(|p| p.keyed_injector(seed, LANE_SERVER_FAULT, 0)),
            processed: 0,
        }
    }

    /// Take or extend the extent lock for a write chunk. Returns the
    /// number of read-modify-write stripes and whether any foreign owner
    /// had to be revoked (one DLM round per conflicted chunk).
    fn lock_range(&mut self, req: &LockReq, node: u32) -> (u64, bool) {
        let map = self.locks.entry(req.file).or_default();
        let lo = req.s0;
        let hi = req.s1 + 1;
        // Collect every interval overlapping [lo, hi).
        let mut overlapped: Vec<(u64, u64, u32)> = Vec::new();
        if let Some((&s, &(e, o))) = map.range(..lo).next_back() {
            if e > lo {
                overlapped.push((s, e, o));
            }
        }
        for (&s, &(e, o)) in map.range(lo..hi) {
            overlapped.push((s, e, o));
        }
        let mut self_cov = 0u64;
        let mut foreign = 0u64;
        let mut lo_owner = None;
        let mut hi_owner = None;
        for &(s, e, o) in &overlapped {
            let ov = e.min(hi) - s.max(lo);
            if o == node {
                self_cov += ov;
            } else {
                foreign += ov;
            }
            if s <= lo && lo < e {
                lo_owner = Some(o);
            }
            if s < hi && hi - 1 < e {
                hi_owner = Some(o);
            }
        }
        self.acquired += (hi - lo) - self_cov;
        self.contended += foreign;
        let lo_foreign = lo_owner.is_some_and(|o| o != node);
        let hi_foreign = hi_owner.is_some_and(|o| o != node);
        let rmw = if req.s0 == req.s1 {
            u64::from((req.lo_partial || req.hi_partial) && lo_foreign)
        } else {
            u64::from(req.lo_partial && lo_foreign) + u64::from(req.hi_partial && hi_foreign)
        };
        self.revoked += rmw;
        // Rebuild: trim overlapped intervals, insert ours, merge with
        // adjacent same-owner neighbors.
        for &(s, _, _) in &overlapped {
            map.remove(&s);
        }
        let mut nlo = lo;
        let mut nhi = hi;
        for &(s, e, o) in &overlapped {
            if s < lo {
                map.insert(s, (lo, o));
            }
            if e > hi {
                map.insert(hi, (e, o));
            }
            let _ = (s, e, o);
        }
        if let Some((&s, &(e, o))) = map.range(..nlo).next_back() {
            if e == nlo && o == node {
                nlo = s;
                map.remove(&s);
            }
        }
        if let Some(&(e, o)) = map.get(&nhi) {
            if o == node {
                nhi = e;
                map.remove(&hi);
            }
        }
        map.insert(nlo, (nhi, node));
        (rmw, foreign > 0)
    }

    /// Answer every outstanding request in `(t, node, seq)` order.
    fn process(&mut self, reqs: &mut Vec<RReq>, inboxes: &mut Inboxes, fs: &FsConfig) {
        reqs.sort_by_key(|r| (r.t, r.node, r.seq));
        for req in reqs.drain(..) {
            self.processed += 1;
            let node = req.node as usize;
            match req.kind {
                RReqKind::Meta { demand } => {
                    let mut d = demand;
                    if let Some(f) = self.injector.as_mut() {
                        d += f.mds_extra(req.t, demand);
                    }
                    let done = self.mds.submit(req.t, d);
                    inboxes.push(
                        node,
                        Delivery::Done {
                            io: req.io,
                            t: done,
                        },
                    );
                }
                RReqKind::MetaWrite {
                    demand,
                    ost,
                    stream,
                    bytes,
                } => {
                    let mut d = demand;
                    if let Some(f) = self.injector.as_mut() {
                        d += f.mds_extra(req.t, demand);
                    }
                    let t1 = self.mds.submit(req.t, d);
                    let done = self.osts[ost as usize].submit(
                        t1,
                        bytes,
                        stream,
                        false,
                        1.0,
                        SimSpan::ZERO,
                        fs,
                        &mut self.rng,
                    );
                    inboxes.push(
                        node,
                        Delivery::Done {
                            io: req.io,
                            t: done,
                        },
                    );
                }
                RReqKind::Data {
                    is_read,
                    stream,
                    noise,
                    window,
                    mut batches,
                    io_extra,
                    lock,
                    reply,
                } => {
                    let mut lock_wait = SimTime::ZERO;
                    if let Some(lreq) = lock {
                        let (rmw, conflict) = self.lock_range(&lreq, req.node);
                        if conflict {
                            let revoke = SimSpan::from_secs_f64(
                                self.rng.lognormal(fs.lock_revoke_latency, 0.3),
                            );
                            lock_wait = self.dlm.submit(req.t, revoke);
                        }
                        if rmw > 0 {
                            // Read back the partial stripes before writing.
                            let extra = SimSpan::for_bytes(rmw * fs.stripe_bytes, fs.ost_bw);
                            if let Some(b) = batches.first_mut() {
                                b.svc_extra += extra;
                            }
                        }
                    }
                    // Per-extent RPC chain, exactly the classic engine's
                    // granularity: fabric then OST per stripe, with the
                    // OST's stochastic overhead and stream/direction
                    // switch penalties drawn here, in served order. The
                    // client window pipelines: extent `k` may enter the
                    // fabric only after extent `k - window` completed,
                    // so a slow server compounds across an I/O.
                    let w = window.max(1) as usize;
                    let mut completions: Vec<SimTime> = Vec::with_capacity(batches.len());
                    let mut server_done = req.t;
                    for (k, b) in batches.iter().enumerate() {
                        let nominal = SimSpan::for_bytes(b.bytes, fs.fabric_bw);
                        let mut fab = nominal;
                        if let Some(f) = self.injector.as_mut() {
                            fab += f.fabric_extra(req.t, nominal);
                        }
                        let mut arrival = b.t_nic.max(lock_wait);
                        if k >= w {
                            arrival = arrival.max(completions[k - w]);
                        }
                        let t_fab = self.fabric.submit(arrival, fab);
                        let mut extra = b.svc_extra;
                        if let Some(f) = self.injector.as_mut() {
                            extra += f.ost_extra(
                                req.t,
                                b.ost as usize,
                                SimSpan::for_bytes(b.bytes, fs.ost_bw),
                                is_read,
                            );
                        }
                        let done_b = self.osts[b.ost as usize].submit(
                            t_fab,
                            b.bytes,
                            stream,
                            is_read,
                            noise,
                            extra,
                            fs,
                            &mut self.rng,
                        );
                        let vis = done_b + b.client_extra;
                        completions.push(vis);
                        server_done = server_done.max(vis);
                        if reply == Reply::Drain {
                            inboxes.push(
                                node,
                                Delivery::Drain {
                                    io: req.io,
                                    t: vis,
                                    bytes: b.bytes,
                                },
                            );
                        }
                    }
                    if reply == Reply::Done {
                        inboxes.push(
                            node,
                            Delivery::Done {
                                io: req.io,
                                t: server_done + io_extra,
                            },
                        );
                    }
                }
            }
        }
    }
}

/// Per-(sender, receiver) message channel state.
#[derive(Default)]
struct Chan {
    avail: VecDeque<(SimTime, u64)>,
    waiting: Option<(u32, SimTime)>,
}

/// Serial MPI coordinator: point-to-point matching and barrier releases.
struct Coord {
    ranks: u32,
    tpn: u32,
    arrivals: Vec<Option<SimTime>>,
    arrived: u32,
    barrier_idx: u32,
    channels: FxHashMap<(u32, u32), Chan>,
    records: Vec<Record>,
    rng: SimRng,
    max_t: SimTime,
}

impl Coord {
    fn new(ranks: u32, tpn: u32, seed: u64) -> Self {
        Coord {
            ranks,
            tpn,
            arrivals: vec![None; ranks as usize],
            arrived: 0,
            barrier_idx: 0,
            channels: FxHashMap::default(),
            records: Vec::new(),
            rng: SimRng::keyed(seed, LANE_COORD, 0),
            max_t: SimTime::ZERO,
        }
    }

    /// Match sends against receives (classic semantics: a waiting
    /// receiver records the send's bytes and ends at the send's
    /// completion; a queued message records zero bytes and ends at
    /// `max(avail, issue)`).
    fn p2p(&mut self, sends: &mut Vec<MsgSend>, recvs: &mut Vec<RecvReq>, inboxes: &mut Inboxes) {
        for s in sends.drain(..) {
            let ch = self.channels.entry((s.from, s.to)).or_default();
            if let Some((wrank, _)) = ch.waiting.take() {
                inboxes.push(
                    (wrank / self.tpn) as usize,
                    Delivery::RecvDone {
                        r: wrank % self.tpn,
                        t: s.done,
                        bytes: s.bytes,
                    },
                );
            } else {
                ch.avail.push_back((s.done, s.bytes));
            }
        }
        for rv in recvs.drain(..) {
            let ch = self.channels.entry((rv.from, rv.rank)).or_default();
            if let Some((avail_t, _bytes)) = ch.avail.pop_front() {
                inboxes.push(
                    (rv.rank / self.tpn) as usize,
                    Delivery::RecvDone {
                        r: rv.rank % self.tpn,
                        t: avail_t.max(rv.issue),
                        bytes: 0,
                    },
                );
            } else {
                debug_assert!(ch.waiting.is_none(), "multiple receivers on one channel");
                ch.waiting = Some((rv.rank, rv.issue));
            }
        }
    }

    /// Register barrier arrivals; release when every rank is in.
    fn barriers(
        &mut self,
        arrivals: &mut Vec<(u32, SimTime)>,
        inboxes: &mut Inboxes,
        mpi: &MpiConfig,
    ) {
        for (rank, t) in arrivals.drain(..) {
            debug_assert!(self.arrivals[rank as usize].is_none());
            self.arrivals[rank as usize] = Some(t);
            self.arrived += 1;
        }
        if self.ranks == 0 || self.arrived != self.ranks {
            return;
        }
        let rel = self
            .arrivals
            .iter()
            .map(|a| a.expect("all arrived"))
            .max()
            .expect("nonzero ranks");
        for rank in 0..self.ranks {
            let arrival = self.arrivals[rank as usize].take().expect("arrived");
            self.records.push(Record {
                rank,
                call: CallKind::Barrier,
                fd: -1,
                offset: 0,
                bytes: 0,
                start_ns: arrival.nanos(),
                end_ns: rel.nanos(),
                phase: self.barrier_idx,
            });
        }
        self.arrived = 0;
        for node in 0..inboxes.v.len() {
            inboxes.push(node, Delivery::Resample { t: rel });
        }
        for rank in 0..self.ranks {
            let jitter = SimSpan::from_secs_f64(self.rng.f64() * mpi.barrier_jitter);
            inboxes.push(
                (rank / self.tpn) as usize,
                Delivery::Resume {
                    r: rank % self.tpn,
                    t: rel + jitter,
                    phase: self.barrier_idx + 1,
                },
            );
        }
        self.barrier_idx += 1;
        self.max_t = self.max_t.max(rel);
    }
}

/// Run the node phase for every active node, on up to `workers`
/// threads. Per-node effects are identical regardless of worker count:
/// nodes share no mutable state and outputs are gathered in node-index
/// order, so threading changes wall-clock only.
fn run_phases(nodes: &mut [NodeSim], active: &[usize], env: &Env, workers: usize) {
    if workers <= 1 || active.len() <= 1 {
        for &i in active {
            nodes[i].node_phase(env);
        }
        return;
    }
    // Split the slice into disjoint &mut refs for the active nodes,
    // then let workers claim them via an atomic cursor (work stealing:
    // a slow node never idles the other workers).
    let mut refs: Vec<std::sync::Mutex<&mut NodeSim>> = Vec::with_capacity(active.len());
    let mut rest = nodes;
    let mut consumed = 0usize;
    for &i in active {
        let (_, tail) = rest.split_at_mut(i - consumed);
        let (node, tail) = tail.split_at_mut(1);
        refs.push(std::sync::Mutex::new(&mut node[0]));
        rest = tail;
        consumed = i + 1;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    crossbeam::thread::scope(|s| {
        for _ in 0..workers.min(active.len()) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(slot) = refs.get(i) else { break };
                slot.lock().expect("unpoisoned node slot").node_phase(env);
            });
        }
    })
    .expect("node phase panicked");
}

/// Execute `job` on the sharded engine with `shards` worker threads.
/// Bit-identical to itself at any shard count (including 1).
pub(crate) fn run_sharded(job: &Job, cfg: &RunConfig, shards: u32) -> Result<RunReport, RunError> {
    job.validate().map_err(RunError::InvalidJob)?;
    cfg.fs.validate().map_err(RunError::Config)?;
    let ranks = job.programs.len() as u32;
    let tpn = cfg.fs.tasks_per_node.max(1);
    let n_nodes = (ranks.div_ceil(tpn)).max(1) as usize;
    let plan = cfg.fault.as_ref().filter(|p| !p.is_empty());
    let env = Env {
        job,
        fs: &cfg.fs,
        mpi: &cfg.mpi,
        layouts: (0..job.files.len())
            .map(|i| StripeLayout::new(cfg.fs.stripe_bytes, cfg.fs.n_osts, (i * 7) % cfg.fs.n_osts))
            .collect(),
        shared: job.files.iter().map(|f| f.shared).collect(),
    };
    let mut nodes: Vec<NodeSim> = (0..n_nodes as u32)
        .map(|id| NodeSim::new(id, ranks, tpn, cfg.seed, plan))
        .collect();
    let mut servers = Servers::new(cfg.seed, &cfg.fs, plan);
    let mut coord = Coord::new(ranks, tpn, cfg.seed);
    for node in nodes.iter_mut() {
        node.inbox.push(Delivery::Resample { t: SimTime::ZERO });
    }
    for rank in 0..ranks {
        let jitter = SimSpan::from_secs_f64(coord.rng.f64() * cfg.mpi.barrier_jitter);
        nodes[(rank / tpn) as usize].inbox.push(Delivery::Resume {
            r: rank % tpn,
            t: SimTime::ZERO + jitter,
            phase: 0,
        });
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = (shards as usize).min(n_nodes).min(cores).max(1);
    // Requests deferred past the lookahead bound, keyed by service
    // order `(t, node, seq)`. Two side indexes keep every per-round cost
    // proportional to the round's *activity* rather than the fleet size:
    // `floors` orders the same requests by reply floor (`t + floor`) for
    // the LBTS bound, and `node_floors` carries each node's pooled floor
    // minimum into its persistent `base_horizon` — a node may keep
    // simulating up to (but not at) the earliest time a reply could
    // land. Both are updated only when requests enter or leave the pool.
    let mut pool: BTreeMap<(SimTime, u32, u64), RReq> = BTreeMap::new();
    let mut floors: BTreeSet<(SimTime, u32, u64)> = BTreeSet::new();
    let mut node_floors: Vec<BTreeSet<(SimTime, u64)>> =
        (0..n_nodes).map(|_| BTreeSet::new()).collect();
    let mut due: Vec<RReq> = Vec::new();
    let mut scratch: Vec<RReq> = Vec::new();
    let mut sends: Vec<MsgSend> = Vec::new();
    let mut recvs: Vec<RecvReq> = Vec::new();
    let mut arrivals: Vec<(u32, SimTime)> = Vec::new();
    let mut inboxes = Inboxes::new(n_nodes);
    // Cache of each node's next local event time, with a lazy min-heap
    // over it: only nodes that ran this round refresh their entry, and
    // stale heap tops are discarded on read.
    let mut peeks: Vec<SimTime> = vec![SimTime::MAX; n_nodes];
    let mut peek_heap: BinaryHeap<Reverse<(SimTime, u32)>> = BinaryHeap::new();
    // Every node starts active: the seed deliveries above are in.
    let mut active: Vec<usize> = (0..n_nodes).collect();
    loop {
        if active.is_empty() && pool.is_empty() {
            break;
        }
        run_phases(&mut nodes, &active, &env, workers);
        // Gather outputs in node-index order: the serial plane's input
        // order is fixed regardless of which worker ran which node.
        for &i in &active {
            scratch.append(&mut nodes[i].out_r);
            if !scratch.is_empty() {
                for q in scratch.drain(..) {
                    node_floors[i].insert((q.t + q.floor, q.seq));
                    floors.insert((q.t + q.floor, q.node, q.seq));
                    pool.insert((q.t, q.node, q.seq), q);
                }
                nodes[i].base_horizon = node_floors[i].first().expect("just inserted").0;
            }
            sends.append(&mut nodes[i].out_send);
            recvs.append(&mut nodes[i].out_recv);
            arrivals.append(&mut nodes[i].out_arrival);
            let p = nodes[i].heap.peek_time().unwrap_or(SimTime::MAX);
            peeks[i] = p;
            if p < SimTime::MAX {
                peek_heap.push(Reverse((p, i as u32)));
            }
        }
        coord.p2p(&mut sends, &mut recvs, &mut inboxes);
        coord.barriers(&mut arrivals, &mut inboxes, &cfg.mpi);
        // Conservative lookahead (LBTS): no request can ever be issued
        // before the minimum over (a) deferred requests' reply floors,
        // (b) undelivered inbox timestamps, and (c) every node's next
        // local event. Serving strictly below this bound reproduces the
        // classic engine's global-time service order: by the time a
        // request is served, every earlier-`t` request is in the pool,
        // so eager FIFO reservations are made in true `(t, node, seq)`
        // order — a late-round request can never queue behind a
        // future-time reservation.
        let mut lbts = floors.first().map_or(SimTime::MAX, |&(f, _, _)| f);
        lbts = lbts.min(inboxes.min_t);
        while let Some(&Reverse((t, i))) = peek_heap.peek() {
            if peeks[i as usize] == t {
                lbts = lbts.min(t);
                break;
            }
            peek_heap.pop();
        }
        while pool.first_key_value().is_some_and(|(k, _)| k.0 < lbts) {
            let ((t, node, seq), q) = pool.pop_first().expect("checked non-empty");
            let nf = &mut node_floors[node as usize];
            nf.remove(&(t + q.floor, seq));
            nodes[node as usize].base_horizon = nf.first().map_or(SimTime::MAX, |&(f, _)| f);
            floors.remove(&(t + q.floor, node, seq));
            due.push(q);
        }
        servers.process(&mut due, &mut inboxes, &cfg.fs);
        let had_active = !active.is_empty();
        active.clear();
        inboxes.touched.sort_unstable();
        inboxes.touched.dedup();
        for &i in &inboxes.touched {
            nodes[i].inbox.append(&mut inboxes.v[i]);
            active.push(i);
        }
        inboxes.touched.clear();
        inboxes.min_t = SimTime::MAX;
        // A round with no activity at all cannot make progress; bail to
        // the deadlock report rather than spin. (Unreachable when floors
        // are positive — see the progress argument above — but cheap.)
        if !had_active && active.is_empty() {
            break;
        }
    }
    let finished: u32 = nodes.iter().map(|n| n.finished).sum();
    if finished != ranks {
        let stuck: Vec<(u32, usize)> = nodes
            .iter()
            .flat_map(|n| {
                n.ranks
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.finished)
                    .map(|(i, r)| (n.rank0 + i as u32, r.pc))
                    .collect::<Vec<_>>()
            })
            .collect();
        return Err(RunError::Deadlock(stuck));
    }
    let end = nodes
        .iter()
        .map(|n| n.max_t)
        .fold(coord.max_t, SimTime::max);
    let mut stats = FsStats::default();
    for n in &nodes {
        stats.data_rpcs += n.stats.data_rpcs;
        stats.meta_ops += n.stats.meta_ops;
        stats.degraded_reads += n.stats.degraded_reads;
        stats.sync_writes += n.stats.sync_writes;
        stats.bytes_read += n.stats.bytes_read;
        stats.bytes_written += n.stats.bytes_written;
        stats.flushes += n.stats.flushes;
    }
    let lock_stats = LockStats {
        acquired: servers.acquired,
        contended: servers.contended,
        revoked: servers.revoked,
    };
    let util = UtilizationReport {
        horizon_s: end.as_secs_f64(),
        fabric_busy_s: servers.fabric.busy_time().as_secs_f64(),
        dlm_busy_s: servers.dlm.busy_time().as_secs_f64(),
        mds_busy_s: servers.mds.busy_time().as_secs_f64(),
        ost_busy_s: servers
            .osts
            .iter()
            .map(|o| o.busy_time().as_secs_f64())
            .collect(),
        ost_switches: servers.osts.iter().map(|o| o.switches()).collect(),
        ost_direction_switches: servers
            .osts
            .iter()
            .map(|o| o.direction_switches())
            .collect(),
        ost_bytes: servers.osts.iter().map(|o| o.bytes()).collect(),
        node_dirty_peak: nodes.iter().map(|n| n.node.dirty_peak).collect(),
        node_dirty_avg: nodes
            .iter()
            .map(|n| n.node.dirty_over_time.average(end))
            .collect(),
    };
    let meta = TraceMeta {
        experiment: cfg.experiment.clone(),
        platform: cfg.fs.name.clone(),
        ranks,
        seed: cfg.seed,
    };
    let mut trace = Trace::new(meta.clone());
    for n in &nodes {
        for r in &n.records {
            trace.push(r.clone());
        }
    }
    for r in &coord.records {
        trace.push(r.clone());
    }
    trace.sort_by_start();
    debug_assert_eq!(trace.validate(), Ok(()));
    let events = nodes.iter().map(|n| n.processed).sum::<u64>() + servers.processed;
    Ok(RunReport {
        seed: cfg.seed,
        meta,
        trace: Some(trace),
        stats,
        lock_stats,
        util,
        events,
        end,
    })
}

/// Replay a finished report's trace into a streaming sink phase by
/// phase, mirroring the classic streaming path's contract: each phase's
/// records in buffered order, then `phase_end` for every phase (empty
/// ones too), then `finish`. One stable pass groups the records by
/// phase, so the replay is linear in the records.
pub(crate) fn replay_into_sink(report: &mut RunReport, sink: &mut dyn RecordSink) {
    let Some(trace) = report.trace.take() else {
        return;
    };
    let mut by_phase: Vec<Vec<&Record>> = vec![Vec::new(); trace.phase_count().max(1) as usize];
    for r in &trace.records {
        by_phase[r.phase as usize].push(r);
    }
    for (k, records) in by_phase.iter().enumerate() {
        for r in records {
            sink.push(r);
        }
        sink.phase_end(k as u32);
    }
    sink.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FileSpec, ProgramBuilder};
    use crate::runner::Runner;

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
        RunConfig::new(FsConfig::tiny_test(), seed, "shard-unit")
    }

    fn run_shards(job: &Job, config: RunConfig, n: u32) -> RunReport {
        Runner::new(job, config).shards(n).execute_one().unwrap()
    }

    #[test]
    fn sharded_run_completes_and_accounts_bytes() {
        let job = simple_job(8, 4);
        let res = run_shards(&job, cfg(1), 1);
        assert_eq!(res.trace().meta.ranks, 8);
        assert_eq!(res.trace().records.len(), 48);
        assert_eq!(res.stats.bytes_written, 8 * 4 * MB);
        assert_eq!(
            res.util.ost_bytes.iter().sum::<u64>(),
            res.stats.bytes_written
        );
        assert!(res.end > SimTime::ZERO);
        res.trace().validate().unwrap();
    }

    #[test]
    fn bit_identical_across_shard_counts() {
        let job = simple_job(16, 4);
        let base = run_shards(&job, cfg(7), 1);
        for n in [2, 3, 8] {
            let other = run_shards(&job, cfg(7), n);
            assert_eq!(
                base.trace().records,
                other.trace().records,
                "{n} shards diverged"
            );
            assert_eq!(base.end, other.end, "{n} shards diverged on end time");
            assert_eq!(base.stats, other.stats);
            assert_eq!(base.lock_stats, other.lock_stats);
            assert_eq!(base.events, other.events);
        }
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let job = simple_job(8, 4);
        let a = run_shards(&job, cfg(3), 4);
        let b = run_shards(&job, cfg(3), 4);
        assert_eq!(a.trace().records, b.trace().records);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn barriers_synchronize_and_phase_correctly() {
        let job = simple_job(8, 2);
        let res = run_shards(&job, cfg(5), 2);
        let ends: Vec<u64> = res
            .trace()
            .of_kind(CallKind::Barrier)
            .map(|r| r.end_ns)
            .collect();
        assert_eq!(ends.len(), 8);
        assert!(ends.windows(2).all(|w| w[0] == w[1]));
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
    fn send_recv_matches_classic_semantics() {
        // Receiver waits: recv records the send's bytes and ends with it.
        let p0 = ProgramBuilder::new().send(1, 10 * MB).build();
        let p1 = ProgramBuilder::new().recv(0).build();
        let job = Job {
            programs: vec![p0, p1],
            files: vec![],
        };
        let res = run_shards(&job, cfg(4), 2);
        let send: Vec<_> = res.trace().of_kind(CallKind::Send).collect();
        let recv: Vec<_> = res.trace().of_kind(CallKind::Recv).collect();
        assert_eq!(send.len(), 1);
        assert_eq!(recv.len(), 1);
        assert!(recv[0].end_ns >= send[0].end_ns);
        assert_eq!(send[0].bytes, 10 * MB);
    }

    #[test]
    fn recv_blocks_until_late_send() {
        let p0 = ProgramBuilder::new().recv(1).build();
        let p1 = ProgramBuilder::new()
            .compute(SimSpan::from_secs(1))
            .send(0, 1024)
            .build();
        let job = Job {
            programs: vec![p0, p1],
            files: vec![],
        };
        for n in [1, 2] {
            let res = run_shards(&job, cfg(5), n);
            let binding = res.trace();
            let recv = binding.of_kind(CallKind::Recv).next().unwrap();
            assert!(recv.secs() >= 0.99, "recv must wait for the send: {recv:?}");
        }
    }

    #[test]
    fn deadlock_is_reported() {
        // Rank 0 receives from rank 1, which never sends but is kept
        // "valid" by receiving from rank 0 in turn: a cycle.
        let p0 = ProgramBuilder::new().recv(1).send(1, 64).build();
        let p1 = ProgramBuilder::new().recv(0).send(0, 64).build();
        let job = Job {
            programs: vec![p0, p1],
            files: vec![],
        };
        let err = Runner::new(&job, cfg(6))
            .shards(2)
            .execute_one()
            .unwrap_err();
        match err {
            RunError::Deadlock(stuck) => assert_eq!(stuck.len(), 2, "{stuck:?}"),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_validation() {
        let job = simple_job(2, 1);
        let err = Runner::new(&job, cfg(1)).shards(0).execute().unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
        let err = Runner::new(&job, cfg(1))
            .shards(4096)
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
    }

    #[test]
    fn faulted_run_is_shard_invariant() {
        use pio_fault::{Fault, FaultPlan};
        let plan = FaultPlan::new().with(Fault::SlowOst {
            ost: 0,
            slowdown: 4.0,
            ramp_per_s: 0.0,
        });
        let job = simple_job(16, 4);
        let mk = |n: u32| {
            Runner::new(&job, cfg(9))
                .fault_plan(plan.clone())
                .shards(n)
                .execute_one()
                .unwrap()
        };
        let base = mk(1);
        for n in [2, 8] {
            let other = mk(n);
            assert_eq!(
                base.trace().records,
                other.trace().records,
                "{n} shards diverged under faults"
            );
            assert_eq!(base.end, other.end);
        }
        // And faults actually changed the run vs clean.
        let clean = run_shards(&job, cfg(9), 2);
        assert_ne!(base.end, clean.end, "fault plan had no effect");
    }

    #[test]
    fn streaming_replay_matches_buffered() {
        let job = simple_job(8, 2);
        let buffered = run_shards(&job, cfg(11), 2);
        let mut collected = Trace::new(buffered.trace().meta.clone());
        let res = Runner::new(&job, cfg(11))
            .shards(2)
            .sink(&mut collected)
            .execute_one()
            .unwrap();
        collected.sort_by_start();
        assert_eq!(collected.records, buffered.trace().records);
        assert!(res.trace.is_none(), "streamed run buffers nothing");
        assert_eq!(res.end, buffered.end);
    }

    #[test]
    fn sharded_sink_sees_the_buffered_phase_sequence() {
        #[derive(Debug, Clone, PartialEq)]
        enum Call {
            Push(Record),
            PhaseEnd(u32),
            Finish,
        }
        #[derive(Default)]
        struct Log(Vec<Call>);
        impl RecordSink for Log {
            fn push(&mut self, r: &Record) {
                self.0.push(Call::Push(r.clone()));
            }
            fn phase_end(&mut self, phase: u32) {
                self.0.push(Call::PhaseEnd(phase));
            }
            fn finish(&mut self) {
                self.0.push(Call::Finish);
            }
        }
        // Four barrier phases, records of every phase from every rank.
        let programs = (0..8u32)
            .map(|r| {
                let mut b = ProgramBuilder::new().open(0).seek(0, r as u64 * 64 * MB);
                for _ in 0..3 {
                    b = b.write(0, MB).barrier();
                }
                b.write(0, MB).close(0).build()
            })
            .collect();
        let job = Job {
            programs,
            files: vec![FileSpec { shared: true }],
        };
        let buffered = run_shards(&job, cfg(13), 2);
        let trace = buffered.trace();
        assert!(trace.phase_count() >= 4);
        // The sequence the replay must produce, rebuilt by a scan per phase.
        let mut expected = Vec::new();
        for k in 0..trace.phase_count().max(1) {
            for r in trace.records.iter().filter(|r| r.phase == k) {
                expected.push(Call::Push(r.clone()));
            }
            expected.push(Call::PhaseEnd(k));
        }
        expected.push(Call::Finish);

        let mut log = Log::default();
        Runner::new(&job, cfg(13))
            .shards(2)
            .sink(&mut log)
            .execute_one()
            .unwrap();
        assert_eq!(log.0, expected);
    }

    #[test]
    fn reads_and_cursor_semantics() {
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
        let res = run_shards(&job, cfg(12), 1);
        assert_eq!(res.stats.bytes_read, 2 * MB);
        assert_eq!(res.stats.bytes_written, 2 * MB);
        assert_eq!(res.stats.flushes, 1);
        let kinds: Vec<CallKind> = res.trace().records.iter().map(|r| r.call).collect();
        let w = kinds.iter().position(|&k| k == CallKind::Write).unwrap();
        let f = kinds.iter().position(|&k| k == CallKind::Flush).unwrap();
        let r = kinds.iter().position(|&k| k == CallKind::Read).unwrap();
        assert!(w < f && f < r);
    }

    #[test]
    fn many_ranks_many_nodes_shard_invariant() {
        // 64 ranks over 16 nodes (tiny config: 4 tasks/node), enough to
        // exercise blocked-queue rotation and multi-node write-back.
        let job = simple_job(64, 8);
        let base = run_shards(&job, cfg(13), 1);
        let wide = run_shards(&job, cfg(13), 8);
        assert_eq!(base.trace().records, wide.trace().records);
        assert_eq!(base.end, wide.end);
        assert_eq!(base.stats, wide.stats);
        assert!(base.util.node_dirty_peak.iter().any(|&p| p > 0));
    }
}
