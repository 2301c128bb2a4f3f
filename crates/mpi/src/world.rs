//! The execution world: ranks stepping through their programs in virtual
//! time, barriers, point-to-point messages, and IPM-I/O trace capture.
//!
//! Capture has one destination, the [`RecordSink`] the world is built
//! with: each record is pushed as its call completes, and
//! [`RecordSink::phase_end`] fires at every barrier release. A buffered
//! run passes a [`pio_trace::Trace`]; a streaming run passes its
//! consumer.

use crate::program::{Job, Op};
use pio_des::{FxHashMap, Scheduler, SimRng, SimSpan, SimTime, World};
use pio_fs::fault::FaultInjector;
use pio_fs::sim::FsOut;
use pio_fs::{FsEvent, FsNotify, FsSim, IoKind, IoReq};
use pio_trace::{CallKind, FdTable, Record, RecordSink};
use std::collections::VecDeque;

// The MPI message-layer cost model. The fabric's message path is far
// faster than its I/O path, so a message costs latency + bandwidth,
// without queueing.

/// Point-to-point bandwidth (B/s).
const MSG_BW: f64 = 2e9;

/// Per-message latency (s).
const MSG_LATENCY: f64 = 5e-6;

/// Barrier exit skew: ranks resume within `[0, BARRIER_JITTER)` seconds
/// after a barrier releases (also randomizes node token order, matching
/// the paper's observation that no rank is consistently slow or fast).
const BARRIER_JITTER: f64 = 200e-6;

/// Events of the execution world.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// File-system internal event.
    Fs(FsEvent),
    /// Rank resumes executing its program.
    Start(u32),
    /// Rank finishes a compute interval.
    ComputeDone(u32),
}

#[derive(Debug, Clone, Copy)]
struct CurOp {
    call: CallKind,
    fd: i32,
    offset: u64,
    bytes: u64,
    /// For `Open`: the job-local file to assign an fd for on completion.
    open_file: Option<u32>,
}

struct RankState {
    pc: usize,
    node: u32,
    fdt: FdTable,
    op_start: SimTime,
    cur: Option<CurOp>,
    finished: bool,
}

#[derive(Default)]
struct Channel {
    /// Completion times of sends not yet received.
    avail: VecDeque<SimTime>,
    /// A receiver blocked on this channel (rank, recv-issue time).
    waiting: Option<(u32, SimTime)>,
}

/// The simulation world for one job run.
///
/// The lifetime `'s` is the borrow of the capture [`RecordSink`].
pub struct MpiWorld<'s> {
    /// The file-system model (public for post-run inspection).
    pub fs: FsSim,
    /// Where records go, in completion order, as calls complete;
    /// `phase_end` fires here at every barrier release.
    sink: &'s mut dyn RecordSink,
    job: Job,
    ranks: Vec<RankState>,
    phase: u32,
    barrier_arrivals: Vec<Option<SimTime>>,
    arrived: u32,
    channels: FxHashMap<(u32, u32), Channel>,
    rng: SimRng,
    finished: u32,
    fsout: FsOut,
    /// Optional message-layer fault hooks (drop-with-retry delays on
    /// point-to-point sends). `None` costs nothing — no hook calls, no
    /// RNG draws — so fault-free runs are bit-identical to a build
    /// without the fault layer.
    fault: Option<Box<dyn FaultInjector>>,
    /// Cached [`FaultInjector::expiry`] horizon (nanoseconds); hook
    /// dispatch is skipped at or after it.
    fault_expiry: u64,
}

impl<'s> MpiWorld<'s> {
    /// Build the world capturing into `sink`; `fs` must already have the
    /// job's files registered (in order, so job file index == fs file
    /// id).
    pub fn new(job: Job, fs: FsSim, seed: u64, sink: &'s mut dyn RecordSink) -> Self {
        let n = job.ranks() as usize;
        let tasks_per_node = fs.config().tasks_per_node;
        let ranks = (0..n)
            .map(|r| RankState {
                pc: 0,
                node: r as u32 / tasks_per_node,
                fdt: FdTable::new(),
                op_start: SimTime::ZERO,
                cur: None,
                finished: false,
            })
            .collect();
        MpiWorld {
            fs,
            sink,
            barrier_arrivals: vec![None; n],
            job,
            ranks,
            phase: 0,
            arrived: 0,
            channels: FxHashMap::default(),
            rng: SimRng::stream(seed, 0xA1),
            finished: 0,
            fsout: FsOut::new(),
            fault: None,
            fault_expiry: u64::MAX,
        }
    }

    /// Install message-layer fault hooks (see [`pio_fs::fault`]). A
    /// dropped message delays delivery by the injector's bounded
    /// retransmit wait, so faults surface as right-tail send/recv
    /// latency rather than deadlocks.
    pub fn set_fault(&mut self, fault: Box<dyn FaultInjector>) {
        self.fault_expiry = fault.expiry().nanos();
        self.fault = Some(fault);
    }

    /// The current barrier-phase index.
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Ranks that have completed their whole program.
    pub fn finished_ranks(&self) -> u32 {
        self.finished
    }

    /// Program counters of unfinished ranks (deadlock diagnostics).
    pub fn stuck_ranks(&self) -> Vec<(u32, usize)> {
        self.ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.finished)
            .map(|(i, r)| (i as u32, r.pc))
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        rank: u32,
        call: CallKind,
        fd: i32,
        offset: u64,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        self.sink.push(&Record {
            rank,
            call,
            fd,
            offset,
            bytes,
            start_ns: start.nanos(),
            end_ns: end.nanos(),
            phase: self.phase,
        });
    }

    /// Deliver the file system's output: schedule its events, then
    /// complete the returned calls `fsout.notify[from..]` in order.
    ///
    /// A completion may submit the rank's next call, whose output is
    /// drained by a nested call before this one moves on. The nested
    /// call's notifications land behind the ones being walked here, so
    /// it starts at the current length and truncates back to it when
    /// done. One pair of buffers serves every depth without allocating.
    fn drain_fsout(&mut self, from: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        for (t, e) in self.fsout.sched.drain(..) {
            sched.at(t, Ev::Fs(e));
        }
        for i in from..self.fsout.notify.len() {
            let FsNotify::Done { io: _, rank } = self.fsout.notify[i];
            self.complete_io(now, rank, sched);
        }
        self.fsout.notify.truncate(from);
    }

    /// The rank's pending fs-bound call returned: record it and advance.
    fn complete_io(&mut self, now: SimTime, rank: u32, sched: &mut Scheduler<Ev>) {
        let r = rank as usize;
        let cur = self.ranks[r]
            .cur
            .take()
            .expect("completion without pending op");
        let start = self.ranks[r].op_start;
        let mut fd = cur.fd;
        if let Some(file) = cur.open_file {
            fd = self.ranks[r].fdt.open(file, format!("file{file}"));
        }
        if cur.call == CallKind::Close {
            self.ranks[r].fdt.close(cur.fd);
        }
        self.record(rank, cur.call, fd, cur.offset, cur.bytes, start, now);
        self.ranks[r].pc += 1;
        self.step_rank(now, rank, sched);
    }

    fn fd_of(&self, rank: u32, file: u32) -> i32 {
        // Linear scan over the (tiny) set of open fds for the file.
        let fdt = &self.ranks[rank as usize].fdt;
        for fd in 3..(3 + fdt.opened_total() as i32) {
            if let Some(of) = fdt.get(fd) {
                if of.file == file {
                    return fd;
                }
            }
        }
        -1
    }

    fn stream_of(rank: u32, fd: i32) -> u64 {
        (rank as u64) << 20 | (fd.max(0) as u64)
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_fs(
        &mut self,
        now: SimTime,
        rank: u32,
        kind: IoKind,
        file: u32,
        offset: u64,
        len: u64,
        call: CallKind,
        fd: i32,
        open_file: Option<u32>,
        sched: &mut Scheduler<Ev>,
    ) {
        let node = self.ranks[rank as usize].node;
        let req = IoReq {
            rank,
            node,
            file,
            stream: Self::stream_of(rank, fd),
            kind,
            offset,
            len,
        };
        self.ranks[rank as usize].op_start = now;
        self.ranks[rank as usize].cur = Some(CurOp {
            call,
            fd,
            offset,
            bytes: len,
            open_file,
        });
        let from = self.fsout.notify.len();
        self.fs.submit(now, req, &mut self.fsout);
        self.drain_fsout(from, now, sched);
    }

    /// Execute ops for `rank` starting at its pc until one blocks.
    fn step_rank(&mut self, now: SimTime, rank: u32, sched: &mut Scheduler<Ev>) {
        loop {
            let r = rank as usize;
            let pc = self.ranks[r].pc;
            let Some(op) = self.job.programs[r].ops.get(pc).cloned() else {
                if !self.ranks[r].finished {
                    self.ranks[r].finished = true;
                    self.finished += 1;
                }
                return;
            };
            match op {
                Op::Seek { file, offset } => {
                    let fd = self.fd_of(rank, file);
                    self.ranks[r].fdt.seek(fd, offset);
                    self.record(rank, CallKind::Seek, fd, offset, 0, now, now);
                    self.ranks[r].pc += 1;
                }
                Op::Open { file } => {
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::Open,
                        file,
                        0,
                        0,
                        CallKind::Open,
                        -1,
                        Some(file),
                        sched,
                    );
                    return;
                }
                Op::Close { file } => {
                    let fd = self.fd_of(rank, file);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::Close,
                        file,
                        0,
                        0,
                        CallKind::Close,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::Write { file, bytes } => {
                    let fd = self.fd_of(rank, file);
                    let offset = self.ranks[r].fdt.advance(fd, bytes).unwrap_or(0);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::Write,
                        file,
                        offset,
                        bytes,
                        CallKind::Write,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::WriteAt {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(rank, file);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::Write,
                        file,
                        offset,
                        bytes,
                        CallKind::Write,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::Read { file, bytes } => {
                    let fd = self.fd_of(rank, file);
                    let offset = self.ranks[r].fdt.advance(fd, bytes).unwrap_or(0);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::Read,
                        file,
                        offset,
                        bytes,
                        CallKind::Read,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::ReadAt {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(rank, file);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::Read,
                        file,
                        offset,
                        bytes,
                        CallKind::Read,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::MetaWrite {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(rank, file);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::MetaWrite,
                        file,
                        offset,
                        bytes,
                        CallKind::MetaWrite,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::MetaRead {
                    file,
                    offset,
                    bytes,
                } => {
                    let fd = self.fd_of(rank, file);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::MetaRead,
                        file,
                        offset,
                        bytes,
                        CallKind::MetaRead,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::Flush { file } => {
                    let fd = self.fd_of(rank, file);
                    self.submit_fs(
                        now,
                        rank,
                        IoKind::Flush,
                        file,
                        0,
                        0,
                        CallKind::Flush,
                        fd,
                        None,
                        sched,
                    );
                    return;
                }
                Op::Compute { span } => {
                    self.ranks[r].op_start = now;
                    self.ranks[r].cur = Some(CurOp {
                        call: CallKind::Compute,
                        fd: -1,
                        offset: 0,
                        bytes: 0,
                        open_file: None,
                    });
                    sched.at(now + span, Ev::ComputeDone(rank));
                    return;
                }
                Op::Barrier => {
                    self.barrier_arrivals[r] = Some(now);
                    self.arrived += 1;
                    self.ranks[r].pc += 1;
                    if self.arrived == self.job.ranks() {
                        self.release_barrier(now, sched);
                    }
                    return;
                }
                Op::Send { to, bytes } => {
                    let mut cost =
                        SimSpan::from_secs_f64(MSG_LATENCY) + SimSpan::for_bytes(bytes, MSG_BW);
                    if now.nanos() < self.fault_expiry {
                        if let Some(f) = self.fault.as_deref_mut() {
                            // Transient message loss: each drop costs one
                            // bounded retransmit timeout before delivery.
                            cost += f.msg_drop_delay(now);
                        }
                    }
                    let done = now + cost;
                    self.record(rank, CallKind::Send, -1, 0, bytes, now, done);
                    self.ranks[r].pc += 1;
                    // Message becomes available at `done`.
                    let ch = self.channels.entry((rank, to)).or_default();
                    if let Some((waiter, wstart)) = ch.waiting.take() {
                        // Receiver was blocked: completes at `done`.
                        self.record(waiter, CallKind::Recv, -1, 0, bytes, wstart, done);
                        self.ranks[waiter as usize].pc += 1;
                        sched.at(done, Ev::Start(waiter));
                    } else {
                        ch.avail.push_back(done);
                    }
                    // Blocking send: resume at `done`.
                    sched.at(done, Ev::Start(rank));
                    return;
                }
                Op::Recv { from } => {
                    let ch = self.channels.entry((from, rank)).or_default();
                    if let Some(avail) = ch.avail.pop_front() {
                        let end = avail.max(now);
                        self.record(rank, CallKind::Recv, -1, 0, 0, now, end);
                        self.ranks[r].pc += 1;
                        if end > now {
                            sched.at(end, Ev::Start(rank));
                            return;
                        }
                        // Message already here: continue immediately.
                    } else {
                        assert!(
                            ch.waiting.is_none(),
                            "two receivers blocked on the same channel"
                        );
                        ch.waiting = Some((rank, now));
                        return;
                    }
                }
            }
        }
    }

    fn release_barrier(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let n = self.job.ranks();
        for rank in 0..n {
            let arrival = self.barrier_arrivals[rank as usize]
                .take()
                .expect("all ranks arrived");
            self.record(rank, CallKind::Barrier, -1, 0, 0, arrival, now);
        }
        self.arrived = 0;
        let ended = self.phase;
        self.phase += 1;
        self.sink.phase_end(ended);
        self.fs.new_phase();
        for rank in 0..n {
            let jitter = SimSpan::from_secs_f64(self.rng.f64() * BARRIER_JITTER);
            sched.at(now + jitter, Ev::Start(rank));
        }
    }

    /// Seed the initial rank-start events (with jitter) onto a simulator.
    pub fn initial_events(&mut self) -> Vec<(SimTime, Ev)> {
        self.fs.new_phase();
        let n = self.job.ranks();
        (0..n)
            .map(|rank| {
                let jitter = SimSpan::from_secs_f64(self.rng.f64() * BARRIER_JITTER);
                (SimTime::ZERO + jitter, Ev::Start(rank))
            })
            .collect()
    }
}

impl World for MpiWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Start(rank) => self.step_rank(now, rank, sched),
            Ev::ComputeDone(rank) => {
                let r = rank as usize;
                let cur = self.ranks[r].cur.take().expect("compute state");
                let start = self.ranks[r].op_start;
                self.record(rank, cur.call, -1, 0, 0, start, now);
                self.ranks[r].pc += 1;
                self.step_rank(now, rank, sched);
            }
            Ev::Fs(fse) => {
                self.fs.handle(now, fse, &mut self.fsout);
                self.drain_fsout(0, now, sched);
            }
        }
    }
}
