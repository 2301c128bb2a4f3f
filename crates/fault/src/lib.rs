//! # pio-fault — deterministic fault plans with ensemble-shape signatures
//!
//! The paper's thesis is that I/O pathologies are *diagnosable from the
//! shape of the completion-time ensemble*: harmonic modes, right
//! shoulders, progressive deterioration, serialized ranks. The simulator
//! reproduces the paper's four scripted bugs — this crate opens the
//! space up: it injects *faults the diagnosers were not hand-built for*
//! and lets the test suite assert that each fault class still produces
//! its distinctive, attributable signature.
//!
//! A [`FaultPlan`] is a list of [`Fault`]s, each carried by a
//! [`FaultSchedule`] that gates it in simulated time. Plans are plain
//! data (cloneable, comparable, seed-independent); all randomness lives
//! in the [`PlanInjector`] built per run from `(plan, seed)`, which owns
//! stream-split RNGs so a faulted run perturbs *only* what the plan
//! says — the base simulation draws are untouched, and the same
//! `(plan, seed)` reproduces the same faulted run bit-for-bit.
//!
//! Fault classes and the ensemble signature each one leaves:
//!
//! | Fault                | Mechanism                                   | Signature                          |
//! |----------------------|---------------------------------------------|------------------------------------|
//! | [`Fault::SlowOst`]   | extra service ∝ bytes on one OST            | right shoulder + OST imbalance     |
//! | + `ramp_per_s > 0`   | slowdown grows with virtual time            | per-phase CDF drift (deterioration)|
//! | [`Fault::FlakyFabric`] | duty-cycled link-rate collapse            | right shoulder, *no* OST imbalance |
//! | [`Fault::MdsStall`]  | recurring MDS blackout windows              | shoulder on metadata ops           |
//! | [`Fault::StragglerNode`] | one node's NIC runs slow                | rank-correlated mode split         |
//! | [`Fault::DropRetry`] | timeout + bounded retransmit per RPC        | right-tail mass ≈ drop probability |
//!
//! ## Schedules
//!
//! Production interference arrives in episodes, not steady states: a
//! rebuild starts, a noisy neighbor lands, a link flaps for ten minutes
//! and clears. [`FaultSchedule`] models this as an activation window
//! `[start, end)` in simulated seconds with an optional linear severity
//! ramp at the head. The contract the schedule layer keeps, and that the
//! tests pin bit-for-bit:
//!
//! * **Whole-run ≡ unscheduled.** A schedule covering the entire run
//!   ([`FaultSchedule::ALWAYS`], or any window containing every event
//!   with no ramp in flight) applies a severity weight of exactly `1.0`,
//!   and the injector arithmetic multiplies by that weight in a position
//!   where `× 1.0` is an IEEE-754 identity — the faulted trace is
//!   byte-identical to the unscheduled plan's.
//! * **Outside the window ≡ absent.** When the weight is `0`, the hook
//!   returns early: no span arithmetic and, critically, **no RNG
//!   draws** — an expired, future, or zero-length window is bit-inert,
//!   indistinguishable from the fault not being in the plan at all.
//! * **Severity scales, mechanisms don't.** The weight multiplies the
//!   fault's *excess* (extra service, stall remainder, drop
//!   probability), never its structural parameters (which OST, which
//!   node, the duty-cycle phase), so a ramping fault keeps its
//!   attributable signature from the first event.

use pio_des::{SimRng, SimSpan, SimTime};
use pio_fs::fault::FaultInjector;
use pio_fs::NodeId;

/// One injectable fault. All parameters are deterministic policy; any
/// randomness (drop coin-flips) comes from the injector's own RNG.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// One OST serves slower: every RPC it handles gains
    /// `nominal × (slowdown − 1)` extra service, where `nominal` is the
    /// unperturbed bandwidth-proportional span. With `ramp_per_s > 0`
    /// the excess grows linearly in virtual time — a progressively
    /// degrading target (failing disk, deepening rebuild).
    SlowOst {
        /// Index of the degraded OST.
        ost: usize,
        /// Service-time multiplier at t = 0 (must be ≥ 1).
        slowdown: f64,
        /// Linear growth of the *excess* per virtual second
        /// (0 = constant degradation).
        ramp_per_s: f64,
    },
    /// Fabric link rate collapses intermittently: during the first
    /// `duty` fraction of every `period_s` window, transfers gain
    /// `nominal × (slowdown − 1)` extra fabric service.
    FlakyFabric {
        /// Window length in virtual seconds.
        period_s: f64,
        /// Fraction of each window spent degraded, in `[0, 1]`.
        duty: f64,
        /// Fabric service multiplier while degraded (must be ≥ 1).
        slowdown: f64,
    },
    /// The metadata server blacks out for `stall_s` at the start of
    /// every `period_s` window: operations issued inside a stall are
    /// served only after it ends (failover pause, lock recovery).
    MdsStall {
        /// Window length in virtual seconds.
        period_s: f64,
        /// Stall length at the head of each window (≤ `period_s`).
        stall_s: f64,
    },
    /// One client node's NIC runs slow, stretching every transfer that
    /// node originates by `nominal × (slowdown − 1)`.
    StragglerNode {
        /// The straggling node.
        node: NodeId,
        /// NIC service multiplier (must be ≥ 1).
        slowdown: f64,
    },
    /// Transient request loss: each RPC transmission is dropped with
    /// probability `prob`; every drop costs one `timeout_s` client-side
    /// wait before the retry. At most `max_retries` drops per request,
    /// so completion is always bounded — lost requests surface as
    /// right-tail latency, never deadlock.
    DropRetry {
        /// Per-transmission drop probability in `[0, 1)`.
        prob: f64,
        /// Client retransmit timeout per drop, virtual seconds.
        timeout_s: f64,
        /// Upper bound on consecutive drops of one request.
        max_retries: u32,
    },
}

impl Fault {
    /// Validate parameter ranges; returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Fault::SlowOst {
                slowdown,
                ramp_per_s,
                ..
            } => {
                if slowdown < 1.0 || ramp_per_s < 0.0 {
                    return Err(format!("SlowOst needs slowdown >= 1, ramp >= 0: {self:?}"));
                }
            }
            Fault::FlakyFabric {
                period_s,
                duty,
                slowdown,
            } => {
                if period_s <= 0.0 || !(0.0..=1.0).contains(&duty) || slowdown < 1.0 {
                    return Err(format!(
                        "FlakyFabric needs period > 0, duty in [0,1], slowdown >= 1: {self:?}"
                    ));
                }
            }
            Fault::MdsStall { period_s, stall_s } => {
                if period_s <= 0.0 || stall_s < 0.0 || stall_s > period_s {
                    return Err(format!(
                        "MdsStall needs period > 0 and 0 <= stall <= period: {self:?}"
                    ));
                }
            }
            Fault::StragglerNode { slowdown, .. } => {
                if slowdown < 1.0 {
                    return Err(format!("StragglerNode needs slowdown >= 1: {self:?}"));
                }
            }
            Fault::DropRetry {
                prob, timeout_s, ..
            } => {
                if !(0.0..1.0).contains(&prob) || timeout_s < 0.0 {
                    return Err(format!(
                        "DropRetry needs prob in [0,1) and timeout >= 0: {self:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Activation window for one fault, in simulated seconds.
///
/// The fault is live on `[start_s, end_s)`. With `ramp_s > 0` its
/// severity weight climbs linearly from 0 at `start_s` to 1 at
/// `start_s + ramp_s` (a rebuild deepening, a queue filling); with
/// `ramp_s = 0` it switches on at full severity. Outside the window the
/// weight is exactly 0 and the fault is bit-inert — see
/// [`FaultSchedule::envelope`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSchedule {
    /// Window start, simulated seconds (≥ 0, finite).
    pub start_s: f64,
    /// Window end, simulated seconds, exclusive. `f64::INFINITY` means
    /// the fault never clears. Must be ≥ `start_s` (a zero-length
    /// window is degenerate but legal: it is provably inert).
    pub end_s: f64,
    /// Linear ramp-in length at the head of the window (≥ 0, finite;
    /// 0 = full severity from `start_s`).
    pub ramp_s: f64,
}

impl FaultSchedule {
    /// The whole-run schedule: active from t = 0, never clears, no
    /// ramp. Its envelope is exactly 1 at every instant, so a fault on
    /// this schedule is bit-identical to an unscheduled one.
    pub const ALWAYS: FaultSchedule = FaultSchedule {
        start_s: 0.0,
        end_s: f64::INFINITY,
        ramp_s: 0.0,
    };

    /// A window `[start_s, end_s)` at full severity (no ramp).
    pub fn window(start_s: f64, end_s: f64) -> Self {
        FaultSchedule {
            start_s,
            end_s,
            ramp_s: 0.0,
        }
    }

    /// Builder: set the ramp-in length.
    pub fn with_ramp(mut self, ramp_s: f64) -> Self {
        self.ramp_s = ramp_s;
        self
    }

    /// Validate parameter ranges; returns a description of the problem.
    ///
    /// `end_s == start_s` (a zero-length window) is accepted here — it
    /// is well-defined and inert — but rejected by the CLI spec parser,
    /// where it is invariably a typo.
    pub fn validate(&self) -> Result<(), String> {
        if !self.start_s.is_finite() || self.start_s < 0.0 {
            return Err(format!("schedule start must be finite and >= 0: {self:?}"));
        }
        if self.end_s.is_nan() || self.end_s < self.start_s {
            return Err(format!("schedule end must be >= start: {self:?}"));
        }
        if !self.ramp_s.is_finite() || self.ramp_s < 0.0 {
            return Err(format!("schedule ramp must be finite and >= 0: {self:?}"));
        }
        Ok(())
    }

    /// Severity weight at `at`: 0 outside `[start_s, end_s)`, a linear
    /// climb over the first `ramp_s` seconds, exactly 1 once fully
    /// ramped. The 0 and 1 endpoints are exact (not approximate) —
    /// injector hooks rely on `w == 0` to skip all work and RNG draws,
    /// and on `× 1.0` being an IEEE-754 identity for bit-equality with
    /// the unscheduled fault.
    #[inline]
    pub fn envelope(&self, at: SimTime) -> f64 {
        let t = at.as_secs_f64();
        if t < self.start_s || t >= self.end_s {
            return 0.0;
        }
        if self.ramp_s > 0.0 {
            let w = (t - self.start_s) / self.ramp_s;
            if w < 1.0 {
                return w;
            }
        }
        1.0
    }

    /// Whether this schedule is the whole-run schedule (envelope ≡ 1).
    pub fn is_always(&self) -> bool {
        self.start_s <= 0.0 && self.end_s == f64::INFINITY && self.ramp_s <= 0.0
    }

    /// Whether two windows overlap in time (zero-length windows never
    /// overlap anything).
    pub fn overlaps(&self, other: &FaultSchedule) -> bool {
        self.start_s < other.end_s && other.start_s < self.end_s
    }
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::ALWAYS
    }
}

/// One plan entry: a fault and the window that gates it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// The fault mechanism and its severity parameters.
    pub fault: Fault,
    /// When (in simulated time) the fault is live.
    pub schedule: FaultSchedule,
}

/// A deterministic, seed-reproducible set of faults for one run.
///
/// The plan is pure data; build per-run hooks with
/// [`FaultPlan::fs_injector`] / [`FaultPlan::mpi_injector`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    entries: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a whole-run fault (builder style). Panics on invalid
    /// parameters — a plan is experiment configuration, and a bad one
    /// is a bug at the call site, not a runtime condition.
    pub fn with(self, fault: Fault) -> Self {
        self.with_scheduled(fault, FaultSchedule::ALWAYS)
    }

    /// Add a fault gated by `schedule`. Panics on invalid fault or
    /// schedule parameters, like [`FaultPlan::with`].
    pub fn with_scheduled(mut self, fault: Fault, schedule: FaultSchedule) -> Self {
        if let Err(e) = fault.validate() {
            panic!("invalid fault: {e}");
        }
        if let Err(e) = schedule.validate() {
            panic!("invalid fault: {e}");
        }
        self.entries.push(ScheduledFault { fault, schedule });
        self
    }

    /// The scheduled faults in plan order.
    pub fn entries(&self) -> &[ScheduledFault] {
        &self.entries
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append every entry of `other` (schedules included).
    pub fn merged(mut self, other: &FaultPlan) -> Self {
        self.entries.extend(other.entries.iter().cloned());
        self
    }

    /// Peak number of simultaneously live faults over all time — the
    /// maximum overlap of the entry windows (whole-run entries overlap
    /// everything). Used by spec validation to bound plan complexity.
    pub fn max_concurrent(&self) -> usize {
        // Boundary sweep: +1 at each start, −1 at each finite end.
        let mut bounds: Vec<(f64, i32)> = Vec::with_capacity(self.entries.len() * 2);
        for e in &self.entries {
            if e.schedule.end_s > e.schedule.start_s {
                bounds.push((e.schedule.start_s, 1));
                if e.schedule.end_s.is_finite() {
                    bounds.push((e.schedule.end_s, -1));
                }
            }
        }
        // Ends sort before starts at the same instant (window is
        // half-open, so touching windows do not overlap).
        bounds.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let (mut live, mut peak) = (0i32, 0i32);
        for (_, d) in bounds {
            live += d;
            peak = peak.max(live);
        }
        peak as usize
    }

    /// Hooks for the file-system layer of a run with master seed `seed`.
    pub fn fs_injector(&self, seed: u64) -> PlanInjector {
        PlanInjector::from_plan(self, SimRng::stream(seed, 0xFA01))
    }

    /// Hooks for the MPI message layer of the same run — a separate RNG
    /// stream so message-layer draws never perturb file-system draws.
    pub fn mpi_injector(&self, seed: u64) -> PlanInjector {
        PlanInjector::from_plan(self, SimRng::stream(seed, 0xFA02))
    }
}

/// `SlowOst` entry, pre-matched to its hook.
struct SlowOstEntry {
    ost: usize,
    slowdown: f64,
    ramp_per_s: f64,
    sched: FaultSchedule,
}

/// `FlakyFabric` entry, pre-matched to its hook.
struct FabricEntry {
    period_s: f64,
    duty: f64,
    slowdown: f64,
    sched: FaultSchedule,
}

/// `MdsStall` entry, pre-matched to its hook.
struct MdsEntry {
    period_s: f64,
    stall_s: f64,
    sched: FaultSchedule,
}

/// `StragglerNode` entry, pre-matched to its hook.
struct NicEntry {
    node: NodeId,
    slowdown: f64,
    sched: FaultSchedule,
}

/// `DropRetry` entry, pre-matched to its hook.
struct DropEntry {
    prob: f64,
    timeout_s: f64,
    max_retries: u32,
    sched: FaultSchedule,
}

/// Per-run realization of a [`FaultPlan`]: implements the simulator's
/// [`FaultInjector`] hooks, drawing any randomness from its own
/// stream-split RNG (never the simulator's).
///
/// Entries are partitioned by fault class at construction so each hook
/// touches only the faults that can affect it — a plan full of
/// metadata stalls adds nothing to the data path, and a
/// scheduled-but-inactive fault costs one window compare per hook call.
pub struct PlanInjector {
    slow_ost: Vec<SlowOstEntry>,
    fabric: Vec<FabricEntry>,
    mds: Vec<MdsEntry>,
    nic: Vec<NicEntry>,
    drops: Vec<DropEntry>,
    /// Expiry horizons: once simulated time passes a class's horizon,
    /// every window in that class's entry list has closed and the hook
    /// degenerates to one integer compare. `0` for an empty list,
    /// `u64::MAX` when any entry never clears. Horizons are rounded up,
    /// so a pre-horizon call still evaluates the exact envelopes —
    /// the gate is an early-out, never a semantic change.
    slow_ost_until: u64,
    fabric_until: u64,
    mds_until: u64,
    nic_until: u64,
    drops_until: u64,
    rng: SimRng,
}

/// The expiry horizon of a schedule set, in nanoseconds (rounded up).
fn horizon_ns<'e, I: Iterator<Item = &'e FaultSchedule>>(scheds: I) -> u64 {
    scheds
        .map(|s| {
            if s.end_s.is_finite() {
                (s.end_s * 1e9).ceil() as u64
            } else {
                u64::MAX
            }
        })
        .max()
        .unwrap_or(0)
}

/// Excess span for a duty-cycled window fault: is `at` inside the
/// degraded head of its window?
fn in_window(at: SimTime, period_s: f64, frac: f64) -> bool {
    let t = at.as_secs_f64();
    let pos = t - (t / period_s).floor() * period_s;
    pos < period_s * frac
}

impl PlanInjector {
    fn from_plan(plan: &FaultPlan, rng: SimRng) -> Self {
        let mut inj = PlanInjector {
            slow_ost: Vec::new(),
            fabric: Vec::new(),
            mds: Vec::new(),
            nic: Vec::new(),
            drops: Vec::new(),
            slow_ost_until: 0,
            fabric_until: 0,
            mds_until: 0,
            nic_until: 0,
            drops_until: 0,
            rng,
        };
        for e in &plan.entries {
            let sched = e.schedule;
            match e.fault {
                Fault::SlowOst {
                    ost,
                    slowdown,
                    ramp_per_s,
                } => inj.slow_ost.push(SlowOstEntry {
                    ost,
                    slowdown,
                    ramp_per_s,
                    sched,
                }),
                Fault::FlakyFabric {
                    period_s,
                    duty,
                    slowdown,
                } => inj.fabric.push(FabricEntry {
                    period_s,
                    duty,
                    slowdown,
                    sched,
                }),
                Fault::MdsStall { period_s, stall_s } => inj.mds.push(MdsEntry {
                    period_s,
                    stall_s,
                    sched,
                }),
                Fault::StragglerNode { node, slowdown } => {
                    inj.nic.push(NicEntry {
                        node,
                        slowdown,
                        sched,
                    });
                }
                Fault::DropRetry {
                    prob,
                    timeout_s,
                    max_retries,
                } => inj.drops.push(DropEntry {
                    prob,
                    timeout_s,
                    max_retries,
                    sched,
                }),
            }
        }
        inj.slow_ost_until = horizon_ns(inj.slow_ost.iter().map(|e| &e.sched));
        inj.fabric_until = horizon_ns(inj.fabric.iter().map(|e| &e.sched));
        inj.mds_until = horizon_ns(inj.mds.iter().map(|e| &e.sched));
        inj.nic_until = horizon_ns(inj.nic.iter().map(|e| &e.sched));
        inj.drops_until = horizon_ns(inj.drops.iter().map(|e| &e.sched));
        inj
    }

    /// Drop-with-retry delay: geometric number of drops (capped), each
    /// costing one timeout. A fault outside its window draws nothing —
    /// the RNG stream position is exactly what it would be if the entry
    /// were absent from the plan.
    fn drop_delay(&mut self, at: SimTime) -> SimSpan {
        if at.nanos() >= self.drops_until {
            return SimSpan::ZERO;
        }
        let mut total = SimSpan::ZERO;
        for f in &self.drops {
            let w = f.sched.envelope(at);
            if w <= 0.0 {
                continue;
            }
            let prob = f.prob * w;
            let mut drops = 0;
            while drops < f.max_retries && self.rng.bernoulli(prob) {
                drops += 1;
            }
            total += SimSpan::from_secs_f64(drops as f64 * f.timeout_s);
        }
        total
    }
}

impl FaultInjector for PlanInjector {
    fn ost_extra(&mut self, at: SimTime, ost: usize, nominal: SimSpan, _is_read: bool) -> SimSpan {
        if at.nanos() >= self.slow_ost_until {
            return SimSpan::ZERO;
        }
        let mut extra = SimSpan::ZERO;
        for f in &self.slow_ost {
            if f.ost != ost {
                continue;
            }
            let w = f.sched.envelope(at);
            if w <= 0.0 {
                continue;
            }
            let excess = (f.slowdown - 1.0) * (1.0 + f.ramp_per_s * at.as_secs_f64()) * w;
            extra += nominal.scale(excess);
        }
        extra
    }

    fn fabric_extra(&mut self, at: SimTime, nominal: SimSpan) -> SimSpan {
        if at.nanos() >= self.fabric_until {
            return SimSpan::ZERO;
        }
        let mut extra = SimSpan::ZERO;
        for f in &self.fabric {
            let w = f.sched.envelope(at);
            if w <= 0.0 || !in_window(at, f.period_s, f.duty) {
                continue;
            }
            extra += nominal.scale((f.slowdown - 1.0) * w);
        }
        extra
    }

    fn nic_extra(&mut self, at: SimTime, node: NodeId, nominal: SimSpan) -> SimSpan {
        if at.nanos() >= self.nic_until {
            return SimSpan::ZERO;
        }
        let mut extra = SimSpan::ZERO;
        for f in &self.nic {
            if f.node != node {
                continue;
            }
            let w = f.sched.envelope(at);
            if w <= 0.0 {
                continue;
            }
            extra += nominal.scale((f.slowdown - 1.0) * w);
        }
        extra
    }

    fn mds_extra(&mut self, at: SimTime, _nominal: SimSpan) -> SimSpan {
        if at.nanos() >= self.mds_until {
            return SimSpan::ZERO;
        }
        let mut extra = SimSpan::ZERO;
        for f in &self.mds {
            let w = f.sched.envelope(at);
            if w <= 0.0 {
                continue;
            }
            let t = at.as_secs_f64();
            let pos = t - (t / f.period_s).floor() * f.period_s;
            if pos < f.stall_s {
                // Serve only after the stall window ends, scaled by the
                // ramp weight (a half-ramped failover pauses half as
                // long).
                extra += SimSpan::from_secs_f64((f.stall_s - pos) * w);
            }
        }
        extra
    }

    fn rpc_drop_delay(&mut self, at: SimTime) -> SimSpan {
        self.drop_delay(at)
    }

    fn msg_drop_delay(&mut self, at: SimTime) -> SimSpan {
        self.drop_delay(at)
    }

    fn expiry(&self) -> SimTime {
        SimTime(
            self.slow_ost_until
                .max(self.fabric_until)
                .max(self.mds_until)
                .max(self.nic_until)
                .max(self.drops_until),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_equal(a: SimSpan, b: SimSpan) -> bool {
        a == b
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let mut inj = plan.fs_injector(1);
        let nom = SimSpan::from_secs(1);
        for t in 0..50u64 {
            let at = SimTime::from_secs(t);
            assert!(spans_equal(inj.ost_extra(at, 0, nom, true), SimSpan::ZERO));
            assert!(spans_equal(inj.fabric_extra(at, nom), SimSpan::ZERO));
            assert!(spans_equal(inj.nic_extra(at, 0, nom), SimSpan::ZERO));
            assert!(spans_equal(inj.mds_extra(at, nom), SimSpan::ZERO));
            assert!(spans_equal(inj.rpc_drop_delay(at), SimSpan::ZERO));
        }
    }

    #[test]
    fn slow_ost_hits_only_its_target() {
        let plan = FaultPlan::new().with(Fault::SlowOst {
            ost: 2,
            slowdown: 4.0,
            ramp_per_s: 0.0,
        });
        let mut inj = plan.fs_injector(7);
        let nom = SimSpan::from_secs(2);
        let at = SimTime::from_secs(10);
        assert_eq!(inj.ost_extra(at, 2, nom, true), nom.scale(3.0));
        assert_eq!(inj.ost_extra(at, 1, nom, true), SimSpan::ZERO);
        // Other subsystems untouched.
        assert_eq!(inj.fabric_extra(at, nom), SimSpan::ZERO);
        assert_eq!(inj.mds_extra(at, nom), SimSpan::ZERO);
    }

    #[test]
    fn slow_ost_ramp_grows_with_time() {
        let plan = FaultPlan::new().with(Fault::SlowOst {
            ost: 0,
            slowdown: 2.0,
            ramp_per_s: 0.1,
        });
        let mut inj = plan.fs_injector(7);
        let nom = SimSpan::from_secs(1);
        let early = inj.ost_extra(SimTime::ZERO, 0, nom, true);
        let late = inj.ost_extra(SimTime::from_secs(100), 0, nom, true);
        assert!(late.as_secs_f64() > early.as_secs_f64() * 5.0);
    }

    #[test]
    fn flaky_fabric_follows_duty_cycle() {
        let plan = FaultPlan::new().with(Fault::FlakyFabric {
            period_s: 10.0,
            duty: 0.3,
            slowdown: 5.0,
        });
        let mut inj = plan.fs_injector(7);
        let nom = SimSpan::from_secs(1);
        // Head of the window: degraded.
        let bad = inj.fabric_extra(SimTime::from_secs_f64(21.0), nom);
        assert_eq!(bad, nom.scale(4.0));
        // Tail of the window: clean.
        let good = inj.fabric_extra(SimTime::from_secs_f64(27.0), nom);
        assert_eq!(good, SimSpan::ZERO);
    }

    #[test]
    fn mds_stall_serves_after_window_end() {
        let plan = FaultPlan::new().with(Fault::MdsStall {
            period_s: 20.0,
            stall_s: 4.0,
        });
        let mut inj = plan.fs_injector(7);
        let nom = SimSpan::from_secs_f64(0.001);
        // 1 s into the stall: wait the remaining 3 s.
        let d = inj.mds_extra(SimTime::from_secs_f64(41.0), nom);
        assert!((d.as_secs_f64() - 3.0).abs() < 1e-9);
        // Outside the stall: nothing.
        assert_eq!(
            inj.mds_extra(SimTime::from_secs_f64(50.0), nom),
            SimSpan::ZERO
        );
    }

    #[test]
    fn straggler_hits_only_its_node() {
        let plan = FaultPlan::new().with(Fault::StragglerNode {
            node: 3,
            slowdown: 6.0,
        });
        let mut inj = plan.fs_injector(7);
        let nom = SimSpan::from_secs(1);
        assert_eq!(inj.nic_extra(SimTime::ZERO, 3, nom), nom.scale(5.0));
        assert_eq!(inj.nic_extra(SimTime::ZERO, 0, nom), SimSpan::ZERO);
    }

    #[test]
    fn drop_retry_is_bounded_and_seed_reproducible() {
        let plan = FaultPlan::new().with(Fault::DropRetry {
            prob: 0.5,
            timeout_s: 2.0,
            max_retries: 3,
        });
        let draws = |seed: u64| -> Vec<f64> {
            let mut inj = plan.fs_injector(seed);
            (0..200)
                .map(|_| inj.rpc_drop_delay(SimTime::ZERO).as_secs_f64())
                .collect()
        };
        let a = draws(11);
        let b = draws(11);
        let c = draws(12);
        assert_eq!(a, b, "same seed, same drop pattern");
        assert_ne!(a, c, "different seed, different drop pattern");
        // Bounded: at most max_retries × timeout; and with p = 0.5 some
        // request must actually get dropped.
        assert!(a.iter().all(|&d| d <= 3.0 * 2.0 + 1e-9));
        assert!(a.iter().any(|&d| d > 0.0));
    }

    #[test]
    fn fs_and_mpi_injectors_use_independent_streams() {
        let plan = FaultPlan::new().with(Fault::DropRetry {
            prob: 0.4,
            timeout_s: 1.0,
            max_retries: 5,
        });
        let mut fs = plan.fs_injector(9);
        let mut mpi = plan.mpi_injector(9);
        let a: Vec<f64> = (0..100)
            .map(|_| fs.rpc_drop_delay(SimTime::ZERO).as_secs_f64())
            .collect();
        let b: Vec<f64> = (0..100)
            .map(|_| mpi.msg_drop_delay(SimTime::ZERO).as_secs_f64())
            .collect();
        assert_ne!(a, b, "lanes must be decorrelated");
    }

    #[test]
    fn faults_compose_additively() {
        let plan = FaultPlan::new()
            .with(Fault::SlowOst {
                ost: 0,
                slowdown: 2.0,
                ramp_per_s: 0.0,
            })
            .with(Fault::SlowOst {
                ost: 0,
                slowdown: 3.0,
                ramp_per_s: 0.0,
            });
        let mut inj = plan.fs_injector(1);
        let nom = SimSpan::from_secs(1);
        // (2-1) + (3-1) = 3× the nominal span of excess.
        assert_eq!(inj.ost_extra(SimTime::ZERO, 0, nom, false), nom.scale(3.0));
    }

    #[test]
    #[should_panic(expected = "invalid fault")]
    fn invalid_fault_rejected_at_plan_build() {
        let _ = FaultPlan::new().with(Fault::SlowOst {
            ost: 0,
            slowdown: 0.5,
            ramp_per_s: 0.0,
        });
    }

    // ---- schedules ----

    /// Every fault class under test, with its distinguishing parameters.
    fn one_of_each() -> Vec<Fault> {
        vec![
            Fault::SlowOst {
                ost: 1,
                slowdown: 3.0,
                ramp_per_s: 0.05,
            },
            Fault::FlakyFabric {
                period_s: 7.0,
                duty: 0.4,
                slowdown: 5.0,
            },
            Fault::MdsStall {
                period_s: 11.0,
                stall_s: 2.0,
            },
            Fault::StragglerNode {
                node: 2,
                slowdown: 4.0,
            },
            Fault::DropRetry {
                prob: 0.3,
                timeout_s: 1.5,
                max_retries: 4,
            },
        ]
    }

    /// Probe every hook at `at` and collect the raw spans, so two
    /// injectors can be compared bit-for-bit (SimSpan is integer ns).
    fn probe(inj: &mut PlanInjector, at: SimTime) -> [SimSpan; 6] {
        let nom = SimSpan::from_secs_f64(0.125);
        [
            inj.ost_extra(at, 1, nom, true),
            inj.fabric_extra(at, nom),
            inj.nic_extra(at, 2, nom),
            inj.mds_extra(at, nom),
            inj.rpc_drop_delay(at),
            inj.msg_drop_delay(at),
        ]
    }

    fn probe_all(mut inj: PlanInjector) -> Vec<[SimSpan; 6]> {
        // Quarter-second grid over 60 s, plus awkward offsets.
        (0..240)
            .map(|q| SimTime::from_secs_f64(q as f64 * 0.25 + 0.001))
            .map(|at| probe(&mut inj, at))
            .collect()
    }

    #[test]
    fn whole_run_schedule_is_bit_identical_to_unscheduled() {
        for fault in one_of_each() {
            let plain = FaultPlan::new().with(fault.clone());
            let always = FaultPlan::new().with_scheduled(fault.clone(), FaultSchedule::ALWAYS);
            // A finite window containing every probed instant, no ramp,
            // must also be exact: the envelope is exactly 1.0 inside.
            let wide = FaultPlan::new().with_scheduled(fault, FaultSchedule::window(0.0, 1e9));
            let a = probe_all(plain.fs_injector(42));
            let b = probe_all(always.fs_injector(42));
            let c = probe_all(wide.fs_injector(42));
            assert_eq!(a, b, "ALWAYS must be bit-identical to unscheduled");
            assert_eq!(a, c, "covering window must be bit-identical to unscheduled");
        }
    }

    #[test]
    fn expired_and_future_and_zero_length_windows_are_inert() {
        let windows = [
            FaultSchedule::window(1e6, 1e7), // far future
            FaultSchedule::window(0.0, 0.0), // zero-length
            FaultSchedule::window(5.0, 5.0), // zero-length, mid-run
        ];
        for sched in windows {
            let mut plan = FaultPlan::new();
            for fault in one_of_each() {
                plan = plan.with_scheduled(fault, sched);
            }
            for spans in probe_all(plan.fs_injector(13)) {
                assert_eq!(spans, [SimSpan::ZERO; 6], "window {sched:?} must be inert");
            }
        }
    }

    #[test]
    fn inactive_drop_fault_consumes_no_rng_draws() {
        // [expired DropRetry, live DropRetry] must draw exactly the
        // same RNG sequence as the live fault alone: the expired entry
        // consumes zero draws, not zero-probability draws.
        let live = Fault::DropRetry {
            prob: 0.5,
            timeout_s: 1.0,
            max_retries: 6,
        };
        let expired = Fault::DropRetry {
            prob: 0.9,
            timeout_s: 9.0,
            max_retries: 8,
        };
        let with_expired = FaultPlan::new()
            .with_scheduled(expired, FaultSchedule::window(1e6, 1e7))
            .with(live.clone());
        let alone = FaultPlan::new().with(live);
        let seq = |plan: &FaultPlan| -> Vec<SimSpan> {
            let mut inj = plan.fs_injector(77);
            (0..300)
                .map(|i| inj.rpc_drop_delay(SimTime::from_secs(i)))
                .collect()
        };
        assert_eq!(seq(&with_expired), seq(&alone));
    }

    #[test]
    fn window_gates_each_fault_class() {
        let sched = FaultSchedule::window(10.0, 20.0);
        for fault in one_of_each() {
            let plan = FaultPlan::new().with_scheduled(fault.clone(), sched);
            let mut inside = plan.fs_injector(3);
            let mut outside = plan.fs_injector(3);
            // Inside the window the fault behaves exactly like the
            // unscheduled fault does at the same instant.
            let mut plain = FaultPlan::new().with(fault).fs_injector(3);
            let at_in = SimTime::from_secs_f64(14.5);
            assert_eq!(probe(&mut inside, at_in), probe(&mut plain, at_in));
            // Outside (before and after) every hook is zero.
            for t in [0.0, 9.999, 20.0, 35.0] {
                let at = SimTime::from_secs_f64(t);
                assert_eq!(probe(&mut outside, at), [SimSpan::ZERO; 6]);
            }
        }
    }

    #[test]
    fn ramp_scales_severity_linearly() {
        let plan = FaultPlan::new().with_scheduled(
            Fault::StragglerNode {
                node: 2,
                slowdown: 5.0,
            },
            FaultSchedule::window(10.0, 100.0).with_ramp(8.0),
        );
        let mut inj = plan.fs_injector(1);
        let nom = SimSpan::from_secs(1);
        // At start: weight 0 (ramp begins at zero severity).
        assert_eq!(inj.nic_extra(SimTime::from_secs(10), 2, nom), SimSpan::ZERO);
        // Halfway up the ramp: half the excess.
        let half = inj.nic_extra(SimTime::from_secs(14), 2, nom);
        assert_eq!(half, nom.scale(4.0 * 0.5));
        // Fully ramped: the whole excess, exactly.
        let full = inj.nic_extra(SimTime::from_secs(30), 2, nom);
        assert_eq!(full, nom.scale(4.0));
    }

    #[test]
    fn half_open_window_boundary_is_exact() {
        let sched = FaultSchedule::window(10.0, 20.0);
        assert_eq!(sched.envelope(SimTime::from_secs_f64(10.0)), 1.0);
        assert_eq!(sched.envelope(SimTime::from_secs_f64(19.999999)), 1.0);
        assert_eq!(sched.envelope(SimTime::from_secs_f64(20.0)), 0.0);
        assert_eq!(sched.envelope(SimTime::from_secs_f64(9.999999)), 0.0);
    }

    #[test]
    fn max_concurrent_counts_peak_overlap() {
        let f = |ost| Fault::SlowOst {
            ost,
            slowdown: 2.0,
            ramp_per_s: 0.0,
        };
        // Two overlapping + one disjoint + one touching (half-open:
        // [0,10) and [10,20) never coexist).
        let plan = FaultPlan::new()
            .with_scheduled(f(0), FaultSchedule::window(0.0, 10.0))
            .with_scheduled(f(1), FaultSchedule::window(5.0, 15.0))
            .with_scheduled(f(2), FaultSchedule::window(10.0, 20.0))
            .with_scheduled(f(3), FaultSchedule::window(40.0, 50.0));
        assert_eq!(plan.max_concurrent(), 2);
        // Whole-run entries overlap everything.
        let plan = plan.with(f(4));
        assert_eq!(plan.max_concurrent(), 3);
        assert_eq!(FaultPlan::new().max_concurrent(), 0);
    }

    #[test]
    fn schedule_validation_rejects_bad_windows() {
        assert!(FaultSchedule::window(5.0, 4.0).validate().is_err());
        assert!(FaultSchedule::window(-1.0, 4.0).validate().is_err());
        assert!(FaultSchedule::window(0.0, 4.0)
            .with_ramp(-0.5)
            .validate()
            .is_err());
        assert!(FaultSchedule::window(f64::NAN, 4.0).validate().is_err());
        // Zero-length is degenerate but legal (and inert).
        assert!(FaultSchedule::window(3.0, 3.0).validate().is_ok());
        assert!(FaultSchedule::ALWAYS.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fault")]
    fn invalid_schedule_rejected_at_plan_build() {
        let _ = FaultPlan::new().with_scheduled(
            Fault::StragglerNode {
                node: 0,
                slowdown: 2.0,
            },
            FaultSchedule::window(9.0, 3.0),
        );
    }

    #[test]
    fn merged_concatenates_entries() {
        let a = FaultPlan::new().with(Fault::StragglerNode {
            node: 0,
            slowdown: 2.0,
        });
        let b = FaultPlan::new().with_scheduled(
            Fault::MdsStall {
                period_s: 5.0,
                stall_s: 1.0,
            },
            FaultSchedule::window(2.0, 4.0),
        );
        let m = a.clone().merged(&b);
        assert_eq!(m.entries().len(), 2);
        assert_eq!(m.entries()[0], a.entries()[0]);
        assert_eq!(m.entries()[1], b.entries()[0]);
    }
}
