//! The fault × workload matrix: every `pio-fault` fault class run
//! against a workload chosen to expose its ensemble signature, with the
//! paper's detectors doing the attribution.
//!
//! Each cell runs three simulations per seed:
//!
//! 1. a **baseline** (no fault plan) that must *not* show the signature,
//! 2. the **faulted** run that must show it and attribute it correctly,
//! 3. a **repeat** of the faulted run that must be bit-identical —
//!    fault plans are deterministic given `(plan, seed)`.
//!
//! The matrix is the executable statement of the crate's thesis: fault
//! classes are distinguishable *from the shape of the ensemble alone*
//! (right shoulder vs. per-phase drift vs. rank correlation). Every
//! cell asserts the verdict of the *shared* detectors — the same
//! [`pio_core::diagnose`] attribution the batch report and the
//! streaming diagnoser print — rather than re-deriving its own
//! thresholds, so a matrix pass certifies the production detectors.

use pio_core::attribution::{quantized_tail_levels, FaultClass, WindowedProfile, FINE_HIST_BINS};
use pio_core::diagnosis::{run_verdict, Thresholds, Verdict};
use pio_core::EmpiricalDist;
use pio_core::{diagnose, Finding};
use pio_fault::{Fault, FaultPlan, FaultSchedule};
use pio_fs::FsConfig;
use pio_mpi::program::Job;
use pio_mpi::{RunConfig, RunReport, Runner};
use pio_trace::{CallKind, Trace};
use pio_workloads::matrix::{meta_heavy, paced_mixed, paced_reads, read_heavy};

/// What a cell's faulted run must be attributed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// The cell asserts a non-attributed shape (the deterioration ramp).
    Shape,
    /// Exactly this single class, nothing else.
    Single(FaultClass),
    /// A compound plan: the verdict must implicate *both* classes —
    /// either a confident compound verdict or an honest `Ambiguous`
    /// listing them — and no class outside the pair.
    Pair(FaultClass, FaultClass),
}

impl Expect {
    /// The classes this expectation injects (empty for `Shape`).
    pub fn classes(&self) -> Vec<FaultClass> {
        match self {
            Expect::Shape => Vec::new(),
            Expect::Single(c) => vec![*c],
            Expect::Pair(a, b) => vec![*a, *b],
        }
    }
}

/// One fault × workload cell.
pub struct Scenario {
    /// Fault-class label (matrix row).
    pub fault: &'static str,
    /// Workload label (matrix column).
    pub workload: &'static str,
    /// The signature this cell asserts, for the report table.
    pub expect: &'static str,
    /// The attribution `diagnose` must produce on the faulted run.
    pub expected: Expect,
    plan: FaultPlan,
    job: Job,
    fs: FsConfig,
    /// The cell's check over one run and `diagnose`'s findings on it.
    #[allow(clippy::type_complexity)]
    detect: Box<dyn Fn(&RunReport, &[Finding]) -> Result<String, String>>,
}

impl Scenario {
    /// The cell's fault plan (for reuse outside the matrix, e.g. the
    /// attribution corpus test).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The cell's workload.
    pub fn job(&self) -> &Job {
        &self.job
    }

    /// The cell's platform configuration.
    pub fn fs(&self) -> &FsConfig {
        &self.fs
    }
}

/// Outcome of one cell at one seed.
pub struct CellOutcome {
    /// Fault-class label.
    pub fault: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Seed of this row.
    pub seed: u64,
    /// `Ok(signature detail)` when the faulted run shows the expected
    /// signature, `Err(reason)` otherwise.
    pub signature: Result<String, String>,
    /// The baseline run does *not* show the signature.
    pub baseline_clean: bool,
    /// Two faulted runs with the same seed produced identical traces.
    pub reproducible: bool,
}

impl CellOutcome {
    /// Did every assertion of the cell hold?
    pub fn pass(&self) -> bool {
        self.signature.is_ok() && self.baseline_clean && self.reproducible
    }
}

/// The whole-run verdict `diagnose` produces over a run's trace.
pub fn verdict_of(res: &RunReport) -> Verdict {
    run_verdict(&diagnose(res.trace()))
}

/// Assert that `findings` attribute exactly `want` — nothing less (the
/// fault must be named) and nothing more (no cross-contamination from a
/// second, wrong verdict).
fn expect_class(findings: &[Finding], want: FaultClass) -> Result<(), String> {
    let v = run_verdict(findings);
    if v == Verdict::Single(want) {
        Ok(())
    } else {
        Err(format!(
            "verdict {}, want exactly {}",
            v.label(),
            want.name()
        ))
    }
}

/// Assert that a compound plan's verdict names *both* injected classes
/// — confidently, or as an honest `Ambiguous` candidate list — and
/// nothing outside the pair.
fn expect_pair(findings: &[Finding], a: FaultClass, b: FaultClass) -> Result<String, String> {
    let v = run_verdict(findings);
    if !v.implicates(a) || !v.implicates(b) {
        return Err(format!(
            "verdict {} does not name both {} and {}",
            v.label(),
            a.name(),
            b.name()
        ));
    }
    if let Some(extra) = v.classes().iter().find(|c| **c != a && **c != b) {
        return Err(format!(
            "verdict {} implicates {} beyond the injected pair",
            v.label(),
            extra.name()
        ));
    }
    Ok(v.label())
}

/// Build the matrix for one scale. `scale` divides the platform and the
/// task counts exactly like the figure drivers (scale 1 = paper size).
pub fn scenarios(scale: u32) -> Vec<Scenario> {
    let fs = FsConfig::franklin().scaled(scale);
    // The paced cells need a quiet baseline: pin the node service
    // discipline to fair-share so intra-node serialization (a real
    // Franklin effect, but a *different* signature) does not put its own
    // tail on the healthy ensemble and mask the injected fault.
    let mut calm = fs.clone();
    calm.discipline_weights = [0.0, 0.0, 1.0];
    // Cell 8 pins its platform as well as its job (see the cell
    // comment): its detection geometry is calibrated to scale 16.
    let mut calm_at_scale_16 = FsConfig::franklin().scaled(16);
    calm_at_scale_16.discipline_weights = [0.0, 0.0, 1.0];
    let tasks = (256 / scale).max(16);
    let n_osts = fs.n_osts;
    let tasks_per_node = fs.tasks_per_node;

    let mut cells = Vec::new();

    // 1. One slow OST: shoulder on reads, and the busy-time imbalance
    //    points at the degraded target. Runs on the calm platform: under
    //    exclusive/pairs service a rank stuck on the slow OST holds its
    //    node's token, so siblings' reads on *healthy* OSTs inherit the
    //    wait and the per-target differential blurs toward the
    //    attribution threshold (marginal across seeds on both engines).
    let slow_target = 1 % n_osts;
    cells.push(Scenario {
        fault: "slow-ost",
        workload: "ior-read",
        expect: "diagnose attributes slow-ost; imbalance names the target",
        expected: Expect::Single(FaultClass::SlowOst),
        plan: FaultPlan::new().with(Fault::SlowOst {
            ost: slow_target,
            slowdown: 8.0,
            ramp_per_s: 0.0,
        }),
        job: read_heavy(tasks, 2),
        fs: calm.clone(),
        detect: Box::new(move |res, findings| {
            expect_class(findings, FaultClass::SlowOst)?;
            // Resource-level cross-check: the utilization ledger must
            // point at the same target the stripe decomposition blamed.
            let imb = res.util.ost_imbalance();
            let busiest = res
                .util
                .ost_busy_s
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(usize::MAX);
            if busiest != slow_target {
                return Err(format!(
                    "imbalance points at OST {busiest}, fault was on {slow_target}"
                ));
            }
            Ok(format!(
                "slow-ost attributed; busiest OST = {busiest}, imbalance {imb:.1}x"
            ))
        }),
    });

    // 2. Every OST degrading on a ramp: per-phase read medians drift up —
    //    the paper's progressive-deterioration shape from a new cause.
    let ramp_plan = (0..n_osts).fold(FaultPlan::new(), |p, ost| {
        p.with(Fault::SlowOst {
            ost,
            slowdown: 1.5,
            ramp_per_s: 2.0,
        })
    });
    cells.push(Scenario {
        fault: "slow-ost-ramp",
        workload: "ior-read x4",
        expect: "progressive per-phase read deterioration",
        expected: Expect::Shape,
        plan: ramp_plan,
        job: read_heavy(tasks, 4),
        fs: fs.clone(),
        detect: Box::new(|_, findings| {
            let ramp = findings.iter().find(|f| match f {
                Finding::ProgressiveDeterioration { kind, .. } => *kind == CallKind::Read,
                _ => false,
            });
            ramp.map(|f| f.to_string())
                .ok_or_else(|| "no progressive deterioration on reads".into())
        }),
    });

    // 3. Flaky fabric: a shoulder again, but the OST pool stays balanced —
    //    that contrast is what separates "a disk" from "the network".
    cells.push(Scenario {
        fault: "flaky-fabric",
        workload: "paced-read",
        expect: "diagnose attributes flaky-fabric; OST pool balanced",
        expected: Expect::Single(FaultClass::FlakyFabric),
        plan: FaultPlan::new().with(Fault::FlakyFabric {
            period_s: 0.25,
            duty: 0.1,
            slowdown: 40.0,
        }),
        job: paced_reads(tasks, 48, 0.1),
        fs: calm.clone(),
        detect: Box::new(|res, findings| {
            expect_class(findings, FaultClass::FlakyFabric)?;
            let imb = res.util.ost_imbalance();
            if imb >= 1.4 {
                return Err(format!(
                    "OST imbalance {imb:.2} — looks like a disk fault, not fabric"
                ));
            }
            Ok(format!(
                "flaky-fabric attributed; OSTs balanced ({imb:.2}x)"
            ))
        }),
    });

    // 4. MDS stall windows: the shoulder moves to the metadata class.
    cells.push(Scenario {
        fault: "mds-stall",
        workload: "meta-stream",
        expect: "diagnose attributes mds-stall on the metadata class",
        expected: Expect::Single(FaultClass::MdsStall),
        plan: FaultPlan::new().with(Fault::MdsStall {
            period_s: 3.1,
            stall_s: 0.7,
        }),
        job: meta_heavy(tasks, 40),
        fs: fs.clone(),
        detect: Box::new(|_, findings| {
            expect_class(findings, FaultClass::MdsStall)?;
            Ok("mds-stall attributed (meta shoulder, rank-spread tail)".into())
        }),
    });

    // 5. One straggling client node: the tail is *rank-correlated* —
    //    the node's tasks are slow, everyone else is fine.
    cells.push(Scenario {
        fault: "straggler-node",
        workload: "paced-read",
        expect: "diagnose names node-0 ranks as the straggler set",
        expected: Expect::Single(FaultClass::StragglerNode),
        plan: FaultPlan::new().with(Fault::StragglerNode {
            node: 0,
            slowdown: 32.0,
        }),
        job: paced_reads(tasks, 48, 0.1),
        fs: calm.clone(),
        detect: Box::new(move |_, findings| {
            expect_class(findings, FaultClass::StragglerNode)?;
            // The finding must name the faulted node's ranks, not merely
            // notice *some* concentration.
            let culprits = findings
                .iter()
                .find_map(|f| match f {
                    Finding::RankCorrelatedTail { ranks, .. } => Some(ranks),
                    _ => None,
                })
                .ok_or("attributed straggler-node without a rank-correlated finding")?;
            if culprits.is_empty() || !culprits.iter().all(|&r| r < tasks_per_node) {
                return Err(format!(
                    "culprit ranks {culprits:?} not confined to node 0 (ranks < {tasks_per_node})"
                ));
            }
            Ok(format!("straggler attributed to node-0 ranks {culprits:?}"))
        }),
    });

    // 6. Transient drops with retry: right-tail mass tracks the drop
    //    probability — loss surfaces as latency, never deadlock.
    let drop_prob = 0.08;
    cells.push(Scenario {
        fault: "drop-retry",
        workload: "paced-read",
        expect: "diagnose attributes drop-retry; tail mass tracks the rate",
        expected: Expect::Single(FaultClass::DropRetry),
        plan: FaultPlan::new().with(Fault::DropRetry {
            prob: drop_prob,
            timeout_s: 0.3,
            max_retries: 4,
        }),
        job: paced_reads(tasks, 48, 0.1),
        fs: calm.clone(),
        detect: Box::new(move |_, findings| {
            expect_class(findings, FaultClass::DropRetry)?;
            let tail_mass = findings
                .iter()
                .find_map(|f| match f {
                    Finding::RightShoulder {
                        kind: CallKind::Read,
                        tail_mass,
                        ..
                    } => Some(*tail_mass),
                    _ => None,
                })
                .ok_or("attributed drop-retry without a read shoulder")?;
            if tail_mass < drop_prob / 3.0 || tail_mass > 4.0 * drop_prob {
                return Err(format!(
                    "tail mass {tail_mass:.3} does not track drop prob {drop_prob}"
                ));
            }
            Ok(format!(
                "drop-retry attributed; tail mass {tail_mass:.3} tracks drop prob {drop_prob}"
            ))
        }),
    });

    // 7. Compound, separated by *call class*: one slow OST puts the
    //    shoulder on reads while recurring MDS blackouts put a second
    //    shoulder on the metadata stream of the same job. Two findings,
    //    two attributions, one compound verdict.
    cells.push(Scenario {
        fault: "slow-ost+mds-stall",
        workload: "paced-mixed",
        expect: "compound verdict names both the disk and the MDS",
        expected: Expect::Pair(FaultClass::SlowOst, FaultClass::MdsStall),
        plan: FaultPlan::new()
            .with(Fault::SlowOst {
                ost: slow_target,
                slowdown: 8.0,
                ramp_per_s: 0.0,
            })
            .with(Fault::MdsStall {
                period_s: 1.9,
                stall_s: 0.4,
            }),
        job: paced_mixed(tasks, 48, 0.1),
        fs: calm.clone(),
        detect: Box::new(|_, findings| {
            expect_pair(findings, FaultClass::SlowOst, FaultClass::MdsStall)
        }),
    });

    // 8. Compound, separated in *rank space*: node 0 straggles on
    //    everything (the dominant, rank-correlated tail) while a mild
    //    duty-cycled fabric fault slows everyone else's bursts. The
    //    rank-residual pass must find the periodic train hiding in the
    //    non-culprit ranks' tail.
    cells.push(Scenario {
        fault: "straggler+flaky",
        workload: "paced-read",
        expect: "rank residual finds the fabric under the straggler",
        expected: Expect::Pair(FaultClass::FlakyFabric, FaultClass::StragglerNode),
        plan: FaultPlan::new()
            .with(Fault::StragglerNode {
                node: 0,
                slowdown: 64.0,
            })
            .with(Fault::FlakyFabric {
                period_s: 0.25,
                duty: 0.2,
                slowdown: 10.0,
            }),
        // Pinned at 16 ranks AND the scale-16 platform regardless of
        // matrix scale: the rank residual needs node 0's culprit set to
        // stay a material fraction of the job (at 32+ ranks the
        // straggler's share dilutes below the rank-test threshold on
        // some seeds), and the fabric residual needs the duty-cycled
        // bursts to clear the tail cut (on the faster fabric of smaller
        // scale factors the 10x bursts stay under it).
        job: paced_reads(16, 48, 0.1),
        fs: calm_at_scale_16.clone(),
        detect: Box::new(|_, findings| {
            expect_pair(findings, FaultClass::FlakyFabric, FaultClass::StragglerNode)
        }),
    });

    // 9. Compound, separated in *time*: the slow OST is only live in the
    //    first two seconds, the fabric fault only after — per-window
    //    evidence localizes each fault to the windows it owned, where a
    //    whole-run view would see neither test clear its threshold. The
    //    fabric ramps in so its severity sweeps a range of levels (a
    //    retry ladder it is not).
    cells.push(Scenario {
        fault: "slow-ost@early+flaky@late",
        workload: "paced-read",
        expect: "windowed evidence localizes each fault to its episode",
        expected: Expect::Pair(FaultClass::SlowOst, FaultClass::FlakyFabric),
        plan: FaultPlan::new()
            .with_scheduled(
                Fault::SlowOst {
                    ost: slow_target,
                    slowdown: 20.0,
                    ramp_per_s: 0.0,
                },
                FaultSchedule::window(0.0, 2.0),
            )
            .with_scheduled(
                Fault::FlakyFabric {
                    period_s: 0.2,
                    duty: 0.1,
                    slowdown: 18.0,
                },
                FaultSchedule::window(2.0, 64.0).with_ramp(1.2),
            ),
        // Pinned like cell 8: the per-window tests are calibrated to the
        // 16-rank job on the scale-16 platform; on the faster fabric of
        // smaller scale factors the late fabric episode hugs the tail
        // cut and drops below the residual threshold on some seeds.
        job: paced_reads(16, 48, 0.1),
        fs: calm_at_scale_16,
        detect: Box::new(|_, findings| {
            expect_pair(findings, FaultClass::SlowOst, FaultClass::FlakyFabric)
        }),
    });

    cells
}

/// One simulation of `job` on `fs`, optionally under a fault plan.
pub fn run_once(
    job: &Job,
    fs: &FsConfig,
    seed: u64,
    label: &str,
    plan: Option<&FaultPlan>,
) -> RunReport {
    let mut cfg = RunConfig::new(fs.clone(), seed, label);
    if let Some(p) = plan {
        cfg = cfg.with_fault(p.clone());
    }
    Runner::new(job, cfg)
        .execute_one()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Run one cell at one seed: baseline + faulted + repeat. The baseline
/// and the faulted run are each diagnosed once, and the cell's check
/// reads those findings.
pub fn run_cell(s: &Scenario, seed: u64) -> CellOutcome {
    let label = format!("fault-{}", s.fault);
    let base = run_once(&s.job, &s.fs, seed, &label, None);
    let faulted = run_once(&s.job, &s.fs, seed, &label, Some(&s.plan));
    let repeat = run_once(&s.job, &s.fs, seed, &label, Some(&s.plan));
    let reproducible = faulted.trace().records == repeat.trace().records
        && faulted.events == repeat.events
        && faulted.end == repeat.end;
    let check = |res: &RunReport| (s.detect)(res, &diagnose(res.trace()));
    CellOutcome {
        fault: s.fault,
        workload: s.workload,
        seed,
        signature: check(&faulted),
        baseline_clean: check(&base).is_err(),
        reproducible,
    }
}

/// Run the whole matrix: every scenario × every seed.
pub fn run_matrix(scale: u32, seeds: &[u64]) -> Vec<CellOutcome> {
    let mut out = Vec::new();
    for s in scenarios(scale) {
        for &seed in seeds {
            out.push(run_cell(&s, seed));
        }
    }
    out
}

/// Every cell's baseline and faulted trace at every seed, in matrix
/// order (cell, then seed, then baseline before faulted): the traces a
/// matrix run hands to batch diagnosis.
pub fn matrix_traces(scale: u32, seeds: &[u64]) -> Vec<Trace> {
    let mut out = Vec::new();
    for s in scenarios(scale) {
        let label = format!("fault-{}", s.fault);
        for &seed in seeds {
            for plan in [None, Some(&s.plan)] {
                out.push(run_once(&s.job, &s.fs, seed, &label, plan).into_trace());
            }
        }
    }
    out
}

/// Did every cell pass?
pub fn all_pass(cells: &[CellOutcome]) -> bool {
    cells.iter().all(CellOutcome::pass)
}

/// The no-fault inertness contract: a `None` plan and an empty plan
/// produce bit-identical traces (no RNG draws, no perturbation).
pub fn empty_plan_is_inert(scale: u32, seed: u64) -> bool {
    let fs = FsConfig::franklin().scaled(scale);
    let job = read_heavy((256 / scale).max(16), 1);
    let none = run_once(&job, &fs, seed, "inert", None);
    let empty = run_once(&job, &fs, seed, "inert", Some(&FaultPlan::new()));
    none.trace().records == empty.trace().records
        && none.events == empty.events
        && none.end == empty.end
}

/// Per-window attribution evidence for every compound (pair) cell: one
/// table per cell × seed showing, for each populated evidence window,
/// the tail-event count and which positional fingerprints fire there
/// (rank-correlated straggler, stripe-target slow OST, quantized
/// drop/retry levels), plus the whole-run verdict line. This is exactly
/// the per-window evidence `attribute_data_tail_windowed` consumes, so
/// when a compound verdict regresses the artifact shows *which windows*
/// stopped carrying which fingerprint without rerunning the matrix.
pub fn per_window_report(scale: u32, seeds: &[u64]) -> String {
    use std::fmt::Write;
    let th = Thresholds::default();
    let mut out = String::new();
    for s in scenarios(scale) {
        let Expect::Pair(a, b) = s.expected else {
            continue;
        };
        for &seed in seeds {
            let label = format!("fault-{}", s.fault);
            let res = run_once(&s.job, &s.fs, seed, &label, Some(&s.plan));
            writeln!(out, "== {} / {} (seed {seed}) ==", s.fault, s.workload).unwrap();
            writeln!(
                out,
                "injected: {} + {}   verdict: {}",
                a.name(),
                b.name(),
                verdict_of(&res).label()
            )
            .unwrap();
            for kind in [CallKind::Read, CallKind::Write] {
                let recs: Vec<_> = res
                    .trace()
                    .records
                    .iter()
                    .filter(|r| r.call == kind)
                    .collect();
                if recs.len() < th.min_samples {
                    continue;
                }
                let samples: Vec<f64> = recs.iter().map(|r| r.secs()).collect();
                let median = EmpiricalDist::new(&samples).median();
                let cut = th.tail_cut(median);
                let mut windows = WindowedProfile::new(
                    th.attr_window_s,
                    th.attr_max_windows,
                    th.stripe_bytes,
                    FINE_HIST_BINS,
                );
                for r in &recs {
                    windows.add(r.rank, r.offset, r.start_ns, r.secs());
                }
                writeln!(
                    out,
                    "{kind:?}: median {median:.4}s, tail cut {cut:.4}s, window {:.1}s",
                    windows.width_s()
                )
                .unwrap();
                writeln!(
                    out,
                    "  {:<8} {:<12} {:>6}  {:<22} {:<18} quantized",
                    "window", "span (s)", "tail", "straggler", "slow-ost"
                )
                .unwrap();
                for (i, slot) in windows.populated() {
                    let counts = slot.hist.counts();
                    let tail_ev: u64 = (0..slot.hist.bins())
                        .filter(|&j| slot.hist.bin_center(j) > cut)
                        .map(|j| counts[j])
                        .sum();
                    let straggler = slot
                        .profile
                        .rank_correlated(cut, &th)
                        .map_or("-".to_string(), |rt| {
                            format!("ranks {:?} @{:.0}%", rt.ranks, rt.tail_share * 100.0)
                        });
                    let slow_ost =
                        slot.profile
                            .target_correlated(cut, &th)
                            .map_or("-".to_string(), |tt| {
                                format!(
                                    "ost {}%{} @{:.0}%",
                                    tt.residue,
                                    tt.modulus,
                                    tt.tail_share * 100.0
                                )
                            });
                    let quantized = quantized_tail_levels(&slot.hist, cut, th.tail_min_events)
                        .map_or("-".to_string(), |lv| format!("{lv} levels"));
                    let w = windows.width_s();
                    writeln!(
                        out,
                        "  {:<8} {:<12} {:>6}  {:<22} {:<18} {}",
                        i,
                        format!("{:.1}-{:.1}", i as f64 * w, (i + 1) as f64 * w),
                        tail_ev,
                        straggler,
                        slow_ost,
                        quantized
                    )
                    .unwrap();
                }
            }
            writeln!(out).unwrap();
        }
    }
    out
}

/// Render the matrix as a fixed-width table.
pub fn render(cells: &[CellOutcome]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<15} {:<12} {:>5}  {:<5} {:<6} {:<7} detail",
        "fault", "workload", "seed", "sig", "base", "repro"
    )
    .unwrap();
    for c in cells {
        let (sig, detail) = match &c.signature {
            Ok(d) => ("ok", d.clone()),
            Err(e) => ("MISS", e.clone()),
        };
        writeln!(
            out,
            "{:<15} {:<12} {:>5}  {:<5} {:<6} {:<7} {}",
            c.fault,
            c.workload,
            c.seed,
            sig,
            if c.baseline_clean { "clean" } else { "DIRTY" },
            if c.reproducible { "exact" } else { "DRIFT" },
            detail
        )
        .unwrap();
    }
    out
}
