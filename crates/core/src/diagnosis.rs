//! Bottleneck detectors — the paper's methodology distilled into code.
//!
//! Each of the paper's three case studies reads a different signature out
//! of the ensemble:
//!
//! * **Harmonic modes** (IOR, Fig. 1c): peaks at T, T/2, T/4 ⇒ one or two
//!   tasks per node monopolize node I/O resources.
//! * **Right shoulder** (MADbench, Fig. 4c): a read histogram whose slow
//!   tail stretches far beyond the main mode ⇒ pathological middleware
//!   behaviour (the strided read-ahead bug).
//! * **Progressive deterioration** (MADbench, Fig. 5a): per-phase CDFs
//!   getting worse phase over phase ⇒ cumulative resource exhaustion
//!   (read-ahead window growth under memory pressure).
//! * **Serialized rank** (GCRM, Fig. 6g): one rank owning the bulk of
//!   metadata time ⇒ serialized middleware metadata, fixed by
//!   aggregation.
//!
//! [`diagnose`] is the one batch entry point: one pass over the records
//! gathers every detector's evidence, and the figure drivers, the fault
//! matrix, the reports and the benchmarks all read its findings. The
//! `*_verdict` functions are the evidence→finding tests it shares with
//! the stream diagnoser in `pio-ingest`. The test module keeps a
//! per-detector evidence gather as the oracle the one pass must match.

use crate::attribution::{
    attribute_data_tail_windowed, attribute_meta_tail, Attribution, DataTailEvidence, FaultClass,
    TailEvent, TailProfile, WindowedProfile, FINE_HIST_BINS, TAIL_HIST_HI, TAIL_HIST_LO,
};
use crate::empirical::EmpiricalDist;
use crate::modes::{find_modes, harmonic_structure, Mode};
use pio_des::hist::{BinTable, LogBins, LogHistogram};
use pio_trace::{CallKind, Record, Trace};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// Detector thresholds (defaults chosen to match the paper's examples).
/// Mode finding has its one setting in [`crate::modes`].
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Minimum samples before any distributional claim.
    pub min_samples: usize,
    /// Right shoulder: p99/median ratio that counts as pathological.
    pub shoulder_tail_ratio: f64,
    /// Right shoulder: minimum mass beyond 2× median.
    pub shoulder_mass: f64,
    /// Progressive deterioration: median growth factor first→last phase.
    pub deterioration_factor: f64,
    /// Serialized rank: share of total I/O time concentrated in one rank.
    pub serialized_share: f64,
    /// Serialized rank: minimum operation count before the concentration
    /// counts as the "many small serialized operations" pathology (a
    /// handful of large aggregated writes is the *fix*, not the bug).
    pub serialized_min_ops: usize,
    /// Tail cut as a multiple of the class median: events slower than
    /// `tail_cut_ratio × median` belong to the tail. The single source
    /// of truth for every shoulder/tail detector, batch and streaming.
    pub tail_cut_ratio: f64,
    /// Rank-correlated tail: fraction of the tail mass the culprit rank
    /// set must own.
    pub tail_rank_share: f64,
    /// Rank-correlated tail: ceiling on the culprit set as a fraction of
    /// observed ranks.
    pub tail_rank_frac: f64,
    /// Rank-correlated tail: culprit per-op mean must exceed the rest by
    /// this factor (separates a straggler node, slow on *everything*,
    /// from harmonic arbitration losers).
    pub tail_mean_ratio: f64,
    /// Minimum tail events before any tail-decomposition claim.
    pub tail_min_events: usize,
    /// Storage-target tail: share of tail mass one stripe residue class
    /// must own.
    pub target_tail_share: f64,
    /// Metadata shoulder: writes below this byte count form the small
    /// size class (the paper's sub-3KB GCRM writes).
    pub small_write_bytes: u64,
    /// Metadata shoulder: small-class share of total write time that
    /// counts as material.
    pub small_time_share: f64,
    /// Metadata shoulder: serialization check — small-class busy seconds
    /// divided by the small-class wall-clock span must not exceed this
    /// (parallel small writes overlap; serialized ones do not).
    pub small_overlap: f64,
    /// Flaky fabric: minimum periodic bursts before the tail counts as
    /// duty-cycled.
    pub flaky_min_bursts: usize,
    /// Flaky fabric: ceiling on the burst-gap coefficient of variation.
    pub flaky_period_cv: f64,
    /// Stripe size used to fold offsets onto storage targets.
    pub stripe_bytes: u64,
    /// Windowed attribution: width of one evidence window, simulated
    /// seconds. A fault that clears mid-run is localized to the windows
    /// it was live in.
    pub attr_window_s: f64,
    /// Windowed attribution: window count ceiling. Records past the
    /// covered span pool into the last window (bounded memory, graceful
    /// localization loss on long runs).
    pub attr_max_windows: usize,
    /// Compound attribution: a residue must own at least this fraction
    /// of the tail mass before a second class (or an ambiguity) is
    /// claimed — keeps single-fault runs single-class.
    pub compound_share: f64,
}

impl Thresholds {
    /// The duration beyond which an event belongs to the tail, given the
    /// class median.
    pub fn tail_cut(&self, median: f64) -> f64 {
        self.tail_cut_ratio * median
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            min_samples: 32,
            shoulder_tail_ratio: 4.0,
            shoulder_mass: 0.02,
            deterioration_factor: 1.5,
            serialized_share: 0.25,
            serialized_min_ops: 64,
            tail_cut_ratio: 2.0,
            tail_rank_share: 0.70,
            tail_rank_frac: 0.25,
            tail_mean_ratio: 2.0,
            tail_min_events: 16,
            target_tail_share: 0.60,
            small_write_bytes: 3072,
            small_time_share: 0.05,
            small_overlap: 1.5,
            flaky_min_bursts: 10,
            flaky_period_cv: 0.35,
            stripe_bytes: 1 << 20,
            attr_window_s: 2.0,
            attr_max_windows: 16,
            compound_share: 0.25,
        }
    }
}

/// One diagnostic finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// Modes at T, T/2, … ⇒ intra-node I/O serialization.
    HarmonicModes {
        /// Which call class exhibits it.
        kind: CallKind,
        /// The fundamental (slowest) mode location, seconds.
        fundamental: f64,
        /// Harmonic orders present (1 = T, 2 = T/2, 4 = T/4, …).
        orders: Vec<u32>,
    },
    /// A slow tail far beyond the main mode ⇒ middleware pathology.
    RightShoulder {
        /// Which call class exhibits it.
        kind: CallKind,
        /// Median duration, seconds.
        median: f64,
        /// 99th percentile duration, seconds.
        p99: f64,
        /// Fraction of events slower than the tail cut.
        tail_mass: f64,
        /// What the tail decomposition points at, when the evidence
        /// supports anything: a single class, a compound verdict naming
        /// several, or an ambiguous candidate list. `None` keeps the
        /// paper's default middleware-pathology reading.
        attribution: Option<Attribution>,
    },
    /// Per-phase medians growing ⇒ cumulative resource exhaustion.
    ProgressiveDeterioration {
        /// Which call class exhibits it.
        kind: CallKind,
        /// `(phase, median seconds)` for the affected phases.
        phase_medians: Vec<(u32, f64)>,
        /// Last/first median ratio.
        factor: f64,
    },
    /// One rank owns a dominant share of (metadata) I/O time.
    SerializedRank {
        /// The dominating rank.
        rank: u32,
        /// Its share of total I/O time in the examined class.
        share: f64,
        /// Whether the concentration is in metadata operations.
        metadata: bool,
    },
    /// The ensemble tail concentrates on a few ranks that are slow on
    /// everything ⇒ straggler client node(s).
    RankCorrelatedTail {
        /// Which call class exhibits it.
        kind: CallKind,
        /// The culprit ranks, ascending.
        ranks: Vec<u32>,
        /// Culprits as a fraction of observed ranks.
        rank_frac: f64,
        /// Fraction of tail mass the culprits own.
        tail_share: f64,
        /// Culprit per-op mean over the rest's per-op mean.
        mean_ratio: f64,
    },
    /// A serialized sub-3KB write class owned by one rank ⇒ the paper's
    /// GCRM metadata storm.
    MetadataShoulder {
        /// Operations in the small size class.
        small_ops: u64,
        /// Small-class share of total write time.
        small_share: f64,
        /// The rank owning the class.
        rank: u32,
        /// Its share of small-class time.
        rank_share: f64,
    },
}

impl Finding {
    /// The attribution this finding carries, if any. Intrinsic (and
    /// always single-class) for the dedicated detectors; carried
    /// explicitly — possibly compound or ambiguous — on shoulders.
    pub fn attribution(&self) -> Option<Attribution> {
        match self {
            Finding::RightShoulder { attribution, .. } => attribution.clone(),
            Finding::RankCorrelatedTail { .. } => {
                Some(Attribution::single(FaultClass::StragglerNode))
            }
            Finding::MetadataShoulder { .. } => {
                Some(Attribution::single(FaultClass::MetadataStorm))
            }
            Finding::SerializedRank { metadata: true, .. } => {
                Some(Attribution::single(FaultClass::MetadataStorm))
            }
            _ => None,
        }
    }
}

/// A whole-run verdict assembled from every finding's attribution —
/// what the fault matrix asserts on and what fleetd reports per job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// No finding carried an attribution.
    Clean,
    /// Exactly one fault class implicated, confidently.
    Single(FaultClass),
    /// Several classes implicated, each independently evidenced
    /// (ascending, deduplicated).
    Compound(Vec<FaultClass>),
    /// The evidence could not separate these candidates (ascending,
    /// deduplicated; the confidently-implicated classes, if any, are
    /// included so the list is the complete suspect set).
    Ambiguous(Vec<FaultClass>),
}

impl Verdict {
    /// Every implicated (or candidate) class, ascending.
    pub fn classes(&self) -> &[FaultClass] {
        match self {
            Verdict::Clean => &[],
            Verdict::Single(c) => std::slice::from_ref(c),
            Verdict::Compound(cs) | Verdict::Ambiguous(cs) => cs,
        }
    }

    /// Whether `class` appears, confidently or as a candidate.
    pub fn implicates(&self, class: FaultClass) -> bool {
        self.classes().contains(&class)
    }

    /// Whether the verdict names candidates it could not separate.
    pub fn is_ambiguous(&self) -> bool {
        matches!(self, Verdict::Ambiguous(_))
    }

    /// Stable identifier: `"clean"`, `"slow-ost"`,
    /// `"mds-stall+slow-ost"`, `"ambiguous(flaky-fabric|straggler-node)"`
    /// (matrix tables, CI artifacts, fleetd reports).
    pub fn label(&self) -> String {
        match self {
            Verdict::Clean => "clean".into(),
            Verdict::Single(c) => c.name().into(),
            Verdict::Compound(cs) => cs.iter().map(|c| c.name()).collect::<Vec<_>>().join("+"),
            Verdict::Ambiguous(cs) => format!(
                "ambiguous({})",
                cs.iter().map(|c| c.name()).collect::<Vec<_>>().join("|")
            ),
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Assemble the whole-run [`Verdict`] from a finding set: the union of
/// every finding's attribution. Any ambiguous attribution makes the run
/// verdict ambiguous (listing all candidates plus the confident
/// classes); otherwise the confident classes stand alone.
pub fn run_verdict(findings: &[Finding]) -> Verdict {
    let mut confident: Vec<FaultClass> = Vec::new();
    let mut candidates: Vec<FaultClass> = Vec::new();
    for f in findings {
        if let Some(a) = f.attribution() {
            if a.ambiguous {
                candidates.extend(a.classes);
            } else {
                confident.extend(a.classes);
            }
        }
    }
    if !candidates.is_empty() {
        candidates.extend(confident);
        candidates.sort_unstable();
        candidates.dedup();
        return Verdict::Ambiguous(candidates);
    }
    confident.sort_unstable();
    confident.dedup();
    match confident.len() {
        0 => Verdict::Clean,
        1 => Verdict::Single(confident[0]),
        _ => Verdict::Compound(confident),
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::HarmonicModes {
                kind,
                fundamental,
                orders,
            } => write!(
                f,
                "{}: harmonic modes at T={fundamental:.2}s with orders {orders:?} — \
                 intra-node I/O serialization (one or two tasks per node \
                 monopolize node I/O)",
                kind.name()
            ),
            Finding::RightShoulder {
                kind,
                median,
                p99,
                tail_mass,
                attribution,
            } => {
                write!(
                    f,
                    "{}: right shoulder — median {median:.2}s but p99 {p99:.2}s \
                     ({:.1}% of events beyond the tail cut); ",
                    kind.name(),
                    tail_mass * 100.0
                )?;
                match attribution {
                    Some(attr) => write!(f, "attributed to {attr}"),
                    None => write!(f, "suspect middleware read-ahead/caching pathology"),
                }
            }
            Finding::ProgressiveDeterioration {
                kind,
                phase_medians,
                factor,
            } => write!(
                f,
                "{}: progressive per-phase deterioration ({} phases, median \
                 grows {factor:.1}x from first to last) — cumulative resource \
                 exhaustion; phases: {phase_medians:?}",
                kind.name(),
                phase_medians.len()
            ),
            Finding::SerializedRank {
                rank,
                share,
                metadata,
            } => write!(
                f,
                "rank {rank} owns {:.0}% of {} time — serialized {}; \
                 aggregate into fewer, larger operations",
                share * 100.0,
                if *metadata { "metadata" } else { "I/O" },
                if *metadata { "metadata writes" } else { "I/O" }
            ),
            Finding::RankCorrelatedTail {
                kind,
                ranks,
                rank_frac,
                tail_share,
                mean_ratio,
            } => write!(
                f,
                "{}: rank-correlated tail — ranks {ranks:?} ({:.0}% of ranks) \
                 own {:.0}% of tail mass and run {mean_ratio:.1}x slower per \
                 op — straggler client node(s)",
                kind.name(),
                rank_frac * 100.0,
                tail_share * 100.0
            ),
            Finding::MetadataShoulder {
                small_ops,
                small_share,
                rank,
                rank_share,
            } => write!(
                f,
                "small-write shoulder — {small_ops} sub-3KB writes take \
                 {:.0}% of write time, rank {rank} owns {:.0}% of them, \
                 serially — metadata storm; aggregate into fewer, larger \
                 operations",
                small_share * 100.0,
                rank_share * 100.0
            ),
        }
    }
}

/// Harmonic verdict from already-extracted modes. Shared by the batch
/// detector (KDE modes) and the streaming path in `pio-ingest` (modes from
/// a windowed log-histogram grid).
pub fn harmonic_verdict(kind: CallKind, modes: &[Mode]) -> Option<Finding> {
    let h = harmonic_structure(modes)?;
    Some(Finding::HarmonicModes {
        kind,
        fundamental: h.fundamental,
        orders: h.orders,
    })
}

/// Harmonic-mode detector over one call class.
fn harmonics(class: &ClassEvidence, th: &Thresholds) -> Option<Finding> {
    let dist = class.dist(th)?;
    if dist.variance() <= 0.0 {
        return None;
    }
    harmonic_verdict(class.kind, &find_modes(dist))
}

/// Right-shoulder verdict from summary statistics (`n` samples with the
/// given median, p99, and mass beyond the tail cut). Shared by the batch
/// detector (exact order statistics) and the streaming path (sketch
/// estimates). `attribution` carries the tail decomposition's verdict
/// when the caller has one.
pub fn shoulder_verdict(
    kind: CallKind,
    n: usize,
    median: f64,
    p99: f64,
    tail_mass: f64,
    attribution: Option<Attribution>,
    th: &Thresholds,
) -> Option<Finding> {
    if n < th.min_samples || median <= 0.0 {
        return None;
    }
    if p99 / median >= th.shoulder_tail_ratio && tail_mass >= th.shoulder_mass {
        Some(Finding::RightShoulder {
            kind,
            median,
            p99,
            tail_mass,
            attribution,
        })
    } else {
        None
    }
}

/// Right-shoulder (pathological slow tail) detector. A detected shoulder
/// is handed to the tail-decomposition machinery for attribution.
fn right_shoulder(class: &ClassEvidence, th: &Thresholds) -> Option<Finding> {
    let dist = class.dist(th)?;
    let n = class.records.len();
    let median = dist.median();
    let p99 = dist.quantile(0.99);
    let tail_mass = dist.fraction_above(th.tail_cut(median));
    let attribution = shoulder_verdict(class.kind, n, median, p99, tail_mass, None, th)
        .is_some()
        .then(|| attribute_shoulder(class, median, th))
        .flatten();
    shoulder_verdict(class.kind, n, median, p99, tail_mass, attribution, th)
}

/// Decompose a detected shoulder's tail and name the fault class(es)
/// the evidence points at, using the full windowed evidence model:
/// whole-run profile + fine histogram, per-window slices, and
/// rank-tagged tail events.
fn attribute_shoulder(class: &ClassEvidence, median: f64, th: &Thresholds) -> Option<Attribution> {
    let profile = class.profile(th);
    if matches!(class.kind, CallKind::MetaRead | CallKind::MetaWrite) {
        return Some(Attribution::single(attribute_meta_tail(profile, th)));
    }
    // The windowed evidence needs the tail cut, so it is a second pass
    // over the class, taken only when a shoulder fires. It reads the
    // bins the profile was built from.
    let cut = th.tail_cut(median);
    let mut hist = LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
    let mut windows = WindowedProfile::new(
        th.attr_window_s,
        th.attr_max_windows,
        th.stripe_bytes,
        FINE_HIST_BINS,
    );
    let mut events = Vec::new();
    for (r, &fine) in class.records.iter().zip(class.fine_bins()) {
        let secs = r.secs();
        hist.add_clamped_at(fine);
        windows.add_binned(r.rank, r.offset, r.start_ns, secs, fine >> 1, fine);
        if secs > cut {
            events.push(TailEvent {
                start_ns: r.start_ns,
                rank: r.rank,
                secs,
            });
        }
    }
    let ev = DataTailEvidence {
        profile,
        hist: &hist,
        windows: &windows,
        events: &events,
    };
    attribute_data_tail_windowed(&ev, median, th)
}

/// Rank-correlated-tail verdict from an already-built [`TailProfile`]
/// and tail cut. Shared by the batch detector, the online diagnoser,
/// and the snapshot path.
pub fn rank_tail_verdict(
    kind: CallKind,
    profile: &TailProfile,
    cut: f64,
    th: &Thresholds,
) -> Option<Finding> {
    let rt = profile.rank_correlated(cut, th)?;
    Some(Finding::RankCorrelatedTail {
        kind,
        ranks: rt.ranks,
        rank_frac: rt.rank_frac,
        tail_share: rt.tail_share,
        mean_ratio: rt.mean_ratio,
    })
}

/// Rank-correlated-tail detector: fires when ≥`tail_rank_share` of the
/// ensemble tail mass concentrates on ≤`tail_rank_frac` of the ranks
/// *and* those ranks are slower across the board, naming the culprit
/// rank set.
fn rank_correlated_tail(class: &ClassEvidence, th: &Thresholds) -> Option<Finding> {
    let median = class.dist(th)?.median();
    if median <= 0.0 {
        return None;
    }
    rank_tail_verdict(class.kind, class.profile(th), th.tail_cut(median), th)
}

/// Metadata-shoulder verdict from size-class aggregates: `small_ops`
/// operations below the small-write cut taking `small_secs` of
/// `write_secs` total write-direction time, with `top = (rank, secs)`
/// the heaviest small-writer and `span_secs` the small class's
/// wall-clock extent. Shared by the batch detector and the streaming
/// small-write tracker.
pub fn metadata_shoulder_verdict(
    small_ops: u64,
    small_secs: f64,
    write_secs: f64,
    top: Option<(u32, f64)>,
    span_secs: f64,
    th: &Thresholds,
) -> Option<Finding> {
    if (small_ops as usize) < th.serialized_min_ops || small_secs <= 0.0 || write_secs <= 0.0 {
        return None;
    }
    let small_share = small_secs / write_secs;
    if small_share < th.small_time_share {
        return None;
    }
    let (rank, top_secs) = top?;
    let rank_share = top_secs / small_secs;
    if rank_share < th.serialized_share {
        return None;
    }
    // Serialization check: a parallel small-write class overlaps itself
    // (busy time ≫ span is impossible for one serialized actor).
    if span_secs <= 0.0 || small_secs / span_secs > th.small_overlap {
        return None;
    }
    Some(Finding::MetadataShoulder {
        small_ops,
        small_share,
        rank,
        rank_share,
    })
}

/// Size-class-split shoulder detector over sub-`small_write_bytes`
/// write-direction operations (the paper's GCRM signature: thousands of
/// serialized sub-3KB task-0 writes).
fn metadata_shoulder(ev: &Evidence, th: &Thresholds) -> Option<Finding> {
    let small = &ev.small;
    let top = ev
        .ranks
        .iter()
        .filter(|(_, t)| t.small_ops > 0)
        .map(|(&r, t)| (r, t.small_secs))
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
    let span = if small.last_ns > small.first_ns {
        (small.last_ns - small.first_ns) as f64 / 1e9
    } else {
        0.0
    };
    metadata_shoulder_verdict(small.ops, small.secs, ev.write_secs, top, span, th)
}

/// Deterioration verdict over ordered `(group, median)` pairs: fires when
/// the longest run of consecutive increases ending at the last entry spans
/// at least 3 groups and grows by `deterioration_factor`. Shared by the
/// batch detectors and the streaming per-phase path.
pub fn deterioration_verdict(
    kind: CallKind,
    medians: &[(u32, f64)],
    th: &Thresholds,
) -> Option<Finding> {
    if medians.len() < 3 {
        return None;
    }
    let mut start = medians.len() - 1;
    while start > 0 && medians[start - 1].1 < medians[start].1 {
        start -= 1;
    }
    let run = &medians[start..];
    if run.len() < 3 {
        return None;
    }
    let factor = run.last().unwrap().1 / run[0].1.max(1e-300);
    if factor >= th.deterioration_factor {
        Some(Finding::ProgressiveDeterioration {
            kind,
            phase_medians: run.to_vec(),
            factor,
        })
    } else {
        None
    }
}

/// Progressive per-phase deterioration detector.
fn progressive_deterioration(class: &ClassEvidence, th: &Thresholds) -> Option<Finding> {
    // A sort by phase alone groups the class by barrier phase, ascending;
    // each phase's median is then found by selection, which needs no
    // order within the phase. A buffered trace is nearly phase-ordered
    // (phases interleave only where a barrier releases), so the stable
    // sort is close to one pass over its runs.
    let mut by_phase: Vec<(u32, f64)> = class.records.iter().map(|r| (r.phase, r.secs())).collect();
    by_phase.sort_by_key(|&(phase, _)| phase);
    let mut secs = Vec::new();
    let phase_medians: Vec<(u32, f64)> = by_phase
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|group| group.len() >= th.min_samples.min(8))
        .map(|group| {
            secs.clear();
            secs.extend(group.iter().map(|&(_, s)| s));
            (group[0].0, EmpiricalDist::median_of(&mut secs))
        })
        .collect();
    deterioration_verdict(class.kind, &phase_medians, th)
}

/// Progressive deterioration over explicitly ordered sample groups
/// (e.g. "all ranks' m-th middle-phase read" — free-running sections
/// have no per-iteration barrier phases to group by).
pub fn detect_deterioration_in_groups(
    kind: CallKind,
    groups: &[Vec<f64>],
    th: &Thresholds,
) -> Option<Finding> {
    let medians: Vec<(u32, f64)> = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.len() >= th.min_samples.min(8))
        .map(|(i, g)| (i as u32, EmpiricalDist::new(g).median()))
        .collect();
    deterioration_verdict(kind, &medians, th)
}

/// Serialized-metadata verdict from per-rank aggregates: `per_rank` holds
/// `(rank, metadata seconds, metadata ops)` for the candidate heavy ranks
/// (need not be exhaustive — only the maximum matters), `meta_total` the
/// total metadata seconds, and `all_io_time` the total I/O seconds.
/// Shared by the batch detector and the streaming heavy-hitter path.
/// Ties on metadata seconds break to the lowest rank, so the verdict does
/// not depend on the order of `per_rank`.
pub fn serialized_meta_verdict(
    per_rank: &[(u32, f64, usize)],
    meta_total: f64,
    ranks: u32,
    all_io_time: f64,
    th: &Thresholds,
) -> Option<Finding> {
    if meta_total <= 0.0 {
        return None;
    }
    let &(rank, t, ops) = per_rank
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))?;
    let share = t / meta_total;
    // Require genuine concentration: far above 1/ranks, made of *many*
    // operations (the serialization pathology — a handful of large
    // aggregated writes is the fix, not the bug), and material against
    // total I/O time.
    let fair = 1.0 / ranks.max(1) as f64;
    if share >= th.serialized_share
        && share > 10.0 * fair
        && ops >= th.serialized_min_ops
        && t / all_io_time.max(1e-300) >= 0.05
    {
        Some(Finding::SerializedRank {
            rank,
            share,
            metadata: true,
        })
    } else {
        None
    }
}

/// Serialized-rank detector (metadata first, then all I/O).
fn serialized_rank(ev: &Evidence, th: &Thresholds) -> Option<Finding> {
    // Metadata concentration.
    let per_rank: Vec<(u32, f64, usize)> = ev
        .ranks
        .iter()
        .filter(|(_, t)| t.meta_ops > 0)
        .map(|(&r, t)| (r, t.meta_secs, t.meta_ops))
        .collect();
    if let Some(f) =
        serialized_meta_verdict(&per_rank, ev.meta_total, ev.ranks_declared, ev.all_io, th)
    {
        return Some(f);
    }
    // General I/O concentration.
    let total: f64 = ev.ranks.values().map(|t| t.io_secs).sum();
    if total <= 0.0 || ev.ranks.len() < 4 {
        return None;
    }
    let (rank, t) = ev
        .ranks
        .iter()
        .map(|(&r, t)| (r, t.io_secs))
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    let share = t / total;
    let fair = 1.0 / ev.ranks.len() as f64;
    if share >= th.serialized_share && share > 10.0 * fair {
        Some(Finding::SerializedRank {
            rank,
            share,
            metadata: false,
        })
    } else {
        None
    }
}

/// Run every detector over the natural call classes, with the default
/// [`Thresholds`]. The evidence is gathered in one pass over the records;
/// each detector then reads its share of it, with the same f64
/// accumulation order as a detector gathering its class alone (the test
/// module's oracle), so the findings equal the per-detector ones bit for
/// bit.
pub fn diagnose(trace: &Trace) -> Vec<Finding> {
    let th = &Thresholds::default();
    let ev = Evidence::gather(trace, th);
    let [write, read, meta_read, meta_write] = &ev.classes;
    let mut findings = Vec::new();
    for class in [write, read] {
        findings.extend(harmonics(class, th));
        findings.extend(right_shoulder(class, th));
        findings.extend(progressive_deterioration(class, th));
        findings.extend(rank_correlated_tail(class, th));
    }
    // Metadata call classes get the shoulder treatment too — an MDS
    // stall shows up here, not on the data classes.
    for class in [meta_read, meta_write] {
        findings.extend(right_shoulder(class, th));
    }
    findings.extend(serialized_rank(&ev, th));
    findings.extend(metadata_shoulder(&ev, th));
    findings
}

/// The records of one call class, in record order, with the statistics
/// several detectors share, each built once on first need.
struct ClassEvidence<'t> {
    kind: CallKind,
    records: Vec<&'t Record>,
    /// Sorted durations — harmonics, shoulder and rank tail share it.
    dist: OnceCell<EmpiricalDist>,
    /// Each record's duration bin in the fine geometry — the profile and
    /// the shoulder's windowed pass share it.
    fine_bins: OnceCell<Vec<usize>>,
    /// Rank/stripe decomposition — shoulder attribution and rank tail
    /// share it.
    profile: OnceCell<TailProfile>,
}

impl<'t> ClassEvidence<'t> {
    fn new(kind: CallKind) -> Self {
        ClassEvidence {
            kind,
            records: Vec::new(),
            dist: OnceCell::new(),
            fine_bins: OnceCell::new(),
            profile: OnceCell::new(),
        }
    }

    /// The duration distribution, or `None` below `min_samples` (no
    /// distributional claim on fewer).
    fn dist(&self, th: &Thresholds) -> Option<&EmpiricalDist> {
        if self.records.len() < th.min_samples || self.records.is_empty() {
            return None;
        }
        Some(self.dist.get_or_init(|| {
            let mut sorted: Vec<f64> = self.records.iter().map(|r| r.secs()).collect();
            sorted.sort_unstable_by(f64::total_cmp);
            EmpiricalDist::from_sorted_vec(sorted)
        }))
    }

    /// One lookup per record in the shared fine [`BinTable`], instead of
    /// a `ln` per record and geometry. The tail-profile bin is the fine
    /// bin halved: each tail bin nests exactly two fine bins (DESIGN.md
    /// §16), which `TailProfile::add_binned` debug-asserts.
    fn fine_bins(&self) -> &[usize] {
        self.fine_bins.get_or_init(|| {
            let table = BinTable::shared(LogBins::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS));
            self.records
                .iter()
                .map(|r| table.index_clamped(r.secs()))
                .collect()
        })
    }

    fn profile(&self, th: &Thresholds) -> &TailProfile {
        self.profile.get_or_init(|| {
            let mut profile = TailProfile::new(th.stripe_bytes);
            for (r, &fine) in self.records.iter().zip(self.fine_bins()) {
                profile.add_binned(r.rank, r.offset, r.secs(), fine >> 1);
            }
            profile
        })
    }
}

/// Per-rank I/O aggregates.
#[derive(Default)]
struct RankTotals {
    meta_secs: f64,
    meta_ops: usize,
    io_secs: f64,
    small_secs: f64,
    small_ops: u64,
}

/// The write-direction operations below `small_write_bytes`.
struct SmallWrites {
    ops: u64,
    secs: f64,
    first_ns: u64,
    last_ns: u64,
}

/// Everything the detectors read from one trace, gathered in one pass.
/// Every f64 total accumulates in record order.
struct Evidence<'t> {
    /// Write, Read, MetaRead, MetaWrite.
    classes: [ClassEvidence<'t>; 4],
    /// Ranks with at least one I/O record (iterated ascending).
    ranks: BTreeMap<u32, RankTotals>,
    /// The rank count the trace declares.
    ranks_declared: u32,
    /// Metadata seconds, all ranks.
    meta_total: f64,
    /// I/O seconds, all ranks.
    all_io: f64,
    /// Write-direction (Write + MetaWrite) seconds.
    write_secs: f64,
    small: SmallWrites,
}

impl<'t> Evidence<'t> {
    fn gather(trace: &'t Trace, th: &Thresholds) -> Self {
        let mut classes = [
            CallKind::Write,
            CallKind::Read,
            CallKind::MetaRead,
            CallKind::MetaWrite,
        ]
        .map(ClassEvidence::new);
        let mut ranks: BTreeMap<u32, RankTotals> = BTreeMap::new();
        let (mut meta_total, mut all_io, mut write_secs) = (0.0, 0.0, 0.0);
        let mut small = SmallWrites {
            ops: 0,
            secs: 0.0,
            first_ns: u64::MAX,
            last_ns: 0,
        };
        for r in &trace.records {
            let (slot, meta, write) = match r.call {
                CallKind::Write => (0, false, true),
                CallKind::Read => (1, false, false),
                CallKind::MetaRead => (2, true, false),
                CallKind::MetaWrite => (3, true, true),
                _ => continue,
            };
            classes[slot].records.push(r);
            let secs = r.secs();
            let rank = ranks.entry(r.rank).or_default();
            rank.io_secs += secs;
            all_io += secs;
            if meta {
                rank.meta_secs += secs;
                rank.meta_ops += 1;
                meta_total += secs;
            }
            if write {
                write_secs += secs;
                if r.bytes > 0 && r.bytes < th.small_write_bytes {
                    small.ops += 1;
                    small.secs += secs;
                    rank.small_secs += secs;
                    rank.small_ops += 1;
                    small.first_ns = small.first_ns.min(r.start_ns);
                    small.last_ns = small.last_ns.max(r.end_ns);
                }
            }
        }
        Evidence {
            classes,
            ranks,
            ranks_declared: trace.meta.ranks,
            meta_total,
            all_io,
            write_secs,
            small,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_trace::{Record, TraceMeta};

    fn rec(rank: u32, call: CallKind, bytes: u64, t0: f64, dur: f64, phase: u32) -> Record {
        Record {
            rank,
            call,
            fd: 3,
            offset: 0,
            bytes,
            start_ns: (t0 * 1e9) as u64,
            end_ns: ((t0 + dur) * 1e9) as u64,
            phase,
        }
    }

    fn meta(ranks: u32) -> TraceMeta {
        TraceMeta {
            experiment: "diag".into(),
            platform: "test".into(),
            ranks,
            seed: 0,
        }
    }

    // The per-detector oracle: each detector over evidence it gathers
    // alone, with the default thresholds. `diagnose`'s one pass must give
    // the same findings, in order (`diagnose_equals_the_per_detector_oracle`).

    /// One call class's records, gathered on their own.
    fn class_of(trace: &Trace, kind: CallKind) -> ClassEvidence<'_> {
        let mut class = ClassEvidence::new(kind);
        class.records = trace.records.iter().filter(|r| r.call == kind).collect();
        class
    }

    fn detect_harmonics(t: &Trace, kind: CallKind) -> Option<Finding> {
        harmonics(&class_of(t, kind), &Thresholds::default())
    }

    fn detect_right_shoulder(t: &Trace, kind: CallKind) -> Option<Finding> {
        right_shoulder(&class_of(t, kind), &Thresholds::default())
    }

    fn detect_progressive_deterioration(t: &Trace, kind: CallKind) -> Option<Finding> {
        progressive_deterioration(&class_of(t, kind), &Thresholds::default())
    }

    fn detect_rank_correlated_tail(t: &Trace, kind: CallKind) -> Option<Finding> {
        rank_correlated_tail(&class_of(t, kind), &Thresholds::default())
    }

    fn detect_serialized_rank(t: &Trace) -> Option<Finding> {
        let th = Thresholds::default();
        serialized_rank(&Evidence::gather(t, &th), &th)
    }

    fn detect_metadata_shoulder(t: &Trace) -> Option<Finding> {
        let th = Thresholds::default();
        metadata_shoulder(&Evidence::gather(t, &th), &th)
    }

    #[test]
    fn harmonic_trace_detected() {
        let mut t = Trace::new(meta(128));
        // Durations clustered at 8, 16, 32 (with slight spread).
        for i in 0..128u32 {
            let dur = match i % 8 {
                0 => 8.0,
                1..=2 => 16.0,
                _ => 32.0,
            } + (i % 5) as f64 * 0.05;
            t.push(rec(i, CallKind::Write, 1 << 20, 0.0, dur, 0));
        }
        let f = detect_harmonics(&t, CallKind::Write).expect("harmonics");
        match f {
            Finding::HarmonicModes {
                fundamental,
                ref orders,
                ..
            } => {
                assert!((fundamental - 32.0).abs() < 2.0);
                assert!(orders.contains(&2) || orders.contains(&4));
            }
            _ => panic!("wrong finding"),
        }
        // Display renders.
        assert!(f.to_string().contains("harmonic"));
    }

    #[test]
    fn unimodal_trace_not_harmonic() {
        let mut t = Trace::new(meta(64));
        for i in 0..64u32 {
            t.push(rec(
                i,
                CallKind::Write,
                1 << 20,
                0.0,
                10.0 + (i % 7) as f64 * 0.02,
                0,
            ));
        }
        assert!(detect_harmonics(&t, CallKind::Write).is_none());
    }

    #[test]
    fn right_shoulder_detected_on_buggy_reads() {
        let mut t = Trace::new(meta(64));
        for i in 0..60u32 {
            t.push(rec(
                i,
                CallKind::Read,
                1 << 20,
                0.0,
                15.0 + (i % 5) as f64 * 0.1,
                0,
            ));
        }
        // A handful of catastrophic reads (30–500 s).
        for (i, dur) in [(60u32, 90.0), (61, 200.0), (62, 450.0), (63, 35.0)] {
            t.push(rec(i, CallKind::Read, 1 << 20, 0.0, dur, 0));
        }
        let f = detect_right_shoulder(&t, CallKind::Read).expect("shoulder");
        match f {
            Finding::RightShoulder {
                median,
                p99,
                tail_mass,
                ..
            } => {
                assert!((median - 15.2).abs() < 1.0);
                assert!(p99 > 100.0);
                assert!(tail_mass > 0.03);
            }
            _ => panic!("wrong finding"),
        }
    }

    #[test]
    fn healthy_reads_have_no_shoulder() {
        let mut t = Trace::new(meta(64));
        for i in 0..64u32 {
            t.push(rec(
                i,
                CallKind::Read,
                1 << 20,
                0.0,
                15.0 + (i % 5) as f64 * 0.2,
                0,
            ));
        }
        assert!(detect_right_shoulder(&t, CallKind::Read).is_none());
    }

    #[test]
    fn progressive_deterioration_detected() {
        let mut t = Trace::new(meta(32));
        // Phases 0..5 with read medians 10, 10, 12, 20, 35, 60.
        let medians = [10.0, 10.0, 12.0, 20.0, 35.0, 60.0];
        for (p, &m) in medians.iter().enumerate() {
            for i in 0..32u32 {
                t.push(rec(
                    i,
                    CallKind::Read,
                    1 << 20,
                    p as f64 * 100.0,
                    m + (i % 3) as f64 * 0.1,
                    p as u32,
                ));
            }
        }
        let f = detect_progressive_deterioration(&t, CallKind::Read).expect("deterioration");
        match f {
            Finding::ProgressiveDeterioration {
                factor,
                ref phase_medians,
                ..
            } => {
                assert!(factor > 2.0, "{factor}");
                assert!(phase_medians.len() >= 4);
                assert_eq!(phase_medians.last().unwrap().0, 5);
            }
            _ => panic!("wrong finding"),
        }
    }

    #[test]
    fn grouped_deterioration_detector() {
        let growing: Vec<Vec<f64>> = [5.0, 6.0, 9.0, 16.0, 30.0]
            .iter()
            .map(|&m| (0..16).map(|i| m + (i % 3) as f64 * 0.05).collect())
            .collect();
        let f = detect_deterioration_in_groups(CallKind::Read, &growing, &Thresholds::default())
            .expect("must fire");
        match f {
            Finding::ProgressiveDeterioration { factor, .. } => assert!(factor > 3.0),
            _ => panic!("wrong finding"),
        }
        let flat: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..16).map(|i| 5.0 + (i % 3) as f64 * 0.05).collect())
            .collect();
        assert!(
            detect_deterioration_in_groups(CallKind::Read, &flat, &Thresholds::default()).is_none()
        );
    }

    #[test]
    fn flat_phases_not_deteriorating() {
        let mut t = Trace::new(meta(32));
        for p in 0..6u32 {
            for i in 0..32u32 {
                t.push(rec(
                    i,
                    CallKind::Read,
                    1 << 20,
                    p as f64 * 100.0,
                    10.0 + (i % 3) as f64 * 0.1,
                    p,
                ));
            }
        }
        assert!(detect_progressive_deterioration(&t, CallKind::Read).is_none());
    }

    #[test]
    fn serialized_metadata_rank_detected() {
        let mut t = Trace::new(meta(256));
        // Rank 0 does 500 slow metadata writes; everyone does some data I/O.
        for i in 0..500 {
            t.push(rec(0, CallKind::MetaWrite, 2048, i as f64, 0.3, 0));
        }
        for i in 0..256u32 {
            t.push(rec(i, CallKind::Write, 1 << 20, 0.0, 1.0, 0));
        }
        let f = detect_serialized_rank(&t).expect("serialized");
        match f {
            Finding::SerializedRank {
                rank,
                share,
                metadata,
            } => {
                assert_eq!(rank, 0);
                assert!(share > 0.9);
                assert!(metadata);
            }
            _ => panic!("wrong finding"),
        }
    }

    #[test]
    fn balanced_trace_has_no_serialized_rank() {
        let mut t = Trace::new(meta(64));
        for i in 0..64u32 {
            t.push(rec(i, CallKind::Write, 1 << 20, 0.0, 1.0, 0));
            t.push(rec(i, CallKind::MetaWrite, 2048, 1.0, 0.01, 0));
        }
        assert!(detect_serialized_rank(&t).is_none());
    }

    #[test]
    fn diagnose_collects_multiple_findings() {
        let mut t = Trace::new(meta(256));
        // Harmonic writes + serialized metadata.
        for i in 0..128u32 {
            let dur = if i % 4 == 0 { 16.0 } else { 32.0 };
            t.push(rec(
                i,
                CallKind::Write,
                1 << 20,
                0.0,
                dur + (i % 5) as f64 * 0.03,
                0,
            ));
        }
        for i in 0..700 {
            t.push(rec(0, CallKind::MetaWrite, 2048, i as f64, 0.5, 0));
        }
        let findings = diagnose(&t);
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, Finding::HarmonicModes { .. })),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, Finding::SerializedRank { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn empty_trace_diagnoses_nothing() {
        let t = Trace::new(meta(0));
        assert!(diagnose(&t).is_empty());
    }

    /// The default thresholds are the single source of truth for every
    /// consumer (batch, streaming, fault matrix, tests). Pin them so a
    /// drive-by edit cannot silently re-tune the whole stack.
    #[test]
    fn default_thresholds_are_pinned() {
        let th = Thresholds::default();
        assert_eq!(th.min_samples, 32);
        assert_eq!(th.shoulder_tail_ratio, 4.0);
        assert_eq!(th.shoulder_mass, 0.02);
        assert_eq!(th.deterioration_factor, 1.5);
        assert_eq!(th.serialized_share, 0.25);
        assert_eq!(th.serialized_min_ops, 64);
        assert_eq!(th.tail_cut_ratio, 2.0);
        assert_eq!(th.tail_rank_share, 0.70);
        assert_eq!(th.tail_rank_frac, 0.25);
        assert_eq!(th.tail_mean_ratio, 2.0);
        assert_eq!(th.tail_min_events, 16);
        assert_eq!(th.target_tail_share, 0.60);
        assert_eq!(th.small_write_bytes, 3072);
        assert_eq!(th.small_time_share, 0.05);
        assert_eq!(th.small_overlap, 1.5);
        assert_eq!(th.flaky_min_bursts, 10);
        assert_eq!(th.flaky_period_cv, 0.35);
        assert_eq!(th.stripe_bytes, 1 << 20);
        assert_eq!(th.attr_window_s, 2.0);
        assert_eq!(th.attr_max_windows, 16);
        assert_eq!(th.compound_share, 0.25);
        // The tail cut derives from the ratio — everyone must call this,
        // not re-derive "2× median" locally.
        assert_eq!(th.tail_cut(15.0), 30.0);
    }

    fn straggler_trace(ranks: u32, per_rank: usize, slow: &[u32]) -> Trace {
        let mut t = Trace::new(meta(ranks));
        for rank in 0..ranks {
            let dur = if slow.contains(&rank) { 0.8 } else { 0.02 };
            for i in 0..per_rank {
                t.push(rec(
                    rank,
                    CallKind::Read,
                    1 << 20,
                    i as f64,
                    dur + (i % 3) as f64 * 0.001,
                    0,
                ));
            }
        }
        t
    }

    #[test]
    fn rank_correlated_tail_names_the_stragglers() {
        let t = straggler_trace(16, 32, &[3, 11]);
        let f = detect_rank_correlated_tail(&t, CallKind::Read).expect("must fire");
        match &f {
            Finding::RankCorrelatedTail {
                ranks, mean_ratio, ..
            } => {
                assert_eq!(ranks, &vec![3, 11]);
                assert!(*mean_ratio > 10.0);
            }
            other => panic!("wrong finding {other:?}"),
        }
        assert_eq!(
            f.attribution(),
            Some(Attribution::single(FaultClass::StragglerNode))
        );
        assert!(f.to_string().contains("straggler"));
    }

    #[test]
    fn uniform_tail_is_not_rank_correlated() {
        // Every rank has the same occasional slow op.
        let mut t = Trace::new(meta(16));
        for rank in 0..16u32 {
            for i in 0..32 {
                let dur = if i % 8 == 0 { 0.8 } else { 0.02 };
                t.push(rec(rank, CallKind::Read, 1 << 20, i as f64, dur, 0));
            }
        }
        assert!(detect_rank_correlated_tail(&t, CallKind::Read).is_none());
    }

    #[test]
    fn metadata_shoulder_fires_on_serialized_small_writes() {
        let mut t = Trace::new(meta(64));
        // Rank 0: 300 serialized 2KB writes, back to back.
        for i in 0..300u64 {
            t.push(rec(0, CallKind::Write, 2048, i as f64 * 0.1, 0.1, 0));
        }
        // Everyone else: large writes.
        for rank in 0..64u32 {
            t.push(rec(rank, CallKind::Write, 8 << 20, 0.0, 2.0, 0));
        }
        let f = detect_metadata_shoulder(&t).expect("must fire");
        match &f {
            Finding::MetadataShoulder {
                small_ops,
                rank,
                rank_share,
                ..
            } => {
                assert_eq!(*small_ops, 300);
                assert_eq!(*rank, 0);
                assert!(*rank_share > 0.99);
            }
            other => panic!("wrong finding {other:?}"),
        }
        assert_eq!(
            f.attribution(),
            Some(Attribution::single(FaultClass::MetadataStorm))
        );
    }

    #[test]
    fn parallel_small_writes_are_not_a_metadata_shoulder() {
        // The same volume of small writes, issued concurrently by 64
        // ranks: busy time far exceeds the span, so the serialization
        // check must veto (and no rank dominates anyway).
        let mut t = Trace::new(meta(64));
        for rank in 0..64u32 {
            for i in 0..8u64 {
                t.push(rec(rank, CallKind::Write, 2048, i as f64 * 0.1, 0.1, 0));
            }
        }
        assert!(detect_metadata_shoulder(&t).is_none());
    }

    #[test]
    fn new_detectors_are_shuffle_invariant() {
        // Aggregation-based detectors must not care about record order:
        // culprit sets and size-class counts are integer-exact, so they
        // survive any permutation of the stream.
        let mut t = Trace::new(meta(16));
        for rank in 0..16u32 {
            let dur = if rank == 5 { 0.8 } else { 0.02 };
            for i in 0..24 {
                t.push(rec(rank, CallKind::Read, 1 << 20, i as f64, dur, 0));
            }
        }
        for i in 0..100u64 {
            t.push(rec(0, CallKind::Write, 2048, i as f64 * 0.1, 0.1, 0));
        }
        for rank in 0..16u32 {
            t.push(rec(rank, CallKind::Write, 8 << 20, 0.0, 1.0, 0));
        }
        let mut shuffled = t.clone();
        shuffled.records.reverse();
        shuffled.records.rotate_left(37);
        for (a, b) in [
            (
                detect_rank_correlated_tail(&t, CallKind::Read),
                detect_rank_correlated_tail(&shuffled, CallKind::Read),
            ),
            (
                detect_metadata_shoulder(&t),
                detect_metadata_shoulder(&shuffled),
            ),
        ] {
            let a = a.expect("fires on original");
            let b = b.expect("fires on shuffled");
            assert_eq!(a.attribution(), b.attribution());
        }
    }

    #[test]
    fn shoulder_attribution_reaches_diagnose() {
        let t = straggler_trace(16, 32, &[5, 13]);
        let findings = diagnose(&t);
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, Finding::RankCorrelatedTail { .. })),
            "{findings:?}"
        );
        // Every attributed finding in this trace must blame the node.
        for f in &findings {
            if let Some(attr) = f.attribution() {
                assert!(attr.is(FaultClass::StragglerNode), "{f}");
            }
        }
        assert_eq!(
            run_verdict(&findings),
            Verdict::Single(FaultClass::StragglerNode)
        );
    }

    /// 64 ranks; ranks 3 and 7 each own 100 identical 0.5 s metadata
    /// writes (a tie on metadata seconds), everyone writes 1 s of data.
    fn tied_serialized_trace() -> Trace {
        let mut t = Trace::new(meta(64));
        for i in 0..100 {
            for rank in [3, 7] {
                t.push(rec(rank, CallKind::MetaWrite, 2048, i as f64, 0.5, 0));
            }
        }
        for rank in 0..64u32 {
            t.push(rec(rank, CallKind::Write, 1 << 20, 0.0, 1.0, 0));
        }
        t
    }

    #[test]
    fn serialized_meta_verdict_breaks_ties_to_the_lowest_rank() {
        let th = Thresholds::default();
        for per_rank in [
            [(3u32, 50.0, 100usize), (7, 50.0, 100)],
            [(7, 50.0, 100), (3, 50.0, 100)],
        ] {
            match serialized_meta_verdict(&per_rank, 100.0, 64, 164.0, &th) {
                Some(Finding::SerializedRank { rank, .. }) => assert_eq!(rank, 3, "{per_rank:?}"),
                other => panic!("expected SerializedRank, got {other:?}"),
            }
        }
    }

    #[test]
    fn serialized_rank_on_a_tie_is_deterministic() {
        let t = tied_serialized_trace();
        for call in 0..32 {
            match detect_serialized_rank(&t) {
                Some(Finding::SerializedRank {
                    rank,
                    metadata: true,
                    ..
                }) => assert_eq!(rank, 3, "call {call}"),
                other => panic!("call {call}: expected SerializedRank, got {other:?}"),
            }
        }
    }

    /// 32 ranks, no metadata: rank 5 does 100 one-second reads, every
    /// other rank one.
    fn io_hog_trace() -> Trace {
        let mut t = Trace::new(meta(32));
        for rank in 0..32u32 {
            let ops = if rank == 5 { 100 } else { 1 };
            for i in 0..ops {
                t.push(rec(rank, CallKind::Read, 1 << 20, i as f64, 1.0, 0));
            }
        }
        t
    }

    #[test]
    fn serialized_io_rank_detected() {
        match detect_serialized_rank(&io_hog_trace()) {
            Some(Finding::SerializedRank {
                rank,
                share,
                metadata,
            }) => {
                assert_eq!(rank, 5);
                // Per-rank I/O seconds, totalled in rank order.
                assert_eq!(share, 100.0 / 131.0);
                assert!(!metadata);
            }
            other => panic!("expected SerializedRank, got {other:?}"),
        }
    }

    #[test]
    fn per_rank_io_time_sums() {
        let mut t = Trace::new(meta(3));
        // 10 MB write over [0,1]; 10 MB write over [1,2]; read over [0,2].
        t.push(rec(0, CallKind::Write, 10_000_000, 0.0, 1.0, 0));
        t.push(rec(1, CallKind::Write, 10_000_000, 1.0, 1.0, 0));
        t.push(rec(2, CallKind::Read, 20_000_000, 0.0, 2.0, 1));
        let ev = Evidence::gather(&t, &Thresholds::default());
        let v: Vec<(u32, f64)> = ev.ranks.iter().map(|(&r, t)| (r, t.io_secs)).collect();
        assert_eq!(v, vec![(0, 1.0), (1, 1.0), (2, 2.0)]);
    }

    /// The oracle detectors, one after another, in `diagnose`'s order.
    fn detectors_in_order(t: &Trace) -> Vec<Finding> {
        let mut out = Vec::new();
        for kind in [CallKind::Write, CallKind::Read] {
            out.extend(detect_harmonics(t, kind));
            out.extend(detect_right_shoulder(t, kind));
            out.extend(detect_progressive_deterioration(t, kind));
            out.extend(detect_rank_correlated_tail(t, kind));
        }
        for kind in [CallKind::MetaRead, CallKind::MetaWrite] {
            out.extend(detect_right_shoulder(t, kind));
        }
        out.extend(detect_serialized_rank(t));
        out.extend(detect_metadata_shoulder(t));
        out
    }

    #[test]
    fn diagnose_equals_the_per_detector_oracle() {
        // One fixture per detector, plus a mixed and an empty trace.
        let mut harmonic = Trace::new(meta(128));
        for i in 0..128u32 {
            let dur = match i % 8 {
                0 => 8.0,
                1..=2 => 16.0,
                _ => 32.0,
            } + (i % 5) as f64 * 0.05;
            harmonic.push(rec(i, CallKind::Write, 1 << 20, 0.0, dur, 0));
        }
        let mut shoulder = Trace::new(meta(64));
        for i in 0..60u32 {
            let dur = 15.0 + (i % 5) as f64 * 0.1;
            shoulder.push(rec(i, CallKind::Read, 1 << 20, 0.0, dur, 0));
        }
        for (i, dur) in [(60u32, 90.0), (61, 200.0), (62, 450.0), (63, 35.0)] {
            shoulder.push(rec(i, CallKind::Read, 1 << 20, 0.0, dur, 0));
        }
        let mut deteriorating = Trace::new(meta(32));
        for (p, m) in [10.0, 10.0, 12.0, 20.0, 35.0, 60.0].into_iter().enumerate() {
            for i in 0..32u32 {
                let dur = m + (i % 3) as f64 * 0.1;
                deteriorating.push(rec(
                    i,
                    CallKind::Read,
                    1 << 20,
                    p as f64 * 100.0,
                    dur,
                    p as u32,
                ));
            }
        }
        // Phases out of record order must group the same way.
        let mut interleaved = deteriorating.clone();
        interleaved.records.reverse();
        let mut meta_storm = Trace::new(meta(64));
        for i in 0..300u64 {
            meta_storm.push(rec(0, CallKind::Write, 2048, i as f64 * 0.1, 0.1, 0));
        }
        for rank in 0..64u32 {
            meta_storm.push(rec(rank, CallKind::Write, 8 << 20, 0.0, 2.0, 0));
        }
        let mut mds_stall = Trace::new(meta(16));
        for rank in 0..16u32 {
            for i in 0..8 {
                let dur = if i == 0 { 2.0 } else { 0.01 };
                mds_stall.push(rec(rank, CallKind::MetaRead, 0, i as f64, dur, 0));
            }
        }
        let mut mixed = harmonic.clone();
        mixed.records.extend(tied_serialized_trace().records);
        let fixtures = [
            ("harmonic", harmonic),
            ("shoulder", shoulder),
            ("deteriorating", deteriorating),
            ("interleaved phases", interleaved),
            ("serialized metadata", tied_serialized_trace()),
            ("serialized I/O", io_hog_trace()),
            ("straggler", straggler_trace(16, 32, &[3, 11])),
            ("metadata shoulder", meta_storm),
            ("mds stall", mds_stall),
            ("mixed", mixed),
            ("empty", Trace::new(meta(0))),
        ];
        let mut fired = std::collections::BTreeSet::new();
        for (name, t) in &fixtures {
            let findings = diagnose(t);
            assert_eq!(findings, detectors_in_order(t), "{name}");
            fired.extend(findings.iter().map(|f| match f {
                Finding::HarmonicModes { .. } => "HarmonicModes",
                Finding::RightShoulder { .. } => "RightShoulder",
                Finding::ProgressiveDeterioration { .. } => "ProgressiveDeterioration",
                Finding::SerializedRank { .. } => "SerializedRank",
                Finding::RankCorrelatedTail { .. } => "RankCorrelatedTail",
                Finding::MetadataShoulder { .. } => "MetadataShoulder",
            }));
        }
        for variant in [
            "HarmonicModes",
            "RightShoulder",
            "ProgressiveDeterioration",
            "SerializedRank",
            "RankCorrelatedTail",
            "MetadataShoulder",
        ] {
            assert!(
                fired.contains(variant),
                "no fixture fires {variant}: {fired:?}"
            );
        }
    }

    #[test]
    fn run_verdict_assembles_from_findings() {
        assert_eq!(run_verdict(&[]), Verdict::Clean);
        let shoulder = |attr: Option<Attribution>| Finding::RightShoulder {
            kind: CallKind::Read,
            median: 1.0,
            p99: 10.0,
            tail_mass: 0.1,
            attribution: attr,
        };
        // Unattributed findings leave the run clean.
        assert_eq!(run_verdict(&[shoulder(None)]), Verdict::Clean);
        // Two single-class findings of different classes compound.
        let fs = [
            shoulder(Some(Attribution::single(FaultClass::SlowOst))),
            shoulder(Some(Attribution::single(FaultClass::MdsStall))),
        ];
        let v = run_verdict(&fs);
        assert_eq!(
            v,
            Verdict::Compound(vec![FaultClass::SlowOst, FaultClass::MdsStall])
        );
        assert_eq!(v.label(), "slow-ost+mds-stall");
        assert!(v.implicates(FaultClass::MdsStall) && !v.is_ambiguous());
        // An ambiguous attribution makes the run ambiguous, folding in
        // the confident classes as candidates.
        let fs = [
            shoulder(Some(Attribution::single(FaultClass::SlowOst))),
            shoulder(Some(Attribution::candidates(vec![
                FaultClass::FlakyFabric,
                FaultClass::StragglerNode,
            ]))),
        ];
        let v = run_verdict(&fs);
        assert_eq!(
            v,
            Verdict::Ambiguous(vec![
                FaultClass::SlowOst,
                FaultClass::FlakyFabric,
                FaultClass::StragglerNode,
            ])
        );
        assert_eq!(v.label(), "ambiguous(slow-ost|flaky-fabric|straggler-node)");
        // Duplicate classes collapse to a single verdict.
        let fs = [
            shoulder(Some(Attribution::single(FaultClass::SlowOst))),
            shoulder(Some(Attribution::single(FaultClass::SlowOst))),
        ];
        assert_eq!(run_verdict(&fs), Verdict::Single(FaultClass::SlowOst));
        // Harmonic modes carry no attribution: whichever KDE path found
        // them, alone they leave the run clean, and beside an attributed
        // shoulder they leave its verdict as it was.
        let harmonic = Finding::HarmonicModes {
            kind: CallKind::Read,
            fundamental: 0.135,
            orders: vec![1, 3, 8],
        };
        assert!(harmonic.attribution().is_none());
        assert_eq!(run_verdict(std::slice::from_ref(&harmonic)), Verdict::Clean);
        for attr in [
            Attribution::single(FaultClass::SlowOst),
            Attribution::candidates(vec![FaultClass::FlakyFabric, FaultClass::StragglerNode]),
        ] {
            let alone = run_verdict(&[shoulder(Some(attr.clone()))]);
            assert_eq!(
                run_verdict(&[harmonic.clone(), shoulder(Some(attr.clone()))]),
                alone
            );
            assert_eq!(
                run_verdict(&[shoulder(Some(attr)), harmonic.clone()]),
                alone
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pio_trace::{Record, TraceMeta};
    use proptest::prelude::*;

    fn meta(ranks: u32) -> TraceMeta {
        TraceMeta {
            experiment: "prop".into(),
            platform: "test".into(),
            ranks,
            seed: 0,
        }
    }

    fn rec(rank: u32, offset: u64, t0: f64, dur: f64) -> Record {
        Record {
            rank,
            call: CallKind::Read,
            fd: 3,
            offset,
            bytes: 1 << 20,
            start_ns: (t0 * 1e9) as u64,
            end_ns: ((t0 + dur) * 1e9) as u64,
            phase: 0,
        }
    }

    /// `diagnose`'s read-class rank-correlated tail, if it found one.
    fn read_rank_tail(t: &Trace) -> Option<Finding> {
        diagnose(t).into_iter().find(|f| {
            matches!(
                f,
                Finding::RankCorrelatedTail {
                    kind: CallKind::Read,
                    ..
                }
            )
        })
    }

    /// `diagnose`'s metadata shoulder, if it found one.
    fn metadata_shoulder(t: &Trace) -> Option<Finding> {
        diagnose(t)
            .into_iter()
            .find(|f| matches!(f, Finding::MetadataShoulder { .. }))
    }

    /// Fisher–Yates with a splitmix-style LCG, so shuffles are a pure
    /// function of the proptest-chosen seed.
    fn shuffle(records: &mut [Record], seed: u64) {
        let mut x = seed | 1;
        for i in (1..records.len()).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            records.swap(i, ((x >> 33) as usize) % (i + 1));
        }
    }

    proptest! {
        /// A tail spread uniformly over the ranks is *not* a straggler,
        /// whatever its height: every rank owns the same slow-op share,
        /// so the concentration test must never fire.
        #[test]
        fn uniform_tail_never_fires_rank_correlation(
            ranks in 8u32..32,
            per_rank in 16usize..40,
            period in 3usize..7,
            slow in 0.3f64..5.0,
        ) {
            let mut t = Trace::new(meta(ranks));
            for rank in 0..ranks {
                for i in 0..per_rank {
                    let dur = if i % period == 0 { slow } else { 0.02 }
                        + ((rank as usize + i) % 5) as f64 * 1e-3;
                    let stripe = rank as u64 * per_rank as u64 + i as u64;
                    t.push(rec(rank, stripe << 20, i as f64, dur));
                }
            }
            prop_assert!(read_rank_tail(&t).is_none());
        }

        /// A planted straggler rank must always fire — and be named.
        #[test]
        fn planted_straggler_always_fires_and_is_named(
            ranks in 8u32..32,
            per_rank in 16usize..40,
            culprit_pick in 0u32..1000,
            slowdown in 8.0f64..64.0,
        ) {
            let culprit = culprit_pick % ranks;
            let mut t = Trace::new(meta(ranks));
            for rank in 0..ranks {
                for i in 0..per_rank {
                    let base = 0.02 + ((rank as usize + i) % 5) as f64 * 1e-3;
                    let dur = if rank == culprit { base * slowdown } else { base };
                    let stripe = rank as u64 * per_rank as u64 + i as u64;
                    t.push(rec(rank, stripe << 20, i as f64, dur));
                }
            }
            match read_rank_tail(&t) {
                Some(Finding::RankCorrelatedTail { ranks: ref culprits, .. }) =>
                    prop_assert_eq!(culprits, &vec![culprit]),
                other => prop_assert!(false, "expected RankCorrelatedTail, got {:?}", other),
            }
        }

        /// Both new detectors are record-order invariant: any shuffle of
        /// the stream yields the same verdict and the same culprits.
        #[test]
        fn detectors_shuffle_invariant(seed in 0u64..u64::MAX, ranks in 10u32..24) {
            let mut t = Trace::new(meta(ranks));
            for rank in 0..ranks {
                let dur = if rank == 7 { 0.9 } else { 0.02 };
                for i in 0..24u64 {
                    t.push(rec(rank, i << 20, i as f64, dur));
                }
            }
            for i in 0..100u64 {
                let mut r = rec(0, i << 11, i as f64 * 0.1, 0.1);
                r.call = CallKind::Write;
                r.bytes = 2048;
                t.push(r);
            }
            let mut s = t.clone();
            shuffle(&mut s.records, seed);

            let a = read_rank_tail(&t);
            let b = read_rank_tail(&s);
            match (&a, &b) {
                (
                    Some(Finding::RankCorrelatedTail { ranks: ra, .. }),
                    Some(Finding::RankCorrelatedTail { ranks: rb, .. }),
                ) => {
                    prop_assert_eq!(ra, rb);
                    prop_assert_eq!(ra, &vec![7u32]);
                }
                other => prop_assert!(false, "both must fire identically: {:?}", other),
            }

            let ma = metadata_shoulder(&t);
            let mb = metadata_shoulder(&s);
            match (&ma, &mb) {
                (
                    Some(Finding::MetadataShoulder { small_ops: oa, rank: ka, .. }),
                    Some(Finding::MetadataShoulder { small_ops: ob, rank: kb, .. }),
                ) => {
                    prop_assert_eq!(oa, ob);
                    prop_assert_eq!(ka, kb);
                }
                other => prop_assert!(false, "both must fire identically: {:?}", other),
            }
        }
    }
}
