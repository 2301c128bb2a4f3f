//! Ablation studies over the design choices DESIGN.md calls out: each
//! table toggles one mechanism of the simulator and reports the effect
//! on the simulated outcomes, isolating what produces which phenomenon.
//!
//! Usage: `ablations [--scale N]` (default 16).

use pio_bench::util::{positive, print_stdout, Args};
use pio_core::empirical::EmpiricalDist;
use pio_core::modes::find_modes;
use pio_fs::FsConfig;
use pio_mpi::program::Job;
use pio_mpi::{RunConfig, RunReport, Runner};
use pio_trace::{CallKind, OnlineProfile};
use pio_workloads::gcrm::{GcrmConfig, GcrmStage};
use pio_workloads::{IorConfig, MadbenchConfig};

/// `println!` through [`print_stdout`]: a closed stdout ends the
/// printing, not the run.
macro_rules! outln {
    ($($arg:tt)*) => {
        print_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

fn run(job: &Job, cfg: RunConfig) -> RunReport {
    Runner::new(job, cfg).execute_one().unwrap()
}

fn main() {
    let scale = Args::parse(&["--scale N"])
        .value("--scale", positive)
        .unwrap_or(16);
    discipline_ablation(scale);
    readahead_ablation(scale * 2);
    alignment_ablation(scale * 4);
    aggregator_sweep(scale * 4);
    shared_vs_file_per_process(scale);
    profile_vs_trace(scale);
}

/// IOR shared-file vs file-per-process: the classic layout comparison.
fn shared_vs_file_per_process(scale: u32) {
    outln!("\n== ablation: shared file vs file-per-process (IOR) ==");
    outln!(
        "{:<26} {:>10} {:>11} {:>11} {:>10}",
        "layout",
        "runtime(s)",
        "rate(MB/s)",
        "meta ops",
        "conflicts"
    );
    for (label, fpp) in [
        ("shared file (paper)", false),
        ("file per process (-F)", true),
    ] {
        let cfg = IorConfig {
            repetitions: 2,
            file_per_process: fpp,
            ..IorConfig::paper_fig1().scaled(scale)
        };
        let res = run(
            &cfg.job(),
            RunConfig::new(FsConfig::franklin().scaled(scale), 17, "abl-fpp"),
        );
        let meta_ops = res
            .trace()
            .records
            .iter()
            .filter(|r| matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite))
            .count()
            + res.trace().of_kind(CallKind::Open).count()
            + res.trace().of_kind(CallKind::Close).count();
        outln!(
            "{label:<26} {:>10.0} {:>11.0} {:>11} {:>10}",
            res.wall_secs(),
            res.stats.bytes_written as f64 / 1e6 / res.wall_secs(),
            meta_ops,
            res.lock_stats.contended
        );
    }
    outln!("-> aligned exclusive offsets make the shared file conflict-free,");
    outln!("   so the layouts perform alike here; unaligned shared records");
    outln!("   (see the alignment ablation) are where the shared file loses.");
}

/// Which node service-discipline mix produces the harmonic modes?
fn discipline_ablation(scale: u32) {
    outln!("\n== ablation: node service discipline (IOR, Figure 1c modes) ==");
    outln!(
        "{:<28} {:>8} {:>8} {:>10} {:>26}",
        "discipline weights [x,p,f]",
        "cv",
        "iqr(s)",
        "runtime(s)",
        "mode locations (s)"
    );
    let cfg = IorConfig {
        repetitions: 3,
        ..IorConfig::paper_fig1().scaled(scale)
    };
    for (label, weights) in [
        ("pure fair [0,0,1]", [0.0, 0.0, 1.0]),
        ("pure exclusive [1,0,0]", [1.0, 0.0, 0.0]),
        ("paper mix [.3,.3,.4]", [0.30, 0.30, 0.40]),
    ] {
        let mut fs = FsConfig::franklin().scaled(scale);
        fs.discipline_weights = weights;
        let res = run(&cfg.job(), RunConfig::new(fs, 7, "abl-disc"));
        // Skip the cache-absorption fast mode (< 20% of the median) so the
        // drain-bound mode structure is what we compare.
        let all = res.trace().durations_of(CallKind::Write);
        let med = EmpiricalDist::new(&all).median();
        let drained: Vec<f64> = all.iter().cloned().filter(|&d| d > 0.2 * med).collect();
        let d = EmpiricalDist::new(&drained);
        let modes = find_modes(&d);
        let locs: Vec<String> = modes.iter().map(|m| format!("{:.0}", m.location)).collect();
        outln!(
            "{label:<28} {:>8.2} {:>8.1} {:>10.0} {:>26}",
            d.cv().unwrap_or(0.0),
            d.iqr(),
            res.wall_secs(),
            locs.join(",")
        );
    }
    outln!("-> exclusive/paired service widens the spread (cv and iqr above pure");
    outln!("   fair's) and pure exclusive spaces its modes about T/4 apart; pure");
    outln!("   fair is the narrowest but still multimodal, so node arbitration is");
    outln!("   not the only source of modes.");
}

/// Strided detection on/off × memory pressure: the MADbench bug matrix.
fn readahead_ablation(scale: u32) {
    outln!("\n== ablation: read-ahead strided detection x memory pressure (MADbench) ==");
    outln!(
        "{:<40} {:>10} {:>10} {:>12}",
        "configuration",
        "runtime(s)",
        "degraded",
        "worst read(s)"
    );
    let cfg = MadbenchConfig::paper().scaled(scale);
    for (label, detect, cache_mult) in [
        ("bug on, normal cache (Franklin)", true, 1.0f64),
        ("bug on, huge cache (no pressure)", true, 64.0),
        ("bug off, normal cache (patched)", false, 1.0),
    ] {
        let mut fs = FsConfig::franklin().scaled(scale);
        fs.readahead.strided_detection = detect;
        fs.cache_bytes = (fs.cache_bytes as f64 * cache_mult) as u64;
        let res = run(&cfg.job(), RunConfig::new(fs, 5, "abl-ra"));
        let worst = res
            .trace()
            .durations_of(CallKind::Read)
            .into_iter()
            .fold(0.0f64, f64::max);
        outln!(
            "{label:<40} {:>10.0} {:>10} {:>12.1}",
            res.wall_secs(),
            res.stats.degraded_reads,
            worst
        );
    }
    outln!("-> the catastrophe needs BOTH the strided window bug AND");
    outln!("   memory pressure — exactly the paper's interaction.");
}

/// Alignment on/off at several stripe sizes: the lock-conflict cost.
fn alignment_ablation(scale: u32) {
    outln!("\n== ablation: record alignment (GCRM, Figure 6 g-i) ==");
    outln!(
        "{:<34} {:>10} {:>11} {:>10}",
        "configuration",
        "runtime(s)",
        "conflicts",
        "sync-wr"
    );
    for (label, stage) in [
        (
            "unaligned (collective, 1.6MB)",
            GcrmStage::CollectiveBuffering {
                aggregators: 80 / scale.clamp(1, 40),
            },
        ),
        (
            "aligned to 1 MiB (padded 2MiB)",
            GcrmStage::Aligned {
                aggregators: 80 / scale.clamp(1, 40),
                alignment: 1 << 20,
            },
        ),
    ] {
        let mut cfg = GcrmConfig::paper_baseline().scaled(scale);
        cfg.stage = stage;
        cfg.h5.meta_writes_per_rank = 0.0; // isolate the data path
        let res = run(
            &cfg.job(),
            RunConfig::new(FsConfig::franklin().scaled(scale), 11, "abl-align"),
        );
        outln!(
            "{label:<34} {:>10.0} {:>11} {:>10}",
            res.wall_secs(),
            res.lock_stats.contended,
            res.stats.sync_writes
        );
    }
    outln!("-> alignment removes shared boundary stripes: no conflicts,");
    outln!("   no forced-synchronous writes, cached write-back returns.");
}

/// Aggregator-count sweep: how few writers saturate the I/O subsystem?
fn aggregator_sweep(scale: u32) {
    outln!("\n== ablation: collective-buffering aggregator count (GCRM) ==");
    outln!(
        "{:>12} {:>12} {:>14}",
        "aggregators",
        "runtime(s)",
        "agg MB/s"
    );
    let mut base = GcrmConfig::paper_baseline().scaled(scale);
    base.h5.meta_writes_per_rank = 0.0; // isolate the data path
    let total_mb = base.total_payload() as f64 / 1e6;
    // Over-provision the fabric relative to the writer pool (the paper's
    // regime: 10,240 tasks but the servers saturate at 80 writers) so the
    // knee is visible: platform shrunk 8x less than the workload.
    let platform = FsConfig::franklin().scaled((scale / 8).max(1));
    for aggs in [1u32, 2, 5, 10, 20, base.tasks / 2] {
        let mut cfg = base.clone();
        cfg.stage = GcrmStage::Aligned {
            aggregators: aggs,
            alignment: 1 << 20,
        };
        let res = run(&cfg.job(), RunConfig::new(platform.clone(), 13, "abl-agg"));
        let actual = cfg.aggregation().unwrap().aggregators;
        outln!(
            "{:>12} {:>12.0} {:>14.0}",
            actual,
            res.wall_secs(),
            total_mb / res.wall_secs()
        );
    }
    outln!("-> the knee: a handful of writers already saturates the servers; the paper");
    outln!("   found 80 of 10,240 tasks enough on Franklin.");
}

/// Trace mode vs online-profile mode: the future-work scalability claim.
fn profile_vs_trace(scale: u32) {
    outln!("\n== ablation: full tracing vs online profiling (paper §VI) ==");
    let cfg = IorConfig {
        repetitions: 3,
        ..IorConfig::paper_fig1().scaled(scale)
    };
    let res = run(
        &cfg.job(),
        RunConfig::new(FsConfig::franklin().scaled(scale), 9, "abl-prof"),
    );
    let mut buf = Vec::new();
    pio_trace::io::write_jsonl(res.trace(), &mut buf).unwrap();
    let mut profile = OnlineProfile::default();
    profile.record_all(&res.trace().records);
    let profile_bytes = serde_json::to_vec(&profile).unwrap().len();
    outln!(
        "full trace: {} records, {} KB serialized",
        res.trace().records.len(),
        buf.len() / 1024
    );
    outln!(
        "online profile: fixed {} KB regardless of run length ({}x smaller)",
        profile_bytes / 1024,
        buf.len() / profile_bytes.max(1)
    );
    let d = EmpiricalDist::new(&res.trace().durations_of(CallKind::Write));
    outln!(
        "write median: exact {:.2}s vs profile {:.2}s — the distribution,",
        d.median(),
        profile.quantile(CallKind::Write, 0.5).unwrap_or(0.0)
    );
    outln!("   which is all the ensemble method needs, survives the compression.");
}
