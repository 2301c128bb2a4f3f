//! Property-based merge laws for the mergeable sketches: `merge(a, b)`
//! must equal batch accumulation over the concatenated streams, and the
//! shard-level merge must be commutative and associative. These laws are
//! what make concurrent sharded ingestion exact — any snapshot equals
//! the sequential single-accumulator run over the union of the inputs.

use pio_des::hist::LogHistogram;
use pio_ingest::shard::ShardStats;
use pio_ingest::{OnlineMoments, QuantileSketch};
use pio_trace::{CallKind, Record};
use proptest::prelude::*;

/// Positive durations spanning the default sketch geometry, including
/// out-of-range values that exercise bucket clamping.
fn arb_durations() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-7f64..5e3, 0..200)
}

fn hist_of(xs: &[f64]) -> LogHistogram {
    let mut h = LogHistogram::new(1e-6, 1e3, 96);
    for &x in xs {
        h.add_clamped(x);
    }
    h
}

fn sketch_of(xs: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new(1e-6, 1e3, 96);
    for &x in xs {
        s.add(x);
    }
    s
}

fn moments_of(xs: &[f64]) -> OnlineMoments {
    let mut m = OnlineMoments::new();
    for &x in xs {
        m.record(x);
    }
    m
}

fn stats_of(records: &[Record]) -> ShardStats {
    let mut s = ShardStats::new(1e-6, 1e3, 96);
    for r in records {
        s.accumulate(r);
    }
    s
}

/// Records with varied durations/sizes; rank and phase do not matter for
/// the per-shard laws.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    let rec = (1u64..10_000_000, 0u64..1 << 24).prop_map(|(dur_us, bytes)| Record {
        rank: 0,
        call: CallKind::Read,
        fd: 3,
        offset: 0,
        bytes,
        start_ns: 0,
        end_ns: dur_us * 1000,
        phase: 0,
    });
    proptest::collection::vec(rec, 0..120)
}

fn assert_stats_eq(a: &ShardStats, b: &ShardStats) {
    assert_eq!(a.hist.counts(), b.hist.counts());
    assert_eq!(a.sketch.count(), b.sketch.count());
    assert!((a.sketch.sum() - b.sketch.sum()).abs() <= 1e-6 * a.sketch.sum().abs().max(1.0));
    assert_eq!(a.moments.count(), b.moments.count());
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.bytes, b.bytes);
    assert!((a.secs - b.secs).abs() <= 1e-6 * a.secs.abs().max(1.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram merge is exactly the histogram of the concatenation.
    #[test]
    fn histogram_merge_is_concatenation(a in arb_durations(), b in arb_durations()) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let union: Vec<f64> = a.iter().chain(&b).cloned().collect();
        prop_assert_eq!(merged.counts(), hist_of(&union).counts());
    }

    /// Histogram merge is commutative.
    #[test]
    fn histogram_merge_commutes(a in arb_durations(), b in arb_durations()) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab.counts(), ba.counts());
    }

    /// Sketch merge: counts/min/max exact, per-bucket sums to float
    /// tolerance, so every quantile estimate matches the batch sketch.
    #[test]
    fn sketch_merge_is_concatenation(a in arb_durations(), b in arb_durations()) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let union: Vec<f64> = a.iter().chain(&b).cloned().collect();
        let batch = sketch_of(&union);
        prop_assert_eq!(merged.count(), batch.count());
        prop_assert_eq!(merged.min(), batch.min());
        prop_assert_eq!(merged.max(), batch.max());
        prop_assert!((merged.sum() - batch.sum()).abs() <= 1e-6 * batch.sum().abs().max(1.0));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            match (merged.quantile(q), batch.quantile(q)) {
                (Some(m), Some(bq)) => prop_assert!((m - bq).abs() <= 1e-9 * bq.abs().max(1.0)),
                (m, bq) => prop_assert_eq!(m, bq),
            }
        }
    }

    /// Sketch merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn sketch_merge_associates(
        a in arb_durations(),
        b in arb_durations(),
        c in arb_durations(),
    ) {
        let mut left = sketch_of(&a);
        left.merge(&sketch_of(&b));
        left.merge(&sketch_of(&c));
        let mut bc = sketch_of(&b);
        bc.merge(&sketch_of(&c));
        let mut right = sketch_of(&a);
        right.merge(&bc);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        prop_assert!((left.sum() - right.sum()).abs() <= 1e-6 * right.sum().abs().max(1.0));
    }

    /// Moments merge (Chan/Terriberry) matches streaming the union.
    #[test]
    fn moments_merge_is_concatenation(a in arb_durations(), b in arb_durations()) {
        let mut merged = moments_of(&a);
        merged.merge(&moments_of(&b));
        let union: Vec<f64> = a.iter().chain(&b).cloned().collect();
        let batch = moments_of(&union);
        prop_assert_eq!(merged.count(), batch.count());
        if let (Some(m), Some(bm)) = (merged.mean(), batch.mean()) {
            prop_assert!((m - bm).abs() <= 1e-9 * bm.abs().max(1.0));
        }
        if let (Some(v), Some(bv)) = (merged.variance(), batch.variance()) {
            prop_assert!((v - bv).abs() <= 1e-6 * bv.abs().max(1.0));
        }
    }

    /// ShardStats merge is commutative and equals batch accumulation.
    #[test]
    fn shard_merge_commutes_and_matches_batch(a in arb_records(), b in arb_records()) {
        let mut ab = stats_of(&a);
        ab.merge(&stats_of(&b));
        let mut ba = stats_of(&b);
        ba.merge(&stats_of(&a));
        assert_stats_eq(&ab, &ba);
        let union: Vec<Record> = a.iter().chain(&b).cloned().collect();
        assert_stats_eq(&ab, &stats_of(&union));
    }

    /// ShardStats merge is associative.
    #[test]
    fn shard_merge_associates(a in arb_records(), b in arb_records(), c in arb_records()) {
        let mut left = stats_of(&a);
        left.merge(&stats_of(&b));
        left.merge(&stats_of(&c));
        let mut bc = stats_of(&b);
        bc.merge(&stats_of(&c));
        let mut right = stats_of(&a);
        right.merge(&bc);
        assert_stats_eq(&left, &right);
    }
}
