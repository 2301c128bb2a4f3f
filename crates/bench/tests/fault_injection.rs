//! End-to-end acceptance for `pio-fault`: every fault class in the
//! fault × workload matrix must show its distinctive ensemble signature,
//! be attributed correctly by the paper's detectors, leave the baseline
//! clean, and reproduce bit-identically per seed — and an absent or
//! empty fault plan must leave traces untouched.

use pio_bench::fault_matrix::{all_pass, empty_plan_is_inert, render, run_matrix};

const SCALE: u32 = 16;
const SEEDS: [u64; 2] = [101, 202];

#[test]
fn every_fault_class_shows_its_signature_on_two_seeds() {
    let cells = run_matrix(SCALE, &SEEDS);
    let classes: std::collections::BTreeSet<_> = cells.iter().map(|c| c.fault).collect();
    assert!(
        classes.len() >= 5,
        "matrix covers only {} fault classes",
        classes.len()
    );
    assert_eq!(cells.len(), classes.len() * SEEDS.len());
    assert!(all_pass(&cells), "matrix failures:\n{}", render(&cells));
}

#[test]
fn no_plan_and_empty_plan_are_bit_identical() {
    assert!(empty_plan_is_inert(SCALE, SEEDS[0]));
}

/// Batch diagnosis gathers its evidence in one pass; the public
/// single-detector entry points each gather their own. On every matrix
/// trace, baseline and faulted, the two must agree finding for finding.
#[test]
fn diagnose_is_the_public_detectors_in_order_on_matrix_traces() {
    use pio_bench::fault_matrix::matrix_traces;
    use pio_core::diagnosis::*;
    use pio_trace::{CallKind, Trace};

    fn detectors_in_order(t: &Trace, th: &Thresholds) -> Vec<Finding> {
        let mut out = Vec::new();
        for kind in [CallKind::Write, CallKind::Read] {
            out.extend(detect_harmonics(t, kind, th));
            out.extend(detect_right_shoulder(t, kind, th));
            out.extend(detect_progressive_deterioration(t, kind, th));
            out.extend(detect_rank_correlated_tail(t, kind, th));
        }
        for kind in [CallKind::MetaRead, CallKind::MetaWrite] {
            out.extend(detect_right_shoulder(t, kind, th));
        }
        out.extend(detect_serialized_rank(t, th));
        out.extend(detect_metadata_shoulder(t, th));
        out
    }

    let th = Thresholds::default();
    let mut findings = 0;
    for (i, t) in matrix_traces(SCALE, &SEEDS).iter().enumerate() {
        let got = diagnose_with(t, &th);
        let label = format!(
            "{} seed {} faulted={}",
            t.meta.experiment,
            t.meta.seed,
            i % 2 == 1
        );
        assert_eq!(got, detectors_in_order(t, &th), "{label}");
        findings += got.len();
    }
    assert!(findings > 0, "the matrix traces must produce findings");
}
