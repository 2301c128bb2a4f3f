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
