//! Bit-exact golden cost statistics for the paper lineup.
//!
//! These tuples were captured on the pre-CSR tree (BinaryHeap Dijkstra,
//! adjacency-list graph, oracle-scan hierarchy builder) and pin the
//! end-to-end determinism contract across the flat-CSR / workspace
//! rewrite: every maintenance replay must reproduce the exact f64 bit
//! patterns, not just values within an epsilon. Any change that shifts
//! settle order, tie-breaks, or float accumulation order trips this
//! test before it can silently move a published figure.

use mot_baselines::DetectionRates;
use mot_net::OracleKind;
use mot_sim::{replay, run_publish, Algo, TestBed, WorkloadSpec};

/// `(rows, cols, seed, algo, total_bits, optimal_bits, operations)`
/// captured from the pre-CSR implementation.
const GOLDEN: [(usize, usize, u64, Algo, u64, u64, usize); 16] = [
    (
        6,
        6,
        0,
        Algo::Mot,
        0x409e940000000000,
        0x4072c00000000000,
        300,
    ),
    (
        6,
        6,
        0,
        Algo::Stun,
        0x4097a80000000000,
        0x4072c00000000000,
        300,
    ),
    (
        6,
        6,
        0,
        Algo::Zdat,
        0x4091400000000000,
        0x4072c00000000000,
        300,
    ),
    (
        6,
        6,
        0,
        Algo::ZdatShortcuts,
        0x4091400000000000,
        0x4072c00000000000,
        300,
    ),
    (
        6,
        6,
        1,
        Algo::Mot,
        0x40a16c0000000000,
        0x4072c00000000000,
        300,
    ),
    (
        6,
        6,
        1,
        Algo::Stun,
        0x4095b80000000000,
        0x4072c00000000000,
        300,
    ),
    (
        6,
        6,
        1,
        Algo::Zdat,
        0x408bc00000000000,
        0x4072c00000000000,
        300,
    ),
    (
        6,
        6,
        1,
        Algo::ZdatShortcuts,
        0x408bc00000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        0,
        Algo::Mot,
        0x40a3300000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        0,
        Algo::Stun,
        0x4097480000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        0,
        Algo::Zdat,
        0x4093e00000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        0,
        Algo::ZdatShortcuts,
        0x4093e00000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        1,
        Algo::Mot,
        0x40a4780000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        1,
        Algo::Stun,
        0x4095b80000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        1,
        Algo::Zdat,
        0x4091680000000000,
        0x4072c00000000000,
        300,
    ),
    (
        10,
        10,
        1,
        Algo::ZdatShortcuts,
        0x4091680000000000,
        0x4072c00000000000,
        300,
    ),
];

#[test]
fn replay_costs_match_pre_csr_bits() {
    // Beds and workloads are rebuilt per (grid, seed) exactly as the
    // capture loop did: bed seed = workload-family seed, fig4 workload
    // convention (10 objects, 30 moves, seed * 7 + 1).
    for &(r, c, seed, algo, total_bits, optimal_bits, operations) in &GOLDEN {
        let bed = TestBed::grid(r, c, seed).unwrap();
        let ctx = format!("{r}x{c} seed {seed} {algo:?}");
        assert_golden_replay(&bed, seed, algo, total_bits, optimal_bits, operations, &ctx);
    }
}

fn assert_golden_replay(
    bed: &TestBed,
    seed: u64,
    algo: Algo,
    total_bits: u64,
    optimal_bits: u64,
    operations: usize,
    ctx: &str,
) {
    let w = WorkloadSpec::new(10, 30, seed * 7 + 1).generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let mut t = bed.make_tracker(algo, &rates).unwrap();
    run_publish(t.as_mut(), &w).unwrap();
    let s = replay(t.as_mut(), &w, &bed.oracle, None).unwrap().cost;
    assert_eq!(s.total.to_bits(), total_bits, "{ctx}: total drifted");
    assert_eq!(s.optimal.to_bits(), optimal_bits, "{ctx}: optimal drifted");
    assert_eq!(s.operations, operations, "{ctx}: operation count drifted");
}

/// The cached backend must reproduce the same pre-CSR golden bits as the
/// dense matrix: identical f32 quantization on every distance, so
/// swapping the backend moves no published figure.
#[test]
fn cached_backend_reproduces_the_golden_bits() {
    for &(r, c, seed, algo, total_bits, optimal_bits, operations) in &GOLDEN {
        let bed = TestBed::grid_with_oracle(r, c, seed, OracleKind::Cached).unwrap();
        let ctx = format!("{r}x{c} seed {seed} {algo:?} cached");
        assert_golden_replay(&bed, seed, algo, total_bits, optimal_bits, operations, &ctx);
    }
}
