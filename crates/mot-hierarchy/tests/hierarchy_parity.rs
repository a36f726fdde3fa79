//! Bit-parity between [`build_doubling`] and its frozen witness.
//!
//! [`build_doubling`] replaced the reference builder's `O(k²)` oracle
//! scans with radius-bounded Dijkstra over the CSR graph plus f32
//! re-quantization of every distance before each predicate. These tests
//! pin the claim that the rewrite changed *nothing* about the output:
//! identical levels, identical detection paths, on every topology
//! generator, several seeds and configs, both oracle backends, and at
//! sizes either side of the 1024 nodes below which the reference used
//! to be dispatched to.

use mot_hierarchy::{build_doubling, reference_build_doubling, Overlay, OverlayConfig};
use mot_net::{generators, CachedOracle, DenseOracle, Graph};

/// Compares two overlays through the public accessors only.
fn assert_overlays_identical(a: &Overlay, b: &Overlay, ctx: &str) {
    assert_eq!(a.kind(), b.kind(), "{ctx}: kind");
    assert_eq!(a.height(), b.height(), "{ctx}: height");
    assert_eq!(a.node_count(), b.node_count(), "{ctx}: node count");
    assert_eq!(a.sp_gap(), b.sp_gap(), "{ctx}: sp_gap");
    for l in 0..=a.height() {
        assert_eq!(a.level_members(l), b.level_members(l), "{ctx}: level {l}");
    }
    for u in 0..a.node_count() {
        let u = mot_net::NodeId::from_index(u);
        for l in 0..=a.height() {
            assert_eq!(a.station(u, l), b.station(u, l), "{ctx}: station({u},{l})");
        }
    }
}

fn check(g: &Graph, seed: u64, cfg: &OverlayConfig, ctx: &str) {
    let m = DenseOracle::build(g).unwrap();
    let fast = build_doubling(g, &m, cfg, seed);
    let reference = reference_build_doubling(g, &m, cfg, seed);
    assert_overlays_identical(&fast, &reference, ctx);
}

#[test]
fn parity_on_grids() {
    for (rows, cols) in [(1, 1), (1, 7), (5, 5), (9, 6), (12, 12)] {
        let g = generators::grid(rows, cols).unwrap();
        for seed in [0, 1, 7] {
            check(
                &g,
                seed,
                &OverlayConfig::practical(),
                &format!("grid {rows}x{cols} seed {seed}"),
            );
        }
    }
}

#[test]
fn parity_on_torus_ring_line() {
    for (g, name) in [
        (generators::torus(6, 6).unwrap(), "torus 6x6"),
        (generators::ring(40).unwrap(), "ring 40"),
        (generators::line(33).unwrap(), "line 33"),
    ] {
        for seed in [2, 11] {
            check(
                &g,
                seed,
                &OverlayConfig::practical(),
                &format!("{name} seed {seed}"),
            );
        }
    }
}

#[test]
fn parity_on_random_topologies() {
    for seed in [3, 13] {
        let g = generators::random_tree(80, seed).unwrap();
        check(
            &g,
            seed,
            &OverlayConfig::practical(),
            &format!("tree seed {seed}"),
        );

        let g = generators::random_geometric(70, 9.0, 2.5, seed).unwrap();
        check(
            &g,
            seed,
            &OverlayConfig::practical(),
            &format!("geometric seed {seed}"),
        );

        let g = generators::perturbed_grid(8, 8, 0.3, seed).unwrap();
        check(
            &g,
            seed,
            &OverlayConfig::practical(),
            &format!("perturbed seed {seed}"),
        );

        let g = generators::clustered(60, 4, 12.0, 3.0, seed).unwrap();
        check(
            &g,
            seed,
            &OverlayConfig::practical(),
            &format!("clustered seed {seed}"),
        );
    }
}

#[test]
fn parity_on_dense_and_cached_either_side_of_1024_nodes() {
    // 16×16, 32×32 and 45×45 grids. The ball builder solves on the
    // graph, so the backend it is handed must not matter either.
    for side in [16, 32, 45] {
        let g = generators::grid(side, side).unwrap();
        let dense = DenseOracle::build(&g).unwrap();
        let cached = CachedOracle::new(&g).unwrap();
        let cfg = OverlayConfig::practical();
        let reference = reference_build_doubling(&g, &dense, &cfg, 7);
        let ctx = format!("grid {side}x{side}");
        assert_overlays_identical(&build_doubling(&g, &dense, &cfg, 7), &reference, &ctx);
        assert_overlays_identical(&build_doubling(&g, &cached, &cfg, 7), &reference, &ctx);
    }
}

#[test]
fn parity_across_configs() {
    let g = generators::grid(8, 8).unwrap();
    for cfg in [
        OverlayConfig::practical(),
        OverlayConfig::paper_exact(),
        OverlayConfig::singleton_parents(),
    ] {
        check(&g, 5, &cfg, &format!("grid 8x8 cfg {cfg:?}"));
    }
}
