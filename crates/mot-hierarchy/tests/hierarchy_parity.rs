//! [`build_doubling`] meets the doubling rules on every topology
//! generator.
//!
//! Each test builds overlays on several seeds and configs and holds
//! them to [`assert_valid`]: nested levels, each a maximal independent
//! set of the one below at radius `2^ℓ`, every home's default parent
//! its (distance, id)-nearest member of the level above, every station
//! exactly the members within `ρ · 2^ℓ` of its home plus that parent,
//! and every stored hop the oracle's own distance. Checked against the
//! dense matrix, since the rules ask for `O(k²)` distances per level.
//! The builder solves on the graph, so the backend it is handed must
//! not change its output either: the dense- and cached-backed builds
//! are compared bit for bit either side of 1024 nodes.

use mot_hierarchy::validate::assert_valid;
use mot_hierarchy::{build_doubling, Overlay, OverlayConfig};
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

fn check(g: &Graph, seed: u64, cfg: &OverlayConfig) {
    let m = DenseOracle::build(g).unwrap();
    assert_valid(&build_doubling(g, &m, cfg, seed), &m, cfg);
}

#[test]
fn parity_on_grids() {
    for (rows, cols) in [(1, 1), (1, 7), (5, 5), (9, 6), (12, 12)] {
        let g = generators::grid(rows, cols).unwrap();
        for seed in [0, 1, 7] {
            check(&g, seed, &OverlayConfig::practical());
        }
    }
}

#[test]
fn parity_on_torus_ring_line() {
    for g in [
        generators::torus(6, 6).unwrap(),
        generators::ring(40).unwrap(),
        generators::line(33).unwrap(),
    ] {
        for seed in [2, 11] {
            check(&g, seed, &OverlayConfig::practical());
        }
    }
}

#[test]
fn parity_on_random_topologies() {
    for seed in [3, 13] {
        for g in [
            generators::random_tree(80, seed).unwrap(),
            generators::random_geometric(70, 9.0, 2.5, seed).unwrap(),
            generators::perturbed_grid(8, 8, 0.3, seed).unwrap(),
            generators::clustered(60, 4, 12.0, 3.0, seed).unwrap(),
        ] {
            check(&g, seed, &OverlayConfig::practical());
        }
    }
}

#[test]
fn parity_on_dense_and_cached_either_side_of_1024_nodes() {
    // 16×16, 32×32 and 45×45 grids.
    for side in [16, 32, 45] {
        let g = generators::grid(side, side).unwrap();
        let dense = DenseOracle::build(&g).unwrap();
        let cached = CachedOracle::new(&g).unwrap();
        let cfg = OverlayConfig::practical();
        let on_dense = build_doubling(&g, &dense, &cfg, 7);
        let on_cached = build_doubling(&g, &cached, &cfg, 7);
        assert_overlays_identical(&on_dense, &on_cached, &format!("grid {side}x{side}"));
        assert_valid(&on_dense, &dense, &cfg);
        assert_valid(&on_cached, &dense, &cfg);
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
        check(&g, 5, &cfg);
    }
}
