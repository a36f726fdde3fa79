//! What a 256×256 bed holds, in bytes, pinned where it must not grow
//! back: one graph however many structures keep it, no parent array in
//! a workspace that never builds a search tree, no reverse hop length on
//! a unit-weight overlay, and the station table's bytes a node.
//!
//! Every number here is a byte count, not a resident-set reading, so it
//! is deterministic.

use mot_hierarchy::{build_doubling, OverlayConfig};
use mot_net::{generators, CachedOracle, DijkstraWorkspace, DistanceOracle, NodeId, BALL_PAD};

#[test]
fn a_256_grid_bed_holds_one_graph_and_lean_workspaces_and_tables() {
    let g = generators::grid(256, 256).unwrap();
    let n = g.node_count();

    // A builder workspace as `build_doubling` makes and runs it: sized
    // up front, then balls and distances only — 12 bytes a node, plus
    // settled and frontier lists far smaller than a 4-byte parent array.
    let mut ws = DijkstraWorkspace::with_capacity(n);
    assert_eq!(ws.heap_bytes(), 12 * n);
    ws.bounded_ball(&g, NodeId(1000), 2.0 * BALL_PAD);
    let (a, b) = (NodeId(0), NodeId(20 * 256 + 20));
    assert_eq!(ws.distance(&g, a, b), 40.0);
    let lists = ws.heap_bytes() - 12 * n;
    assert!(
        lists < n,
        "a ball and a distance hold {lists} B beyond 12 a node"
    );

    // The oracle keeps a clone that shares the graph's base, so the
    // graph is counted once while the oracle is alive, and the oracle's
    // own bytes are its one pooled workspace.
    let oracle = CachedOracle::new(&g).unwrap();
    assert!(oracle.graph().shares_base(&g));
    assert_eq!(oracle.heap_bytes(), 0);
    assert_eq!(oracle.dist(a, b), 40.0);
    let pooled = oracle.heap_bytes();
    assert!(
        (12 * n..13 * n).contains(&pooled),
        "the oracle owns {pooled} B"
    );

    let overlay = build_doubling(&g, &oracle, &OverlayConfig::practical(), 1);
    let table = overlay.heap_bytes().table;
    assert_eq!(
        table.hops_back, 0,
        "a unit-weight overlay keeps one length a hop"
    );
    let per_node = overlay.memory_bytes() as f64 / n as f64;
    assert!(
        per_node <= 205.0,
        "the station table takes {per_node:.1} B a node"
    );
}
