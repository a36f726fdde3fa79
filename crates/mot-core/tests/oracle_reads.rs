//! The oracle stays off the move and query paths — counted, not timed.
//!
//! Climbs, rollbacks, the steps inside a trail level and every downward
//! junction on the target's own detection path read overlay constants;
//! only junctions between two origins' paths and the SDL jump still ask
//! the oracle. On the on-demand backend each such read is a solve, and
//! `CachedOracle::solves()` counts them exactly, on any host:
//! a change that puts a Dijkstra solve back on the op path moves these
//! counts by a multiple, whatever the machine's clock is doing.

use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
use mot_hierarchy::{build_doubling, OverlayConfig};
use mot_net::{generators, splitmix64, CachedOracle, NodeId};

const SIDE: usize = 64;
const OBJECTS: usize = 20;
const MOVES_PER_OBJECT: usize = 500;
const QUERIES: usize = 200;

#[test]
fn a_fixed_walk_reads_the_oracle_a_fraction_of_once_per_move() {
    let g = generators::grid(SIDE, SIDE).unwrap();
    let n = g.node_count() as u64;
    let oracle = CachedOracle::new(&g).unwrap();
    let overlay = build_doubling(&g, &oracle, &OverlayConfig::practical(), 1);
    let mut draws = (0u64..).map(|i| splitmix64(0x0517 + i));
    let mut draw = |below: u64| draws.next().expect("endless") % below;

    let mut tracker = MotTracker::new(&overlay, &oracle, MotConfig::plain());
    let mut proxies: Vec<NodeId> = (0..OBJECTS).map(|_| NodeId(draw(n) as u32)).collect();
    for (i, &at) in proxies.iter().enumerate() {
        tracker.publish(ObjectId(i as u32), at).unwrap();
    }

    let before_moves = oracle.solves();
    for _ in 0..MOVES_PER_OBJECT {
        for (i, proxy) in proxies.iter_mut().enumerate() {
            let nbrs = g.neighbors(*proxy);
            *proxy = nbrs[draw(nbrs.len() as u64) as usize];
            tracker.move_object(ObjectId(i as u32), *proxy).unwrap();
        }
    }
    let before_queries = oracle.solves();
    for _ in 0..QUERIES {
        let (from, i) = (NodeId(draw(n) as u32), draw(OBJECTS as u64) as usize);
        let found = tracker.query(from, ObjectId(i as u32)).unwrap();
        assert_eq!(found.proxy, proxies[i]);
    }
    let after = oracle.solves();

    let per_move = (before_queries - before_moves) as f64 / (OBJECTS * MOVES_PER_OBJECT) as f64;
    let per_query = (after - before_queries) as f64 / QUERIES as f64;
    println!("solves: {per_move:.3} per move, {per_query:.3} per query");
    // This walk solves 0.209 times a move and 2.160 times a query; with
    // every downward junction on the oracle it would solve at least
    // 1.127 and 5.945 times. The limits leave room for a different MIS
    // or walk, none for a solve per prune junction or per holder of a
    // descent.
    assert!(per_move < 0.4, "{per_move} solves per move");
    assert!(per_query < 2.5, "{per_query} solves per query");
}
