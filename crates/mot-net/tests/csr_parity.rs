//! CSR/workspace vs seed-implementation parity.
//!
//! The flat-CSR graph and the reusable [`DijkstraWorkspace`] replaced
//! an adjacency-list graph and a per-call `BinaryHeap` Dijkstra. The
//! replacement claims *bit-identical* behaviour, not merely equal-up-to
//! -epsilon: distances, parents, and ball memberships drive every
//! downstream tie-break (MIS priorities, default parents, station
//! sets), so any drift cascades into different published figures.
//!
//! These tests re-implement the seed's exact `BinaryHeap` solver inline
//! and compare it against the workspace across every topology
//! generator, plus exercise the one behaviour the seed never had to
//! prove: that a *reused* workspace (stale buffers, grown capacity,
//! interleaved with other workspaces in shuffled call order) returns
//! exactly what a fresh one does.
//!
//! The workspace has two inner loops — the heap for weighted fields, a
//! layered search over the id rows where [`Graph::is_unit_weight`] —
//! plus, for one pair's distance on unit-weight fields, a bidirectional
//! BFS; this is the one solver in the repository that shares code with
//! none of them (the free functions in `dijkstra.rs` wrap the
//! workspace). Every flavour of run is held to it, each to what its
//! callers read: `sssp` to the seed's distances, parents and settle
//! order; a bounded ball to the seed's distances and, per distance, its
//! set of settled nodes, with the same state left where it stops (a
//! ball promises no order within a distance and no parents); and
//! `distance` (the work of every `CachedOracle::dist`) to the seed's
//! distance from the source. All of it on static graphs and across
//! `remove_node` / `restore_node` churn that keeps, then drops, the
//! flag.

use mot_net::{generators, ChurnSchedule, ChurnSpec, DijkstraWorkspace, Graph, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The seed repo's heap entry, verbatim: min-heap on distance via
/// reversed comparison, ties broken toward the smaller node id.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The seed repo's Dijkstra, verbatim but for the stop at `radius`:
/// distances (tentative ones where it stopped), parents, and the
/// settle order (first pop of each node).
fn seed_dijkstra(
    g: &Graph,
    source: NodeId,
    radius: f64,
) -> (Vec<f64>, Vec<Option<NodeId>>, Vec<NodeId>) {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = Vec::new();
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        if d > radius {
            break;
        }
        settled.push(u);
        for e in g.half_edges(u) {
            let nd = d + e.weight;
            let vi = e.to.index();
            if nd < dist[vi] {
                dist[vi] = nd;
                parent[vi] = Some(u);
                heap.push(HeapEntry {
                    dist: nd,
                    node: e.to,
                });
            }
        }
    }
    (dist, parent, settled)
}

fn suite() -> Vec<(Graph, &'static str)> {
    vec![
        (generators::grid(7, 9).unwrap(), "grid"),
        (generators::torus(6, 6).unwrap(), "torus"),
        (generators::ring(30).unwrap(), "ring"),
        (generators::line(25).unwrap(), "line"),
        (generators::random_tree(60, 5).unwrap(), "tree"),
        (
            generators::random_geometric(70, 9.0, 2.5, 5).unwrap(),
            "geometric",
        ),
        (
            generators::perturbed_grid(7, 7, 0.3, 5).unwrap(),
            "perturbed",
        ),
        (
            generators::clustered(50, 4, 12.0, 3.0, 5).unwrap(),
            "clustered",
        ),
        // Unit-weight fields large enough for layers to be long (up to
        // 40 nodes on the grid) and to wrap (the torus).
        (generators::grid(40, 40).unwrap(), "grid40"),
        (generators::torus(12, 15).unwrap(), "torus12x15"),
    ]
}

const RADII: [f64; 7] = [-1.0, 0.0, 0.5, 1.0, 2.5, 7.0, f64::MAX];

/// A bounded run against the seed solver stopped at the same radius:
/// per distance the same set of settled nodes, in nondecreasing
/// distance, the same count, and every node's distance bits the seed's
/// — the ball's exact ones and the tentative ones where it stopped, so
/// nothing outside the ball reads `<= radius`. A ball is distances
/// only: no parent is readable after it.
fn assert_ball_matches_seed(ws: &mut DijkstraWorkspace, g: &Graph, src: NodeId, ctx: &str) {
    for radius in RADII {
        let (dist, _, settled) = seed_dijkstra(g, src, radius);
        let mut ball = ws.bounded_ball(g, src, radius).to_vec();
        let at = |v: &NodeId| dist[v.index()];
        assert!(
            ball.windows(2).all(|w| at(&w[0]) <= at(&w[1])),
            "{ctx}: ball({src}, {radius}) out of distance order"
        );
        ball.sort_by(|a, b| at(a).total_cmp(&at(b)).then(a.cmp(b)));
        assert_eq!(ball, settled, "{ctx}: ball({src}, {radius})");
        for v in g.nodes() {
            let d = ws.dist(v);
            assert_eq!(d.to_bits(), dist[v.index()].to_bits(), "{ctx}: {v} at {d}");
            assert_eq!(ws.parent(v), None, "{ctx}: a ball left a parent at {v}");
        }
    }
}

/// `distance` against the seed solver: the seed's distance from the
/// source to the target, bit for bit, and no run left to read back.
fn assert_distance_matches_seed(
    ws: &mut DijkstraWorkspace,
    g: &Graph,
    (src, target): (NodeId, NodeId),
    ctx: &str,
) -> f64 {
    let (dist, _, _) = seed_dijkstra(g, src, f64::INFINITY);
    let got = ws.distance(g, src, target);
    assert_eq!(
        got.to_bits(),
        dist[target.index()].to_bits(),
        "{ctx}: distance({src} -> {target})"
    );
    assert!(ws.settled().is_empty(), "{ctx}: distance left a run behind");
    assert_eq!(
        ws.dist(target),
        f64::INFINITY,
        "{ctx}: distance left a stamp"
    );
    got
}

/// Seeded `(source, target)` pairs over the active nodes of `g`; every
/// fifth pair is `source == target`, every fifth an adjacent pair.
fn seeded_pairs(g: &Graph, count: usize, rng: &mut ChaCha8Rng) -> Vec<(NodeId, NodeId)> {
    let active: Vec<NodeId> = g.active_nodes().collect();
    (0..count)
        .map(|i| {
            let src = *active.choose(rng).expect("an active node");
            let target = match i % 5 {
                0 => src,
                1 => g.neighbors(src).choose(rng).copied().unwrap_or(src),
                _ => *active.choose(rng).expect("an active node"),
            };
            (src, target)
        })
        .collect()
}

#[test]
fn workspace_matches_seed_solver_on_every_generator() {
    let mut ws = DijkstraWorkspace::new();
    for (g, name) in suite() {
        for src in [0usize, 1, g.node_count() / 2, g.node_count() - 1] {
            let src = NodeId::from_index(src);
            let (dist, parent, settled) = seed_dijkstra(&g, src, f64::INFINITY);
            ws.sssp(&g, src);
            for v in g.nodes() {
                assert_eq!(
                    ws.dist(v).to_bits(),
                    dist[v.index()].to_bits(),
                    "{name}: dist({src} -> {v})"
                );
                assert_eq!(ws.parent(v), parent[v.index()], "{name}: parent({v})");
            }
            assert_eq!(
                ws.settled(),
                &settled[..],
                "{name}: settle order from {src}"
            );
        }
    }
}

#[test]
fn bounded_ball_matches_seed_solver_cut() {
    let mut ws = DijkstraWorkspace::new();
    for (g, name) in suite() {
        let n = g.node_count();
        for src in [0, n / 3, n - 1] {
            assert_ball_matches_seed(&mut ws, &g, NodeId::from_index(src), name);
        }
    }
}

#[test]
fn distance_is_the_seed_solvers_distance_from_the_source() {
    let mut ws = DijkstraWorkspace::new();
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    // Ten graphs, unit and weighted, thirty pairs each.
    for (g, name) in suite() {
        for pair in seeded_pairs(&g, 30, &mut rng) {
            assert_distance_matches_seed(&mut ws, &g, pair, name);
        }
    }
}

#[test]
fn parity_survives_unit_churn_and_then_a_weighted_star() {
    let mut ws = DijkstraWorkspace::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let check = |g: &Graph, ctx: &str, ws: &mut DijkstraWorkspace, rng: &mut ChaCha8Rng| {
        for pair in seeded_pairs(g, 5, rng) {
            assert_distance_matches_seed(ws, g, pair, ctx);
            assert_ball_matches_seed(ws, g, pair.0, ctx);
            // Inactive nodes have no edges: nothing ever reaches them.
            assert!(ws.settled().iter().all(|&v| g.is_active(v)), "{ctx}");
        }
        // An inactive end: itself at 0, everything else out of reach.
        if let Some(gone) = g.nodes().find(|&v| !g.is_active(v)) {
            let live = g.active_nodes().next().expect("an active node");
            for (pair, want) in [
                ((gone, gone), 0.0),
                ((gone, live), f64::INFINITY),
                ((live, gone), f64::INFINITY),
            ] {
                assert_eq!(
                    assert_distance_matches_seed(ws, g, pair, ctx),
                    want,
                    "{ctx}"
                );
            }
        }
    };
    for (base, name) in [
        (generators::grid(12, 12).unwrap(), "grid"),
        (generators::torus(8, 9).unwrap(), "torus"),
    ] {
        // Leaves, and joins that bring back the base star filtered to
        // live far ends: every edge ever restored weighs 1.0.
        let sched = ChurnSchedule::generate(&base, &ChurnSpec::new(40, 8, 7)).unwrap();
        let mut g = base.clone();
        for (step, delta) in sched.deltas().iter().enumerate() {
            delta.apply(&mut g).unwrap();
            assert!(g.is_unit_weight(), "{name}: unit churn keeps the flag");
            check(&g, &format!("{name} step {step}"), &mut ws, &mut rng);
        }

        // One weight-2 star: the flag drops, the heap loop takes over,
        // and the answers are still the seed solver's.
        let u = g.active_nodes().find(|&u| g.degree(u) >= 2).unwrap();
        let mut star = g.remove_node(u).unwrap();
        star[0].weight = 2.0;
        g.restore_node(u, &star).unwrap();
        assert!(!g.is_unit_weight(), "{name}");
        check(&g, &format!("{name} weighted"), &mut ws, &mut rng);
    }
}

#[test]
fn interleaved_reused_workspaces_stay_deterministic() {
    // Two workspaces, many graphs, shuffled call order: a reused
    // workspace must never leak state from whatever it ran before.
    let graphs = suite();
    let mut calls: Vec<(usize, usize, usize)> = Vec::new(); // (graph, source, ws)
    for (gi, (g, _)) in graphs.iter().enumerate() {
        for si in [0usize, g.node_count() - 1] {
            calls.push((gi, si, 0));
            calls.push((gi, si, 1));
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    calls.shuffle(&mut rng);

    let mut pool = [DijkstraWorkspace::new(), DijkstraWorkspace::new()];
    for (gi, si, wi) in calls {
        let (g, name) = &graphs[gi];
        let src = NodeId::from_index(si);
        let (dist, parent, _) = seed_dijkstra(g, src, f64::INFINITY);
        let ws = &mut pool[wi];
        ws.sssp(g, src);
        for v in g.nodes() {
            assert_eq!(
                ws.dist(v).to_bits(),
                dist[v.index()].to_bits(),
                "{name}: ws{wi} dist({src} -> {v})"
            );
            assert_eq!(
                ws.parent(v),
                parent[v.index()],
                "{name}: ws{wi} parent({v})"
            );
        }
    }
}
