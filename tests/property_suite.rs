//! Property-based tests over the whole stack: random topologies, random
//! workloads, adversarial churn — checking the invariants the
//! correctness of tracking rests on.
//!
//! The harness is hand-rolled (the environment vendors no proptest):
//! every property is exercised over a deterministic sweep of seeded
//! random cases, so failures reproduce exactly by case number.

use mot_tracking::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 24;

/// Per-property, per-case generator: independent, reproducible streams.
fn case_rng(property: u64, case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(property.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case)
}

/// A connected random-geometric deployment of 10..=60 sensors.
fn deployment(rng: &mut ChaCha8Rng) -> Graph {
    let n = rng.gen_range(10usize..=60);
    let seed = rng.gen_range(0u64..1000);
    generators::random_geometric(n, 8.0, 2.5, seed).expect("connected deployment")
}

/// The distance oracle is a metric: symmetric, zero diagonal, triangle
/// inequality.
#[test]
fn distance_oracle_is_a_metric() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let g = deployment(&mut rng);
        let m = DenseOracle::build(&g).unwrap();
        let n = g.node_count();
        // Tolerances scale with the distances involved: entries are f32,
        // and weight normalization (min edge weight = 1) can push
        // distances into the thousands where a fixed 1e-4 is below one
        // f32 ULP.
        let tol = |scale: f64| 1e-4 + scale.abs() * 1e-6;
        for i in 0..n.min(12) {
            for j in 0..n.min(12) {
                let (u, v) = (NodeId::from_index(i), NodeId::from_index(j));
                let duv = m.dist(u, v);
                assert!((duv - m.dist(v, u)).abs() < tol(duv), "case {case}");
                if i == j {
                    assert_eq!(duv, 0.0, "case {case}");
                }
                for k in 0..n.min(8) {
                    let w = NodeId::from_index(k);
                    let detour = m.dist(u, w) + m.dist(w, v);
                    assert!(
                        duv <= detour + tol(detour),
                        "case {case}: triangle violated at ({u}, {v}, {w}): {duv} > {detour}"
                    );
                }
            }
        }
    }
}

/// The core reachability invariant: after ANY sequence of random moves,
/// every sensor's query returns the object's true proxy, in plain and
/// load-balanced mode.
#[test]
fn queries_always_find_the_true_proxy() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let g = deployment(&mut rng);
        let move_count = rng.gen_range(1usize..80);
        let lb: bool = rng.gen();
        let overlay_seed = rng.gen_range(0u64..100);
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), overlay_seed);
        let cfg = if lb {
            MotConfig::load_balanced()
        } else {
            MotConfig::plain()
        };
        let mut t = MotTracker::new(&overlay, &m, cfg);
        let o = ObjectId(0);
        let mut proxy = NodeId(0);
        t.publish(o, proxy).unwrap();
        for _ in 0..move_count {
            let nbrs = g.neighbors(proxy);
            proxy = nbrs[rng.gen_range(0..nbrs.len())];
            t.move_object(o, proxy).unwrap();
        }
        t.check_invariants();
        for x in g.nodes() {
            let q = t.query(x, o).unwrap();
            assert_eq!(q.proxy, proxy, "case {case}: query from {x}");
            assert!(q.cost.is_finite() && q.cost >= 0.0, "case {case}");
        }
    }
}

/// Lemma 2.1 with the paper's constants: detection paths of nodes at
/// distance d meet by level ceil(log2 d) + 1.
#[test]
fn detection_paths_meet_at_the_lemma_level() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let g = deployment(&mut rng);
        let seed = rng.gen_range(0u64..50);
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::paper_exact(), seed);
        let n = g.node_count();
        for i in (0..n).step_by(3) {
            for j in (1..n).step_by(5) {
                let (u, v) = (NodeId::from_index(i), NodeId::from_index(j));
                if u == v {
                    continue;
                }
                let d = m.dist(u, v);
                let bound = (((d.log2().ceil()) as i64).max(0) as usize + 1).min(overlay.height());
                assert!(
                    overlay.meet_level(u, v) <= bound,
                    "case {case}: meet({}, {}) = {} > {} (d = {})",
                    u,
                    v,
                    overlay.meet_level(u, v),
                    bound,
                    d
                );
            }
        }
    }
}

/// Message-pruning-tree invariant: after any move sequence the
/// detection sets of a tree baseline are exactly the proxy's tree
/// ancestors.
#[test]
fn tree_detection_sets_are_proxy_ancestors() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let g = deployment(&mut rng);
        let move_count = rng.gen_range(1usize..60);
        let m = DenseOracle::build(&g).unwrap();
        let rates = DetectionRates::uniform(&g);
        let tree = build_stun(&g, &rates);
        let mut t = TreeTracker::new("STUN", tree, &m, false);
        let o = ObjectId(0);
        let mut proxy = NodeId(0);
        t.publish(o, proxy).unwrap();
        for _ in 0..move_count {
            let nbrs = g.neighbors(proxy);
            proxy = nbrs[rng.gen_range(0..nbrs.len())];
            t.move_object(o, proxy).unwrap();
        }
        // expected ancestor chain
        let mut expected = std::collections::HashSet::new();
        let mut cur = Some(proxy);
        while let Some(u) = cur {
            expected.insert(u);
            cur = t.tree().parent(u);
        }
        for u in g.nodes() {
            assert_eq!(t.holds(u, o), expected.contains(&u), "case {case}: at {u}");
        }
        let total: usize = t.node_loads().iter().sum();
        assert_eq!(total, expected.len(), "case {case}");
    }
}

/// de Bruijn canonical routing is a shortest path for every dimension
/// and label pair.
#[test]
fn debruijn_routing_is_shortest() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let dim = rng.gen_range(0u32..9);
        let g = DeBruijnGraph::new(dim);
        let mask = g.vertex_count() - 1;
        let (src, dst) = (rng.gen::<u32>() & mask, rng.gen::<u32>() & mask);
        let route = g.route(src, dst);
        assert_eq!(route[0], src, "case {case}");
        assert_eq!(*route.last().unwrap(), dst, "case {case}");
        for w in route.windows(2) {
            assert!(g.successors(w[0]).contains(&w[1]), "case {case}");
        }
        assert!(route.len() as u32 - 1 <= dim, "case {case}");
    }
}

/// Workload generation always produces valid adjacent chains.
#[test]
fn workloads_are_valid_walks() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let g = deployment(&mut rng);
        let objects = rng.gen_range(1usize..6);
        let moves = rng.gen_range(1usize..50);
        let seed = rng.gen_range(0u64..500);
        let w = WorkloadSpec::new(objects, moves, seed).generate(&g);
        let mut pos = w.initial.clone();
        for m in &w.moves {
            assert!(g.has_edge(m.from, m.to), "case {case}");
            assert_eq!(m.from, pos[m.object.index()], "case {case}");
            pos[m.object.index()] = m.to;
        }
    }
}
