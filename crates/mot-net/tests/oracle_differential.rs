//! Backend parity: the cached oracle must agree with the dense matrix
//! on every query the tracking stack issues.
//!
//! `dist` and `ball` agree *exactly* — both backends quantize through
//! `f32` and Dijkstra is deterministic, so swapping backends can never
//! change a cost account. `diameter` is exact for dense; the cached
//! double-sweep estimate must sit in the documented `[D/2, D]` band
//! (and be exact on grids and trees). Under churn the on-demand backend
//! absorbs each delta with `apply_delta` and must then match a dense
//! matrix rebuilt on the mutated topology — the rebuild-only verifier
//! (DESIGN.md §17).

use mot_net::{
    generators, CachedOracle, ChurnSchedule, ChurnSpec, DenseOracle, DistanceOracle, Graph, NodeId,
    OracleKind, TopologyDelta,
};

/// The topology families the evaluation sweeps.
fn topologies() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        ("grid-9x7".into(), generators::grid(9, 7).unwrap()),
        ("ring-40".into(), generators::ring(40).unwrap()),
        ("line-30".into(), generators::line(30).unwrap()),
        ("torus-6x6".into(), generators::torus(6, 6).unwrap()),
    ];
    for seed in [2, 11, 29] {
        out.push((
            format!("udg-{seed}"),
            generators::random_geometric(50, 8.0, 2.5, seed).unwrap(),
        ));
    }
    for seed in [5, 13] {
        out.push((
            format!("tree-{seed}"),
            generators::random_tree(45, seed).unwrap(),
        ));
    }
    out
}

/// The on-demand backends under test over the same graph.
fn backends(g: &Graph) -> Vec<(&'static str, CachedOracle)> {
    vec![("cached", CachedOracle::new(g).unwrap())]
}

#[test]
fn dist_is_bit_identical_across_backends() {
    for (name, g) in topologies() {
        let dense = DenseOracle::build(&g).unwrap();
        for (backend, oracle) in backends(&g) {
            assert_eq!(oracle.node_count(), dense.node_count(), "{name}/{backend}");
            for u in g.nodes() {
                for v in g.nodes() {
                    let (got, want) = (oracle.dist(u, v), dense.dist(u, v));
                    assert!(
                        got == want,
                        "{name}/{backend}: dist({u},{v}) = {got} != {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn ball_contents_and_order_match_dense() {
    for (name, g) in topologies() {
        let dense = DenseOracle::build(&g).unwrap();
        let radii = [
            0.0,
            0.5,
            1.0,
            2.0,
            3.5,
            dense.diameter() / 2.0,
            dense.diameter(),
        ];
        for (backend, oracle) in backends(&g) {
            for u in g.nodes().step_by(3) {
                for r in radii {
                    assert_eq!(
                        oracle.ball(u, r),
                        dense.ball(u, r),
                        "{name}/{backend}: ball({u}, {r})"
                    );
                    assert_eq!(
                        oracle.ball_size(u, r),
                        dense.ball_size(u, r),
                        "{name}/{backend}: ball_size({u}, {r})"
                    );
                }
            }
        }
    }
}

#[test]
fn nearest_and_walks_match_dense() {
    for (name, g) in topologies() {
        let dense = DenseOracle::build(&g).unwrap();
        let candidates: Vec<NodeId> = g.nodes().step_by(5).collect();
        let walk: Vec<NodeId> = g.nodes().step_by(7).collect();
        for (backend, oracle) in backends(&g) {
            for u in g.nodes().step_by(2) {
                assert_eq!(
                    oracle.nearest_in(u, &candidates),
                    dense.nearest_in(u, &candidates),
                    "{name}/{backend}: nearest_in({u})"
                );
            }
            assert_eq!(
                oracle.walk_length(&walk),
                dense.walk_length(&walk),
                "{name}/{backend}"
            );
        }
    }
}

#[test]
fn diameter_estimates_stay_in_the_documented_band() {
    for (name, g) in topologies() {
        let exact = DenseOracle::build(&g).unwrap().diameter();
        for (backend, oracle) in backends(&g) {
            let est = oracle.diameter();
            assert!(
                est <= exact + 1e-9 && est >= exact / 2.0 - 1e-9,
                "{name}/{backend}: diameter estimate {est} outside [{}, {exact}]",
                exact / 2.0
            );
        }
    }
}

#[test]
fn diameter_is_exact_on_grids_and_trees() {
    // Double sweep is exact on trees; on grids the corner reached by the
    // first sweep realizes the true diameter.
    for (name, g) in [
        ("grid", generators::grid(12, 9).unwrap()),
        ("line", generators::line(64).unwrap()),
        ("tree", generators::random_tree(80, 3).unwrap()),
    ] {
        let exact = DenseOracle::build(&g).unwrap().diameter();
        let cached = CachedOracle::new(&g).unwrap();
        assert_eq!(cached.diameter(), exact, "{name}");
    }
}

#[test]
fn factory_backends_agree_on_shared_queries() {
    let g = generators::grid(10, 10).unwrap();
    let oracles: Vec<Box<dyn DistanceOracle>> =
        [OracleKind::Dense, OracleKind::Cached, OracleKind::Auto]
            .into_iter()
            .map(|k| k.build(&g).unwrap())
            .collect();
    for u in g.nodes().step_by(3) {
        for v in g.nodes().step_by(4) {
            let d0 = oracles[0].dist(u, v);
            for o in &oracles[1..] {
                assert_eq!(o.dist(u, v), d0, "({u},{v})");
            }
        }
    }
    for o in &oracles {
        assert_eq!(o.diameter(), 18.0);
    }
}

#[test]
fn interleaved_oracles_and_query_types_match_dense() {
    // Two oracles over different graphs, queried in lockstep: pooled
    // workspaces inside each oracle are reused across interleaved
    // dist/ball solves and must never leak state between runs.
    let ga = generators::grid(9, 8).unwrap();
    let gb = generators::random_geometric(70, 9.0, 2.5, 23).unwrap();
    let da = DenseOracle::build(&ga).unwrap();
    let db = DenseOracle::build(&gb).unwrap();
    let ca = CachedOracle::new(&ga).unwrap();
    let cb = CachedOracle::new(&gb).unwrap();
    for i in 0..400usize {
        let (ua, va) = (
            NodeId::from_index((i * 31) % 72),
            NodeId::from_index((i * 17 + 5) % 72),
        );
        let (ub, vb) = (
            NodeId::from_index((i * 29) % 70),
            NodeId::from_index((i * 13 + 3) % 70),
        );
        assert_eq!(ca.dist(ua, va), da.dist(ua, va), "step {i}");
        assert_eq!(cb.dist(ub, vb), db.dist(ub, vb), "step {i}");
        if i % 3 == 0 {
            let r = (i % 9) as f64 / 2.0;
            assert_eq!(ca.ball(ua, r), da.ball(ua, r), "step {i}");
            assert_eq!(cb.ball(ub, r), db.ball(ub, r), "step {i}");
        }
    }
}

/// Full-pair differential against the rebuild-only dense verifier.
fn assert_matches_dense(cached: &CachedOracle, g: &Graph, ctx: &str) {
    let dense = DenseOracle::build(g).expect("dense rebuild");
    let d = dense.diameter();
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(
                cached.dist(u, v).to_bits(),
                dense.dist(u, v).to_bits(),
                "{ctx}: dist({u},{v})"
            );
        }
        for r in [1.0, 2.0, d / 2.0, d] {
            assert_eq!(cached.ball(u, r), dense.ball(u, r), "{ctx}: ball({u},{r})");
        }
    }
}

#[test]
fn cached_matches_dense_rebuild_after_every_delta() {
    for (name, g, seed) in [
        ("grid", generators::grid(6, 6).unwrap(), 5u64),
        (
            "geometric",
            generators::random_geometric(48, 8.0, 2.2, 21).unwrap(),
            6,
        ),
    ] {
        let sched = ChurnSchedule::generate(&g, &ChurnSpec::new(10, 4, seed)).unwrap();
        let mut cached = CachedOracle::new(&g).unwrap();
        let mut live = g.clone();
        for (i, delta) in sched.deltas().iter().enumerate() {
            delta.apply(&mut live).unwrap();
            cached.apply_delta(delta).unwrap();
            assert_matches_dense(&cached, &live, &format!("{name} delta {i}"));
        }
    }
}

#[test]
fn generation_stamps_advance_with_deltas() {
    let g = generators::grid(4, 4).unwrap();
    let mut cached = CachedOracle::new(&g).unwrap();
    assert_eq!(cached.graph().generation(), 0);
    cached
        .apply_delta(&TopologyDelta::leave(NodeId(5)))
        .unwrap();
    assert_eq!(cached.graph().generation(), 1);
    assert!(cached.graph().node_generation(NodeId(5)) == 1);
    assert_eq!(cached.graph().node_generation(NodeId(15)), 0);
}
