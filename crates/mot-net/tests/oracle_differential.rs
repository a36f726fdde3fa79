//! Backend parity: the cached oracle must agree with the dense matrix
//! on every query the tracking stack issues.
//!
//! `dist` and `ball` agree *exactly* — both backends quantize through
//! `f32` and Dijkstra is deterministic, so swapping backends can never
//! change a cost account. `diameter` is exact for dense; the cached
//! double-sweep estimate must sit in the documented `[D/2, D]` band
//! (and be exact on grids and trees).

use mot_net::{generators, CachedOracle, DenseOracle, DistanceOracle, Graph, NodeId, OracleKind};

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

/// The on-demand backend over the same graph, once with its default
/// budget (promotion-heavy under the exhaustive query sweeps) and once
/// with a two-row budget so the eviction-then-recompute path is
/// exercised on every topology.
fn backends(g: &Graph) -> Vec<(&'static str, CachedOracle)> {
    let two_rows = 2 * 12 * g.node_count();
    vec![
        ("cached", CachedOracle::new(g).unwrap()),
        (
            "cached-tiny-budget",
            CachedOracle::with_byte_budget(g, two_rows).unwrap(),
        ),
    ]
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
