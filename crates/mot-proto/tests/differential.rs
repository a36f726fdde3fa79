//! Differential testing: the message-passing runtime against the direct
//! implementation of Algorithm 1.
//!
//! Both are renderings of the same algorithm over the same overlay, so on
//! identical workloads they must agree *exactly*: same proxies, identical
//! detection-list state at every (node, level), the same canonical SDL
//! entry at every (node, object), identical per-node loads,
//! and equal operation costs (maintenance to the last bit, its climb
//! share bit for bit; queries too, since both use the same canonical
//! probing and nearest-holder descent).

use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
use mot_hierarchy::{build_doubling, Overlay, OverlayConfig};
use mot_net::{generators, DenseOracle, Graph};
use mot_proto::ProtoTracker;
use mot_sim::{MobilityModel, WorkloadSpec};

struct Env {
    graph: Graph,
    oracle: DenseOracle,
    overlay: Overlay,
}

fn env(g: Graph, seed: u64, cfg: &OverlayConfig) -> Env {
    let oracle = DenseOracle::build(&g).unwrap();
    let overlay = build_doubling(&g, &oracle, cfg, seed);
    Env {
        graph: g,
        oracle,
        overlay,
    }
}

fn assert_state_identical(env: &Env, direct: &MotTracker, proto: &ProtoTracker, objects: u32) {
    for node in env.graph.nodes() {
        for o in (0..objects).map(ObjectId) {
            for level in 0..=env.overlay.height() {
                assert_eq!(
                    direct.holds(node, level, o),
                    proto.holds(node, level, o),
                    "DL divergence at node {node}, level {level}, object {o}"
                );
            }
            assert_eq!(
                direct.guard(node, o),
                proto.sdl_entry(node, o),
                "SDL divergence at node {node}, object {o}"
            );
        }
    }
    assert_eq!(direct.node_loads(), proto.node_loads(), "load divergence");
}

fn run_differential(env: &Env, objects: u32, moves: usize, seed: u64, cfg: MotConfig) {
    let mut direct = MotTracker::new(&env.overlay, &env.oracle, cfg.clone());
    let mut proto = ProtoTracker::new(&env.overlay, &env.oracle, &cfg);

    let spec = WorkloadSpec {
        objects: objects as usize,
        moves_per_object: moves,
        model: MobilityModel::RandomWalk,
        seed,
    };
    let w = spec.generate(&env.graph);

    // --- publish ---------------------------------------------------------
    for (oi, &proxy) in w.initial.iter().enumerate() {
        let o = ObjectId(oi as u32);
        let cd = direct.publish(o, proxy).unwrap();
        let cp = proto.publish(o, proxy).unwrap();
        assert!(
            (cd - cp).abs() < 1e-6,
            "publish cost divergence for {o}: direct {cd} vs proto {cp}"
        );
    }
    assert_state_identical(env, &direct, &proto, objects);

    // --- maintenance -------------------------------------------------------
    for (step, m) in w.moves.iter().enumerate() {
        let md = direct.move_object(m.object, m.to).unwrap();
        let mp = proto.move_object(m.object, m.to).unwrap();
        assert_eq!(md.from, mp.from, "step {step}: from divergence");
        assert!(
            (md.cost - mp.cost).abs() < 1e-6,
            "step {step} ({:?} -> {}): cost divergence direct {} vs proto {}",
            m.object,
            m.to,
            md.cost,
            mp.cost
        );
        assert_eq!(
            md.climb.to_bits(),
            mp.climb.to_bits(),
            "step {step}: climb share divergence direct {} vs proto {}",
            md.climb,
            mp.climb
        );
        if step % 29 == 0 {
            assert_state_identical(env, &direct, &proto, objects);
        }
    }
    assert_state_identical(env, &direct, &proto, objects);

    // --- queries -----------------------------------------------------------
    for o in 0..objects {
        let o = ObjectId(o);
        for x in env.graph.nodes() {
            let qd = direct.query(x, o).unwrap();
            let qp = proto.query(x, o).unwrap();
            assert_eq!(qd.proxy, qp.proxy, "query({x}, {o}): proxy divergence");
            assert!(
                (qd.cost - qp.cost).abs() < 1e-6,
                "query({x}, {o}): cost divergence direct {} vs proto {}",
                qd.cost,
                qp.cost
            );
        }
    }
}

#[test]
fn identical_on_grid_with_special_parents() {
    let env = env(
        generators::grid(6, 6).unwrap(),
        3,
        &OverlayConfig::practical(),
    );
    run_differential(&env, 3, 120, 7, MotConfig::plain());
}

#[test]
fn identical_on_grid_without_special_parents() {
    let env = env(
        generators::grid(6, 6).unwrap(),
        3,
        &OverlayConfig::practical(),
    );
    run_differential(&env, 3, 120, 11, MotConfig::no_special_parents());
}

#[test]
fn identical_on_random_geometric() {
    let g = generators::random_geometric(50, 8.0, 2.2, 5).unwrap();
    let env = env(g, 9, &OverlayConfig::practical());
    run_differential(&env, 2, 100, 13, MotConfig::plain());
}

#[test]
fn identical_on_ring() {
    let env = env(
        generators::ring(32).unwrap(),
        4,
        &OverlayConfig::practical(),
    );
    run_differential(&env, 2, 90, 17, MotConfig::plain());
}

#[test]
fn identical_with_paper_exact_constants() {
    let env = env(
        generators::grid(5, 5).unwrap(),
        6,
        &OverlayConfig::paper_exact(),
    );
    run_differential(&env, 2, 60, 19, MotConfig::plain());
}

#[test]
fn identical_with_wide_parent_sets() {
    let mut cfg = OverlayConfig::practical();
    cfg.parent_set_radius_mult = 2.0;
    let env = env(generators::grid(6, 6).unwrap(), 8, &cfg);
    run_differential(&env, 2, 100, 23, MotConfig::plain());
}
