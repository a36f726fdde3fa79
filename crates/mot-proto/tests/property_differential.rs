//! Property-based differential testing: on random deployments and random
//! walks, the message-passing runtime and the direct implementation stay
//! cost- and state-identical.
//!
//! The harness is a deterministic sweep of seeded random cases (the
//! environment vendors no proptest); failures reproduce by case number.

use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
use mot_hierarchy::{build_doubling, OverlayConfig};
use mot_net::{generators, DenseOracle, NodeId};
use mot_proto::ProtoTracker;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 16;

#[test]
fn proto_and_direct_agree_on_random_walks() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff ^ (case << 8));
        let n = rng.gen_range(12usize..50);
        let graph_seed = rng.gen_range(0u64..500);
        let overlay_seed = rng.gen_range(0u64..50);
        let step_count = rng.gen_range(1usize..60);
        let use_sp: bool = rng.gen();

        let g =
            generators::random_geometric(n, 8.0, 2.6, graph_seed).expect("connected deployment");
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), overlay_seed);
        let cfg = if use_sp {
            MotConfig::plain()
        } else {
            MotConfig::no_special_parents()
        };
        let mut direct = MotTracker::new(&overlay, &m, cfg.clone());
        let mut proto = ProtoTracker::new(&overlay, &m, &cfg);

        let o = ObjectId(0);
        let mut proxy = NodeId(rng.gen_range(0..n as u32));
        let cd = direct.publish(o, proxy).unwrap();
        let cp = proto.publish(o, proxy).unwrap();
        assert!((cd - cp).abs() < 1e-6, "case {case} publish: {cd} vs {cp}");

        for i in 0..step_count {
            let nbrs = g.neighbors(proxy);
            proxy = nbrs[rng.gen_range(0..nbrs.len())];
            let md = direct.move_object(o, proxy).unwrap();
            let mp = proto.move_object(o, proxy).unwrap();
            assert!(
                (md.cost - mp.cost).abs() < 1e-6,
                "case {case} step {i}: direct {} vs proto {}",
                md.cost,
                mp.cost
            );
        }

        // identical state everywhere
        for node in g.nodes() {
            for level in 0..=overlay.height() {
                assert_eq!(
                    direct.holds(node, level, o),
                    proto.holds(node, level, o),
                    "case {case}: DL divergence at {node} level {level}"
                );
            }
            assert_eq!(
                direct.guard(node, o),
                proto.sdl_entry(node, o),
                "case {case}: SDL divergence at {node}"
            );
        }
        assert_eq!(direct.node_loads(), proto.node_loads(), "case {case}");

        // identical query behaviour from a sample of nodes
        for x in g.nodes().step_by(5) {
            let qd = direct.query(x, o).unwrap();
            let qp = proto.query(x, o).unwrap();
            assert_eq!(qd.proxy, qp.proxy, "case {case}");
            assert!(
                (qd.cost - qp.cost).abs() < 1e-6,
                "case {case} query from {x}: direct {} vs proto {}",
                qd.cost,
                qp.cost
            );
        }
    }
}
