//! Stored hop lengths bill what the oracle says, bit for bit, on
//! weighted beds.
//!
//! The tree baselines read each parent edge's length once per direction
//! when they are built, and `ClimbStructure::next_stop` hands the
//! concurrent engine the hop into every stop, so no climb, prune or
//! descent asks the oracle. No committed table runs a tree on a weighted
//! graph, where a shortest path summed from one end can round to a
//! different `f32` than the same path summed from the other. These
//! tests hold every billed hop to `oracle.dist(src, dst)` there: the
//! trace events of each operation, the sum they add up to, each move's
//! climb share (what the engine bills a racing request's waste
//! against), and the lengths a climb's stops carry. The hand-built bed
//! at the end has a tree edge whose two directions differ, so a prune
//! or descent that bills the upward length fails it.

use mot_baselines::{
    build_stun, build_zdat, DetectionRates, TrackingTree, TreeTracker, ZdatParams,
};
use mot_core::{MemorySink, ObjectId, TracePhase};
use mot_hierarchy::{build_doubling, build_general, Overlay, OverlayConfig};
use mot_net::{generators, DenseOracle, DistanceOracle, Graph, GraphBuilder, NodeId};
use mot_sim::concurrent::{ClimbStructure, Stop};
use mot_sim::{tracker_over, Algo, WorkloadSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What one driven tracker emitted.
#[derive(Default)]
struct Seen {
    events: usize,
    /// Prune and tree-descent hops: the ones billed top-down.
    down_hops: usize,
    /// Those of them whose reverse distance has other bits.
    asymmetric_down_hops: usize,
}

/// Checks the events `t` emitted since the previous call: each reads
/// `m.dist(src, dst)` bit for bit, and in emission order they sum to
/// `cost`, which is also the cost the operation reported to the sink.
/// Returns the sum of the `Climb` events alone, in emission order.
fn settle(
    sink: &MemorySink,
    m: &dyn DistanceOracle,
    seen: &mut Seen,
    cost: f64,
    what: &str,
) -> f64 {
    let events = sink.events();
    let (mut sum, mut climb) = (0.0, 0.0);
    for ev in &events[seen.events..] {
        assert_eq!(
            ev.distance.to_bits(),
            m.dist(ev.src, ev.dst).to_bits(),
            "{what}: {:?} hop {} -> {} billed {}",
            ev.phase,
            ev.src,
            ev.dst,
            ev.distance
        );
        if matches!(ev.phase, TracePhase::Prune | TracePhase::Descend) {
            seen.down_hops += 1;
            if m.dist(ev.dst, ev.src).to_bits() != ev.distance.to_bits() {
                seen.asymmetric_down_hops += 1;
            }
        }
        if ev.phase == TracePhase::Climb {
            climb += ev.distance;
        }
        sum += ev.distance;
    }
    seen.events = events.len();
    assert_eq!(sum.to_bits(), cost.to_bits(), "{what}: events sum to {sum}");
    let reported = sink.ops().last().expect("the op completed").2;
    assert_eq!(reported.to_bits(), cost.to_bits(), "{what}: reported cost");
    climb
}

/// Publishes, moves and queries through `t`, settling after each op.
fn drive(
    t: &mut dyn ClimbStructure,
    sink: &MemorySink,
    m: &dyn DistanceOracle,
    initial: &[NodeId],
    moves: &[(ObjectId, NodeId)],
    queries: &[(NodeId, ObjectId)],
) -> Seen {
    let name = t.name();
    let mut seen = Seen::default();
    for (o, &p) in initial.iter().enumerate() {
        let cost = t.publish(ObjectId(o as u32), p).unwrap();
        settle(sink, m, &mut seen, cost, &format!("{name} publish"));
    }
    for &(o, to) in moves {
        let mv = t.move_object(o, to).unwrap();
        let what = format!("{name} move {o} -> {to}");
        let climb = settle(sink, m, &mut seen, mv.cost, &what);
        assert_eq!(
            mv.climb.to_bits(),
            climb.to_bits(),
            "{what}: climb share {} is not its climb hops' sum {climb}",
            mv.climb
        );
    }
    for &(from, o) in queries {
        let cost = t.query(from, o).unwrap().cost;
        settle(
            sink,
            m,
            &mut seen,
            cost,
            &format!("{name} query {o} from {from}"),
        );
    }
    seen
}

/// Every hop a climb from any node carries is the oracle's distance
/// from the stop before, and the climb ends at the root. Given MOT's
/// overlay, the climb from `v` also walks `DPath(v)`: the members of
/// `station(v, 0)`, …, `station(v, h)` in order, each stop naming its
/// level and its index in the station.
fn check_climbs(
    t: &dyn ClimbStructure,
    m: &dyn DistanceOracle,
    root: NodeId,
    overlay: Option<&Overlay>,
) {
    for v in (0..m.node_count()).map(NodeId::from_index) {
        let mut prev = Stop::first(v);
        let mut walked = vec![(prev.node, prev.level, prev.index)];
        while let Some(stop) = t.next_stop(v, prev) {
            walked.push((stop.node, stop.level, stop.index));
            assert_eq!(
                stop.hop.to_bits(),
                m.dist(prev.node, stop.node).to_bits(),
                "{}: climb from {v}, hop {} -> {} at level {}",
                t.name(),
                prev.node,
                stop.node,
                stop.level
            );
            prev = stop;
        }
        assert_eq!(
            prev.node,
            root,
            "{}: climb from {v} ends at the root",
            t.name()
        );
        if let Some(o) = overlay {
            let path: Vec<(NodeId, usize, usize)> = (0..=o.height())
                .flat_map(|l| (o.station(v, l).iter().enumerate()).map(move |(j, &u)| (u, l, j)))
                .collect();
            assert_eq!(
                walked,
                path,
                "{}: climb from {v} walks DPath({v})",
                t.name()
            );
        }
    }
}

/// What builds the overlay MOT runs on: `build_doubling` or
/// `build_general`.
type Build = fn(&Graph, &dyn DistanceOracle, &OverlayConfig, u64) -> Overlay;

fn check_bed(g: &Graph, name: &str, build: Build) {
    let m = DenseOracle::build(g).unwrap();
    let overlay = build(g, &m, &OverlayConfig::practical(), 1);
    let w = WorkloadSpec::new(6, 60, 1).generate(g);
    let rates = DetectionRates::from_moves(g, &w.move_pairs());
    let moves: Vec<(ObjectId, NodeId)> = w.moves.iter().map(|mv| (mv.object, mv.to)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let queries: Vec<(NodeId, ObjectId)> = (0..60)
        .map(|_| {
            let from = NodeId::from_index(rng.gen_range(0..g.node_count()));
            (from, ObjectId(rng.gen_range(0..6)))
        })
        .collect();
    let zdat_root = build_zdat(g, &rates, ZdatParams::default()).unwrap().root();
    for (algo, root) in [
        (Algo::Mot, overlay.root()),
        (Algo::Stun, build_stun(g, &rates).root()),
        (Algo::Zdat, zdat_root),
        (Algo::ZdatShortcuts, zdat_root),
    ] {
        let sink = MemorySink::new();
        let mut t = tracker_over(g, &m, &overlay, algo, &rates, Some(&sink)).unwrap();
        let path_of = (algo == Algo::Mot).then_some(&overlay);
        check_climbs(t.as_ref(), &m, root, path_of);
        let seen = drive(t.as_mut(), &sink, &m, &w.initial, &moves, &queries);
        assert!(seen.events > 0, "{name} {}: nothing billed", algo.label());
        if algo != Algo::Mot {
            assert!(
                seen.down_hops > 0,
                "{name} {}: no prune or descent",
                algo.label()
            );
        }
    }
}

#[test]
fn trackers_bill_oracle_distances_on_a_random_geometric_bed() {
    check_bed(
        &generators::random_geometric(90, 10.0, 2.5, 1).unwrap(),
        "geometric 90",
        build_doubling,
    );
}

#[test]
fn trackers_bill_oracle_distances_on_a_perturbed_grid() {
    check_bed(
        &generators::perturbed_grid(12, 12, 0.3, 1).unwrap(),
        "perturbed 12x12",
        build_doubling,
    );
}

#[test]
fn trackers_bill_oracle_distances_over_a_general_overlay() {
    check_bed(
        &generators::random_geometric(90, 10.0, 2.5, 1).unwrap(),
        "geometric 90, general overlay",
        build_general,
    );
}

#[test]
fn downward_tree_hops_bill_the_downward_direction() {
    // The path 0 -a- 1 -b- 2 -c- 3 on which dist(0, 3) = 1.0 but
    // dist(3, 0) = 1 + 2⁻²³ (the two Dijkstra sums straddle an f32
    // rounding boundary; see `hop_table.rs`), under a tree whose logical
    // edge 3 -> 0 is that pair. Climbs out of 3 bill the long direction,
    // prunes and descents into 3 the short one.
    let (a, b, c) = (
        0.5 + (-53f64).exp2(),
        0.5,
        (-24f64).exp2() + (-53f64).exp2(),
    );
    let mut builder = GraphBuilder::new(4);
    for (u, wt) in [a, b, c].into_iter().enumerate() {
        builder
            .add_edge(NodeId::from_index(u), NodeId::from_index(u + 1), wt)
            .unwrap();
    }
    let g = builder.build().unwrap();
    let m = DenseOracle::build(&g).unwrap();
    assert_ne!(
        m.dist(NodeId(0), NodeId(3)).to_bits(),
        m.dist(NodeId(3), NodeId(0)).to_bits(),
        "the bed needs an asymmetric pair"
    );
    let parents = vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(0))];
    let o = ObjectId(0);
    // Out to 2 and back: each move prunes the other branch top-down.
    let moves = [
        (o, NodeId(2)),
        (o, NodeId(3)),
        (o, NodeId(1)),
        (o, NodeId(3)),
    ];
    let queries: Vec<(NodeId, ObjectId)> = (0..4).map(|u| (NodeId(u), o)).collect();
    for shortcuts in [false, true] {
        for via_root in [false, true] {
            let sink = MemorySink::new();
            let tree = TrackingTree::from_parents(NodeId(0), parents.clone());
            let mut t = TreeTracker::new("asymmetric", tree, &m, shortcuts).with_sink(&sink);
            if via_root {
                t = t.with_root_queries();
            }
            check_climbs(&t, &m, NodeId(0), None);
            let seen = drive(&mut t, &sink, &m, &[NodeId(3)], &moves, &queries);
            assert!(
                seen.asymmetric_down_hops > 0,
                "shortcuts {shortcuts}, via root {via_root}: no downward hop crossed the asymmetric edge"
            );
        }
    }
}
