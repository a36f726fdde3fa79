//! Repaired-vs-rebuilt bit-parity differential suite (DESIGN.md §17).
//!
//! After every delta of a seeded churn schedule, the incrementally
//! repaired [`RepairableHierarchy`] must be bit-identical — levels,
//! default parents, stations — to a from-scratch build on the mutated
//! topology. Exercised across grid and geometric generators, three
//! schedule seeds each, and the three overlay-config profiles
//! (including `parent_set_radius_mult = 0`, which degenerates stations
//! to singleton default parents).

use mot_hierarchy::{OverlayConfig, RepairLedger, RepairableHierarchy};
use mot_net::{generators, ChurnSchedule, ChurnSpec, Graph};

/// Replays `sched` against `hier` delta by delta, asserting full
/// structural bit-parity with a fresh build after every step. Returns
/// the repair ledger the schedule left behind.
fn assert_repair_matches_rebuild(
    base: &Graph,
    cfg: &OverlayConfig,
    hier_seed: u64,
    spec: &ChurnSpec,
    ctx: &str,
) -> RepairLedger {
    let sched = ChurnSchedule::generate(base, spec).expect("schedule");
    let mut hier = RepairableHierarchy::build(base, cfg, hier_seed).expect("build");
    let mut live = base.clone();
    for (i, delta) in sched.deltas().iter().enumerate() {
        delta.apply(&mut live).expect("apply");
        hier.repair(delta).expect("repair");
        let fresh = RepairableHierarchy::build(&live, cfg, hier_seed).expect("rebuild");
        assert_eq!(
            hier.snapshot(),
            fresh.snapshot(),
            "{ctx}: divergence after delta {i}"
        );
    }
    let ledger = hier.ledger();
    assert_eq!(ledger.deltas, sched.len() as u64);
    assert_eq!(ledger.repairs + ledger.rebuilds, ledger.deltas);
    ledger
}

#[test]
fn grid_bit_parity_across_three_seeds() {
    let g = generators::grid(7, 7).unwrap();
    let cfg = OverlayConfig::practical();
    // Repair balls are billed by settled node, so the count moves if a
    // shortest-path kernel settles one node more or fewer than the heap
    // loop did (these are its numbers); the snapshots alone would not say.
    for (seed, settled_nodes) in [(11u64, 25_340u64), (12, 21_404), (13, 20_768)] {
        let ledger = assert_repair_matches_rebuild(
            &g,
            &cfg,
            7,
            &ChurnSpec::new(12, 5, seed),
            &format!("grid seed {seed}"),
        );
        assert_eq!(ledger.settled_nodes, settled_nodes, "grid seed {seed}");
    }
}

#[test]
fn geometric_bit_parity_across_three_seeds() {
    let g = generators::random_geometric(56, 8.0, 2.2, 17).unwrap();
    let cfg = OverlayConfig::practical();
    for seed in [21u64, 22, 23] {
        assert_repair_matches_rebuild(
            &g,
            &cfg,
            9,
            &ChurnSpec::new(12, 6, seed),
            &format!("geometric seed {seed}"),
        );
    }
}

#[test]
fn config_profiles_keep_bit_parity() {
    let g = generators::grid(6, 6).unwrap();
    for (name, cfg) in [
        ("practical", OverlayConfig::practical()),
        ("paper_exact", OverlayConfig::paper_exact()),
        ("singleton_parents", OverlayConfig::singleton_parents()),
    ] {
        assert_repair_matches_rebuild(&g, &cfg, 5, &ChurnSpec::new(8, 4, 31), name);
    }
}

#[test]
fn tree_churn_with_heavy_departures() {
    // Trees disconnect aggressively, so schedules lean on the
    // connectivity filter; repair must still track rebuilds exactly.
    let g = generators::random_tree(48, 41).unwrap();
    let cfg = OverlayConfig::practical();
    assert_repair_matches_rebuild(&g, &cfg, 3, &ChurnSpec::new(14, 8, 43), "tree");
}

#[test]
fn repair_absorbs_batched_deltas() {
    // Multi-event deltas (leave + join in one batch) must repair
    // atomically to the same fixpoint.
    let g = generators::grid(6, 6).unwrap();
    let cfg = OverlayConfig::practical();
    let mut hier = RepairableHierarchy::build(&g, &cfg, 2).unwrap();
    let mut live = g.clone();

    let star = {
        let mut probe = g.clone();
        probe.remove_node(mot_net::NodeId(14)).unwrap()
    };
    let mut delta = mot_net::TopologyDelta::leave(mot_net::NodeId(14));
    delta
        .events
        .push(mot_net::ChurnEvent::Leave(mot_net::NodeId(0)));
    delta.apply(&mut live).unwrap();
    hier.repair(&delta).unwrap();
    let fresh = RepairableHierarchy::build(&live, &cfg, 2).unwrap();
    assert_eq!(hier.snapshot(), fresh.snapshot(), "after batched leaves");

    let back = mot_net::TopologyDelta::join(
        mot_net::NodeId(14),
        star.into_iter()
            .filter(|e| e.to != mot_net::NodeId(0))
            .collect(),
    );
    back.apply(&mut live).unwrap();
    hier.repair(&back).unwrap();
    let fresh = RepairableHierarchy::build(&live, &cfg, 2).unwrap();
    assert_eq!(hier.snapshot(), fresh.snapshot(), "after rejoin");
    assert_eq!(hier.ledger().events, 3);
}
