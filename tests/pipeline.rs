//! End-to-end pipeline tests: every algorithm, several topologies, full
//! publish → maintain → query flows with cross-checked ground truth.

use mot_tracking::prelude::*;

fn algorithms() -> Vec<Algo> {
    vec![
        Algo::Mot,
        Algo::MotLb,
        Algo::MotNoSp,
        Algo::Stun,
        Algo::Dat,
        Algo::Zdat,
        Algo::ZdatShortcuts,
    ]
}

fn exercise(bed: &TestBed, objects: usize, moves: usize, seed: u64) {
    let w = WorkloadSpec::new(objects, moves, seed).generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let finals = w.final_proxies();
    for algo in algorithms() {
        let mut t = bed.make_tracker(algo, &rates).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        let maint = replay(t.as_mut(), &w, &bed.oracle, None).unwrap().cost;
        assert!(
            maint.ratio() >= 1.0,
            "{}: maintenance ratio {} beats optimal",
            algo.label(),
            maint.ratio()
        );
        // the structure's proxy records agree with the trace
        for (oi, &p) in finals.iter().enumerate() {
            assert_eq!(
                t.proxy_of(ObjectId(oi as u32)),
                Some(p),
                "{}: object {oi} lost",
                algo.label()
            );
        }
        // every query from every node locates the true proxy
        let q = query_batch(
            t.as_mut(),
            &bed.oracle,
            objects,
            150,
            seed + 1,
            Draw::UNIFORM,
            None,
        )
        .unwrap();
        assert_eq!(q.correct, 150, "{} answered queries wrong", algo.label());
        // load accounting is non-negative and bounded by total entries
        let loads = t.node_loads();
        let total: usize = loads.iter().sum();
        assert!(total > 0, "{}: no load recorded", algo.label());
    }
}

#[test]
fn grid_pipeline() {
    exercise(&TestBed::grid(8, 8, 3).unwrap(), 6, 120, 5);
}

#[test]
fn random_geometric_pipeline() {
    let g = generators::random_geometric(70, 9.0, 2.1, 4).unwrap();
    exercise(&TestBed::new(g, 9).unwrap(), 5, 80, 7);
}

#[test]
fn ring_pipeline() {
    let g = generators::ring(40).unwrap();
    exercise(&TestBed::new(g, 2).unwrap(), 4, 80, 11);
}

#[test]
fn torus_pipeline() {
    let g = generators::torus(7, 7).unwrap();
    exercise(&TestBed::new(g, 5).unwrap(), 4, 60, 13);
}

#[test]
fn mot_on_general_overlay_pipeline() {
    let g = generators::grid(7, 7).unwrap();
    let bed = TestBed::general(g, &OverlayConfig::practical(), 8).unwrap();
    let w = WorkloadSpec::new(4, 100, 3).generate(&bed.graph);
    let mut t = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::plain());
    run_publish(&mut t, &w).unwrap();
    replay(&mut t, &w, &bed.oracle, None).unwrap();
    t.check_invariants();
    let q = query_batch(&mut t, &bed.oracle, 4, 200, 2, Draw::UNIFORM, None).unwrap();
    assert_eq!(q.correct, 200);
}

#[test]
fn load_conservation_between_plain_and_balanced() {
    // Load balancing relocates entries but must not create or destroy
    // them.
    let bed = TestBed::grid(8, 8, 1).unwrap();
    let w = WorkloadSpec::new(10, 60, 2).generate(&bed.graph);
    let rates = DetectionRates::uniform(&bed.graph);
    let mut plain = bed.make_tracker(Algo::Mot, &rates).unwrap();
    let mut lb = bed.make_tracker(Algo::MotLb, &rates).unwrap();
    for t in [&mut plain, &mut lb] {
        run_publish(t.as_mut(), &w).unwrap();
        replay(t.as_mut(), &w, &bed.oracle, None).unwrap();
    }
    let total_plain: usize = plain.node_loads().iter().sum();
    let total_lb: usize = lb.node_loads().iter().sum();
    assert_eq!(total_plain, total_lb);
    let max_plain = *plain.node_loads().iter().max().unwrap();
    let max_lb = *lb.node_loads().iter().max().unwrap();
    assert!(max_lb <= max_plain, "balancing increased the max load");
}

#[test]
fn traffic_knowledge_changes_baseline_trees_not_mot() {
    let bed = TestBed::grid(6, 6, 4).unwrap();
    let w = WorkloadSpec::new(4, 100, 6).generate(&bed.graph);
    let hot = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let cold = DetectionRates::uniform(&bed.graph);

    // MOT ignores rates: identical costs either way.
    let run = |rates: &DetectionRates, algo: Algo| {
        let mut t = bed.make_tracker(algo, rates).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        replay(t.as_mut(), &w, &bed.oracle, None)
            .unwrap()
            .cost
            .total
    };
    assert_eq!(run(&hot, Algo::Mot), run(&cold, Algo::Mot));
    // DAT generally reacts to rates (tie-breaks shift parents).
    let dat_hot = run(&hot, Algo::Dat);
    let dat_cold = run(&cold, Algo::Dat);
    // Not asserting inequality (they can coincide on tiny grids), but
    // both must be valid runs.
    assert!(dat_hot > 0.0 && dat_cold > 0.0);
}
