//! Empirical checks of the paper's theorems, run at test scale.
//!
//! These are sanity bounds with generous constants — the point is to
//! catch asymptotic regressions (a ratio growing like `D` instead of
//! `log D`), not to re-prove the theorems.

use mot_tracking::prelude::*;

/// Theorem 4.1: publish cost is O(D) per object.
#[test]
fn publish_cost_linear_in_diameter() {
    for (r, c) in [(4, 4), (8, 8), (16, 16), (23, 23)] {
        let bed = TestBed::grid(r, c, 1).unwrap();
        let mut t = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::plain());
        let mut worst: f64 = 0.0;
        for (k, u) in bed.graph.nodes().step_by(7).enumerate() {
            let cost = t.publish(ObjectId(k as u32), u).unwrap();
            worst = worst.max(cost);
        }
        let d = bed.oracle.diameter();
        assert!(
            worst <= 16.0 * d,
            "{r}x{c}: publish cost {worst} not O(D = {d})"
        );
    }
}

/// Theorem 4.8: the maintenance cost ratio grows at most logarithmically
/// with the network size (compare the growth from 64 to 1024 nodes
/// against linear growth in D).
#[test]
fn maintenance_ratio_grows_sublinearly() {
    let ratio_at = |rows: usize, cols: usize| {
        let bed = TestBed::grid(rows, cols, 2).unwrap();
        let w = WorkloadSpec::new(10, 150, 3).generate(&bed.graph);
        let rates = DetectionRates::uniform(&bed.graph);
        let mut t = bed.make_tracker(Algo::Mot, &rates).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        replay(t.as_mut(), &w, &bed.oracle, None)
            .unwrap()
            .cost
            .ratio()
    };
    let small = ratio_at(8, 8);
    let large = ratio_at(32, 32);
    // D grows 4.4x from 8x8 to 32x32; log D grows ~1.5x. Allow 2.5x.
    assert!(
        large <= 2.5 * small,
        "maintenance ratio grew {small} -> {large}: faster than logarithmic"
    );
    assert!(large >= 1.0 && small >= 1.0);
}

/// Theorem 4.11: the query cost ratio is O(1) — in particular it must not
/// scale with the query distance.
#[test]
fn query_ratio_flat_across_distances() {
    let bed = TestBed::grid(16, 16, 3).unwrap();
    let w = WorkloadSpec::new(8, 200, 5).generate(&bed.graph);
    let rates = DetectionRates::uniform(&bed.graph);
    let mut t = bed.make_tracker(Algo::Mot, &rates).unwrap();
    run_publish(t.as_mut(), &w).unwrap();
    replay(t.as_mut(), &w, &bed.oracle, None).unwrap();
    // bucket per-query ratios by distance scale
    let mut short = (0.0f64, 0usize);
    let mut long = (0.0f64, 0usize);
    for o in 0..8u32 {
        let proxy = t.proxy_of(ObjectId(o)).unwrap();
        for x in bed.graph.nodes() {
            let d = bed.oracle.dist(x, proxy);
            if d <= 0.0 {
                continue;
            }
            let q = t.query(x, ObjectId(o)).unwrap();
            let bucket = if d <= 4.0 { &mut short } else { &mut long };
            bucket.0 += q.cost / d;
            bucket.1 += 1;
        }
    }
    let short_mean = short.0 / short.1 as f64;
    let long_mean = long.0 / long.1 as f64;
    assert!(
        short_mean < 24.0,
        "short-range query ratio {short_mean} unbounded"
    );
    assert!(
        long_mean < 24.0,
        "long-range query ratio {long_mean} unbounded"
    );
}

/// Theorem 5.1 / Corollary 5.2: load balancing flattens the maximum load
/// at a bounded cost multiplier.
#[test]
fn load_balancing_tradeoff_matches_corollary_5_2() {
    let bed = TestBed::grid(16, 16, 4).unwrap();
    let w = WorkloadSpec::new(40, 100, 7).generate(&bed.graph);
    let rates = DetectionRates::uniform(&bed.graph);

    let mut plain = bed.make_tracker(Algo::Mot, &rates).unwrap();
    run_publish(plain.as_mut(), &w).unwrap();
    let plain_cost = replay(plain.as_mut(), &w, &bed.oracle, None).unwrap().cost;

    let mut lb = bed.make_tracker(Algo::MotLb, &rates).unwrap();
    run_publish(lb.as_mut(), &w).unwrap();
    let lb_cost = replay(lb.as_mut(), &w, &bed.oracle, None).unwrap().cost;

    let max_plain = *plain.node_loads().iter().max().unwrap();
    let max_lb = *lb.node_loads().iter().max().unwrap();
    assert!(max_lb < max_plain, "LB failed to reduce max load");

    // Cost multiplier bounded by O(log n) with slack.
    let log_n = (bed.graph.node_count() as f64).log2();
    assert!(
        lb_cost.total <= 3.0 * log_n * plain_cost.total,
        "LB cost multiplier {} exceeds O(log n)",
        lb_cost.total / plain_cost.total
    );
    assert!(
        lb_cost.total >= plain_cost.total,
        "routing inside clusters is not free"
    );
}

/// §3 / Fig. 2: special parents may only help query costs, and the no-SP
/// ablation stays correct.
#[test]
fn special_parents_only_help() {
    let bed = TestBed::grid(12, 12, 5).unwrap();
    let w = WorkloadSpec::new(6, 250, 9).generate(&bed.graph);
    let rates = DetectionRates::uniform(&bed.graph);
    let mut with_sp = bed.make_tracker(Algo::Mot, &rates).unwrap();
    let mut without = bed.make_tracker(Algo::MotNoSp, &rates).unwrap();
    for t in [&mut with_sp, &mut without] {
        run_publish(t.as_mut(), &w).unwrap();
        replay(t.as_mut(), &w, &bed.oracle, None).unwrap();
    }
    let qs = query_batch(
        with_sp.as_mut(),
        &bed.oracle,
        6,
        400,
        3,
        Draw::UNIFORM,
        None,
    )
    .unwrap();
    let qn = query_batch(
        without.as_mut(),
        &bed.oracle,
        6,
        400,
        3,
        Draw::UNIFORM,
        None,
    )
    .unwrap();
    assert_eq!(qs.correct, 400);
    assert_eq!(qn.correct, 400);
    assert!(
        qs.cost.mean_ratio() <= qn.cost.mean_ratio() + 0.25,
        "SP queries ({}) should not lose to no-SP ({})",
        qs.cost.mean_ratio(),
        qn.cost.mean_ratio()
    );
}

/// §4.1's separability foundation: "changes in HS due to operations of
/// one object do not interfere with the changes made by any other
/// object" — object A's per-operation costs are identical whether A
/// moves alone or interleaved with other objects.
#[test]
fn per_object_costs_are_independent_of_other_objects() {
    let bed = TestBed::grid(8, 8, 6).unwrap();
    let w = WorkloadSpec::new(4, 80, 11).generate(&bed.graph);

    // isolated: replay only object 0's trace
    let mut solo = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::plain());
    solo.publish(ObjectId(0), w.initial[0]).unwrap();
    let mut solo_costs = Vec::new();
    for m in w.moves.iter().filter(|m| m.object == ObjectId(0)) {
        solo_costs.push(solo.move_object(m.object, m.to).unwrap().cost);
    }

    // interleaved: the full multi-object workload
    let mut full = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::plain());
    for (oi, &p) in w.initial.iter().enumerate() {
        full.publish(ObjectId(oi as u32), p).unwrap();
    }
    let mut full_costs = Vec::new();
    for m in &w.moves {
        let c = full.move_object(m.object, m.to).unwrap().cost;
        if m.object == ObjectId(0) {
            full_costs.push(c);
        }
    }

    assert_eq!(solo_costs.len(), full_costs.len());
    for (i, (a, b)) in solo_costs.iter().zip(&full_costs).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "object 0's move {i} cost changed under interleaving: {a} vs {b}"
        );
    }
}

/// §6 / Theorem 6.2: the general-network overlay pays only
/// polylogarithmic factors over the doubling overlay on the same graph.
#[test]
fn general_overlay_within_polylog_of_doubling() {
    let g = generators::grid(10, 10).unwrap();
    let run = |bed: &TestBed| {
        let w = WorkloadSpec::new(5, 120, 3).generate(&bed.graph);
        let mut t = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::plain());
        run_publish(&mut t, &w).unwrap();
        replay(&mut t, &w, &bed.oracle, None).unwrap().cost.ratio()
    };
    let doubling = run(&TestBed::new(g.clone(), 6).unwrap());
    let general = run(&TestBed::general(g, &OverlayConfig::practical(), 6).unwrap());
    let log_n2 = (100f64).log2().powi(2);
    assert!(
        general <= doubling * log_n2,
        "general overlay ratio {general} vs doubling {doubling}: beyond log^2 n"
    );
}
