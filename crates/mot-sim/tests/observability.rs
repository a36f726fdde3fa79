//! End-to-end checks of the observability layer: histogram bucket
//! geometry, cross-seed mergeability, fixed-seed trace determinism, and
//! the bit-parity guarantee (tracing disabled changes nothing).

use mot_baselines::DetectionRates;
use mot_core::MemorySink;
use mot_sim::{
    query_batch, replay, run_publish, Algo, Draw, Histogram, Recorder, TestBed, WorkloadSpec,
};

const OBJECTS: usize = 6;

fn bed() -> TestBed {
    TestBed::grid(10, 10, 7).unwrap()
}

#[test]
fn histogram_buckets_are_log_spaced_powers_of_two() {
    // bucket 0 = [0,1), bucket i = [2^(i-1), 2^i)
    assert_eq!(Histogram::bucket_bounds(0), (0.0, 1.0));
    assert_eq!(Histogram::bucket_bounds(1), (1.0, 2.0));
    assert_eq!(Histogram::bucket_bounds(4), (8.0, 16.0));
    for (x, want) in [
        (0.0, 0),
        (0.999, 0),
        (1.0, 1),
        (1.999, 1),
        (2.0, 2),
        (4.0, 3),
        (1024.0, 11),
    ] {
        assert_eq!(Histogram::bucket_index(x), want, "bucket of {x}");
        if want > 0 {
            let (lo, hi) = Histogram::bucket_bounds(want);
            assert!(lo <= x && x < hi, "{x} outside its bucket [{lo},{hi})");
        }
    }
}

#[test]
fn aggregates_merge_across_seeds_like_one_combined_stream() {
    let b = bed();
    let mut merged: Option<mot_sim::TraceAggregates> = None;
    let mut total_events = 0.0;
    for seed in [1u64, 2] {
        let rec = Recorder::new();
        let w = WorkloadSpec::new(OBJECTS, 50, seed).generate(&b.graph);
        let rates = DetectionRates::from_moves(&b.graph, &w.move_pairs());
        let mut t = b.make_tracker_traced(Algo::Mot, &rates, &rec).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        replay(t.as_mut(), &w, &b.oracle, None).unwrap();
        drop(t);
        let agg = rec.finish();
        total_events += agg.ledger.total();
        match merged.as_mut() {
            Some(m) => m.merge(&agg),
            None => merged = Some(agg),
        }
    }
    let merged = merged.unwrap();
    assert!(merged.ledger.total() > 0.0);
    assert!(
        (merged.ledger.total() - total_events).abs() < 1e-9,
        "merged ledger total must equal the sum of per-seed totals"
    );
    // both seeds published + moved: ops counted for both runs
    let moves: usize = merged
        .op_counts
        .iter()
        .filter(|(k, _)| *k == mot_core::OpKind::Move)
        .map(|(_, n)| *n)
        .sum();
    assert_eq!(moves, 2 * OBJECTS * 50);
}

#[test]
fn fixed_seed_traces_are_deterministic() {
    let run = || {
        let b = bed();
        let sink = MemorySink::new();
        let w = WorkloadSpec::new(OBJECTS, 40, 3).generate(&b.graph);
        let rates = DetectionRates::from_moves(&b.graph, &w.move_pairs());
        let mut t = b.make_tracker_traced(Algo::Mot, &rates, &sink).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        replay(t.as_mut(), &w, &b.oracle, None).unwrap();
        query_batch(t.as_mut(), &b.oracle, OBJECTS, 50, 9, Draw::UNIFORM, None).unwrap();
        sink.events()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce an identical event stream");
}

#[test]
fn tracing_disabled_is_bit_identical_to_a_traced_run() {
    // The acceptance bar: attaching a sink is purely observational. A
    // silent tracker and a traced tracker over the same workload must
    // produce bit-identical cost stats (total, optimal, ratio).
    for algo in [Algo::Mot, Algo::MotLb, Algo::Stun, Algo::Zdat] {
        let b = bed();
        let w = WorkloadSpec::new(OBJECTS, 60, 5).generate(&b.graph);
        let rates = DetectionRates::from_moves(&b.graph, &w.move_pairs());

        let mut silent = b.make_tracker(algo, &rates).unwrap();
        run_publish(silent.as_mut(), &w).unwrap();
        let m1 = replay(silent.as_mut(), &w, &b.oracle, None).unwrap().cost;
        let q1 = query_batch(
            silent.as_mut(),
            &b.oracle,
            OBJECTS,
            80,
            2,
            Draw::UNIFORM,
            None,
        )
        .unwrap();

        let rec = Recorder::new();
        let mut traced = b.make_tracker_traced(algo, &rates, &rec).unwrap();
        run_publish(traced.as_mut(), &w).unwrap();
        let m2 = replay(traced.as_mut(), &w, &b.oracle, None).unwrap().cost;
        let q2 = query_batch(
            traced.as_mut(),
            &b.oracle,
            OBJECTS,
            80,
            2,
            Draw::UNIFORM,
            None,
        )
        .unwrap();

        let label = algo.label();
        assert_eq!(m1.total.to_bits(), m2.total.to_bits(), "{label} total");
        assert_eq!(
            m1.optimal.to_bits(),
            m2.optimal.to_bits(),
            "{label} optimal"
        );
        assert_eq!(m1.ratio().to_bits(), m2.ratio().to_bits(), "{label} ratio");
        assert_eq!(
            q1.cost.total.to_bits(),
            q2.cost.total.to_bits(),
            "{label} query total"
        );
        assert_eq!(q1.correct, q2.correct, "{label} query correctness");

        // and the trace accounted for every billed maintenance unit
        drop(traced);
        let agg = rec.finish();
        let maint = agg.ledger.ledger_total(mot_core::LedgerKind::Maintenance);
        assert!(
            (maint - m2.total).abs() <= 1e-6 * m2.total.max(1.0),
            "{label}: ledger maintenance {maint} vs stats total {}",
            m2.total
        );
    }
}
