//! End-to-end backend parity: a fig4-style tracking pipeline (build
//! bed, publish, replay a mobility trace, issue query batches) must
//! produce *identical* cost accounts whichever distance backend the bed
//! runs on. Distances are f32-quantized by both backends and grid
//! diameters are exact under the cached double sweep, so the overlays —
//! and therefore every cost — match bit for bit.

use mot_baselines::DetectionRates;
use mot_net::OracleKind;
use mot_sim::{query_batch, replay, run_publish, Algo, Draw, FaultConfig, TestBed, WorkloadSpec};

#[derive(Debug, PartialEq)]
struct PipelineOutcome {
    publish: f64,
    maintenance: f64,
    maintenance_ratio: f64,
    query_ratio: f64,
    correct: usize,
}

/// The pipeline on `kind`, threaded through a plan expanded from
/// `faults` when one is given.
fn run_pipeline(kind: OracleKind, algo: Algo, faults: Option<&FaultConfig>) -> PipelineOutcome {
    let bed = TestBed::grid_with_oracle(12, 12, 7, kind).unwrap();
    let w = WorkloadSpec::new(4, 120, 3).generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let mut plan = faults.map(|cfg| cfg.plan(bed.graph.node_count(), w.moves.len()).unwrap());
    let mut t = bed.make_tracker(algo, &rates).unwrap();
    let publish = run_publish(t.as_mut(), &w).unwrap();
    let stats = replay(t.as_mut(), &w, &bed.oracle, plan.as_mut())
        .unwrap()
        .cost;
    let q = query_batch(
        t.as_mut(),
        &bed.oracle,
        4,
        80,
        5,
        Draw::UNIFORM,
        plan.as_mut(),
    )
    .unwrap();
    PipelineOutcome {
        publish,
        maintenance: stats.total,
        maintenance_ratio: stats.ratio(),
        query_ratio: q.cost.ratio(),
        correct: q.correct,
    }
}

#[test]
fn grid_pipeline_costs_are_identical_across_all_backends() {
    for algo in [Algo::Mot, Algo::MotLb, Algo::Stun] {
        let dense = run_pipeline(OracleKind::Dense, algo, None);
        let other = run_pipeline(OracleKind::Cached, algo, None);
        assert_eq!(other, dense, "{algo:?}/cached");
    }
}

/// The acceptance gate for the fault layer: with all rates zero the
/// planned pipeline must reproduce the reliable one's cost accounts bit
/// for bit — the fault machinery costs nothing when disabled.
#[test]
fn zero_fault_pipeline_is_bit_identical_to_the_reliable_one() {
    let clean = FaultConfig::default();
    for algo in [Algo::Mot, Algo::MotLb, Algo::Stun] {
        for kind in [OracleKind::Dense, OracleKind::Cached] {
            let reliable = run_pipeline(kind, algo, None);
            let faulty = run_pipeline(kind, algo, Some(&clean));
            assert_eq!(faulty, reliable, "{algo:?}/{kind:?}");
        }
    }
}

#[test]
fn auto_matches_dense_below_the_node_limit() {
    let auto = run_pipeline(OracleKind::Auto, Algo::Mot, None);
    let dense = run_pipeline(OracleKind::Dense, Algo::Mot, None);
    assert_eq!(auto.maintenance, dense.maintenance);
    assert_eq!(auto.query_ratio, dense.query_ratio);
}
