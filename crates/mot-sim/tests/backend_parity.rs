//! End-to-end backend parity: a fig4-style tracking pipeline (build
//! bed, publish, replay a mobility trace, issue query batches) must
//! produce *identical* cost accounts whichever distance backend the bed
//! runs on. Distances are f32-quantized by both backends and grid
//! diameters are exact under the cached double sweep, so the overlays —
//! and therefore every cost — match bit for bit.

use mot_baselines::DetectionRates;
use mot_net::OracleKind;
use mot_sim::{
    replay_moves, replay_moves_faulty, run_publish, run_queries, run_queries_faulty, Algo,
    FaultConfig, TestBed, WorkloadSpec,
};

struct PipelineOutcome {
    publish: f64,
    maintenance: f64,
    maintenance_ratio: f64,
    query_ratio: f64,
    correct: usize,
}

fn run_pipeline(kind: OracleKind, algo: Algo) -> PipelineOutcome {
    let bed = TestBed::grid_with_oracle(12, 12, 7, kind).unwrap();
    let w = WorkloadSpec::new(4, 120, 3).generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let mut t = bed.make_tracker(algo, &rates).unwrap();
    let publish = run_publish(t.as_mut(), &w).unwrap();
    let stats = replay_moves(t.as_mut(), &w, &bed.oracle).unwrap();
    let q = run_queries(t.as_ref(), &bed.oracle, 4, 80, 5).unwrap();
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
        let dense = run_pipeline(OracleKind::Dense, algo);
        let other = run_pipeline(OracleKind::Cached, algo);
        let label = format!("{algo:?}/cached");
        assert_eq!(other.publish, dense.publish, "{label}: publish cost");
        assert_eq!(
            other.maintenance, dense.maintenance,
            "{label}: maintenance cost"
        );
        assert_eq!(
            other.maintenance_ratio, dense.maintenance_ratio,
            "{label}: maintenance ratio"
        );
        assert_eq!(other.query_ratio, dense.query_ratio, "{label}: query ratio");
        assert_eq!(other.correct, dense.correct, "{label}: query correctness");
    }
}

/// The same pipeline threaded through the fault harness instead of the
/// reliable one.
fn run_pipeline_faulty(kind: OracleKind, algo: Algo, cfg: &FaultConfig) -> PipelineOutcome {
    let bed = TestBed::grid_with_oracle(12, 12, 7, kind)
        .unwrap()
        .with_faults(cfg.clone());
    let w = WorkloadSpec::new(4, 120, 3).generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let mut plan = bed.fault_plan(w.moves.len()).unwrap();
    let mut t = bed.make_tracker(algo, &rates).unwrap();
    let publish = run_publish(t.as_mut(), &w).unwrap();
    let run = replay_moves_faulty(t.as_mut(), &w, &bed.oracle, &mut plan).unwrap();
    let q = run_queries_faulty(t.as_mut(), &bed.oracle, 4, 80, 5, &mut plan).unwrap();
    PipelineOutcome {
        publish,
        maintenance: run.maintenance.total,
        maintenance_ratio: run.maintenance.ratio(),
        query_ratio: q.batch.cost.ratio(),
        correct: q.batch.correct,
    }
}

/// The acceptance gate for the fault layer: with all rates zero the
/// faulty harness must reproduce the reliable pipeline's cost accounts
/// bit for bit — the fault machinery costs nothing when disabled.
#[test]
fn zero_fault_pipeline_is_bit_identical_to_the_reliable_one() {
    let clean = FaultConfig::default();
    for algo in [Algo::Mot, Algo::MotLb, Algo::Stun] {
        for kind in [OracleKind::Dense, OracleKind::Cached] {
            let reliable = run_pipeline(kind, algo);
            let faulty = run_pipeline_faulty(kind, algo, &clean);
            let label = format!("{algo:?}/{kind:?}");
            assert_eq!(faulty.publish, reliable.publish, "{label}: publish cost");
            assert_eq!(
                faulty.maintenance, reliable.maintenance,
                "{label}: maintenance cost"
            );
            assert_eq!(
                faulty.maintenance_ratio, reliable.maintenance_ratio,
                "{label}: maintenance ratio"
            );
            assert_eq!(
                faulty.query_ratio, reliable.query_ratio,
                "{label}: query ratio"
            );
            assert_eq!(faulty.correct, reliable.correct, "{label}: correctness");
        }
    }
}

#[test]
fn auto_matches_dense_below_the_node_limit() {
    let auto = run_pipeline(OracleKind::Auto, Algo::Mot);
    let dense = run_pipeline(OracleKind::Dense, Algo::Mot);
    assert_eq!(auto.maintenance, dense.maintenance);
    assert_eq!(auto.query_ratio, dense.query_ratio);
}
