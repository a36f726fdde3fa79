//! Determinism regression for the fault layer: one `FaultConfig` seed
//! must expand to bit-identical fault schedules, cost ledgers, and
//! repair accounts — across repeated runs and across distance backends.
//! Faulty experiments are only trustworthy if they replay exactly.

use mot_baselines::DetectionRates;
use mot_net::OracleKind;
use mot_sim::{
    query_batch, replay, run_publish, unrepaired_objects, Algo, Draw, FaultConfig, QueryBatchStats,
    ReplayStats, TestBed,
};
use mot_sim::{Workload, WorkloadSpec};

const OBJECTS: usize = 4;

fn config() -> FaultConfig {
    FaultConfig {
        seed: 77,
        drop_rate: 0.08,
        duplicate_rate: 0.03,
        delay_rate: 0.02,
        crashes: 20,
        ..FaultConfig::default()
    }
}

struct FaultyOutcome {
    schedule: Vec<(usize, mot_net::NodeId)>,
    run: ReplayStats,
    queries: QueryBatchStats,
    repair_cost: f64,
    unrepaired: usize,
}

fn run_faulty(kind: OracleKind, algo: Algo, w: &Workload) -> FaultyOutcome {
    let bed = TestBed::grid_with_oracle(10, 10, 4, kind).unwrap();
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let mut plan = config()
        .plan(bed.graph.node_count(), w.moves.len())
        .unwrap();
    let schedule = plan.crash_schedule().to_vec();
    let mut t = bed.make_tracker(algo, &rates).unwrap();
    run_publish(t.as_mut(), w).unwrap();
    let run = replay(t.as_mut(), w, &bed.oracle, Some(&mut plan)).unwrap();
    let queries = query_batch(
        t.as_mut(),
        &bed.oracle,
        OBJECTS,
        100,
        6,
        Draw::UNIFORM,
        Some(&mut plan),
    )
    .unwrap();
    FaultyOutcome {
        schedule,
        run,
        repair_cost: t.repair_cost(),
        unrepaired: unrepaired_objects(t.as_ref(), OBJECTS, bed.center()),
        queries,
    }
}

#[test]
fn same_seed_replays_bit_identically_across_runs_and_backends() {
    let w = WorkloadSpec::new(OBJECTS, 80, 12).generate(&TestBed::grid(10, 10, 4).unwrap().graph);
    for algo in [Algo::Mot, Algo::Stun] {
        let first = run_faulty(OracleKind::Dense, algo, &w);
        // identical rerun: schedules, ledgers, and repair accounts match
        let rerun = run_faulty(OracleKind::Dense, algo, &w);
        let label = algo.label();
        assert_eq!(rerun.schedule, first.schedule, "{label}: crash schedule");
        assert_eq!(rerun.run, first.run, "{label}: maintenance account");
        assert_eq!(rerun.queries, first.queries, "{label}: query account");
        assert_eq!(rerun.repair_cost, first.repair_cost, "{label}: repairs");
        // a different distance backend changes nothing either
        let cached = run_faulty(OracleKind::Cached, algo, &w);
        assert_eq!(cached.schedule, first.schedule, "{label}: schedule");
        assert_eq!(cached.run, first.run, "{label}: maintenance vs cached");
        assert_eq!(cached.queries, first.queries, "{label}: queries vs cached");
        assert_eq!(
            cached.repair_cost, first.repair_cost,
            "{label}: repair vs cached"
        );
        // and the faults were real: overhead, repairs, full recovery
        assert!(
            first.run.retry_overhead > 0.0,
            "{label}: no drops injected?"
        );
        assert!(first.repair_cost > 0.0, "{label}: no crash damage?");
        assert_eq!(first.queries.correct, 100, "{label}: wrong answers");
        assert_eq!(first.unrepaired, 0, "{label}: unrepaired objects remain");
    }
}

#[test]
fn every_tracker_hands_a_crashed_proxy_to_the_same_node_on_a_tie() {
    // On a 5×5 grid the centre 12 has four neighbours at distance 1.
    // With 7 down too, 11, 13 and 17 tie; the rule MOT and the trees
    // share breaks the tie by id, as `nearest_in` over every live node
    // would.
    use mot_core::ObjectId;
    use mot_net::{DistanceOracle, NodeId};
    let bed = TestBed::grid(5, 5, 1).unwrap();
    let w = WorkloadSpec::new(2, 10, 1).generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let (down, centre, o) = (NodeId(7), NodeId(12), ObjectId(0));
    let live: Vec<NodeId> = bed
        .graph
        .nodes()
        .filter(|&v| v != down && v != centre)
        .collect();
    let expected = bed.oracle.nearest_in(centre, &live);
    assert_eq!(expected, Some(NodeId(11)));
    for algo in [Algo::Mot, Algo::Stun, Algo::Zdat, Algo::ZdatShortcuts] {
        let mut t = bed.make_tracker(algo, &rates).unwrap();
        t.publish(o, centre).unwrap();
        t.crash_node(down);
        t.crash_node(centre);
        assert_eq!(t.proxy_of(o), expected, "{}", algo.label());
    }
}
