//! Habitat monitoring: animals in a random sensor deployment.
//!
//! ```text
//! cargo run --release --example habitat_monitoring
//! ```
//!
//! The classic sensor-network motivation (Mainwaring et al., cited in the
//! paper's introduction): sensors scattered over a reserve, animals
//! roaming as random walks, ranger stations issuing "where is animal X?"
//! queries. Uses load-balanced MOT (§5) over a random-geometric
//! (unit-disk) deployment and reports cost ratios and the per-node
//! storage load — memory being the scarce resource on motes.

use mot_tracking::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    // 200 sensors dropped over a 16x16 km reserve, 2.2 km radio range.
    let field = generators::random_geometric(200, 16.0, 2.2, 7).expect("deployment");
    let bed = TestBed::new(field, 11).unwrap();
    println!(
        "reserve: {} sensors, {} links, diameter {:.1}",
        bed.graph.node_count(),
        bed.graph.edge_count(),
        bed.oracle.diameter()
    );

    // 25 collared animals, each wandering 400 hand-offs.
    let herd = WorkloadSpec::new(25, 400, 3).generate(&bed.graph);
    let mut tracker = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::load_balanced());
    run_publish(&mut tracker, &herd).expect("collaring");
    let maint = replay(&mut tracker, &herd, &bed.oracle, None)
        .expect("tracking")
        .cost;
    println!(
        "tracked {} moves: maintenance cost ratio {:.2}",
        maint.operations,
        maint.ratio()
    );

    // Ranger stations sit at three fixed sensors and poll animals.
    let stations = [NodeId(0), NodeId(99), NodeId(199)];
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut queries = CostStats::default();
    for _ in 0..300 {
        let station = stations[rng.gen_range(0..stations.len())];
        let animal = ObjectId(rng.gen_range(0..25));
        let truth = tracker.proxy_of(animal).unwrap();
        let q = tracker.query(station, animal).expect("poll");
        assert_eq!(q.proxy, truth);
        let optimal = bed.oracle.dist(station, truth);
        if optimal > 0.0 {
            queries.record(q.cost, optimal);
        }
    }
    println!(
        "300 ranger queries: mean cost ratio {:.2} (O(1) per Theorem 4.11)",
        queries.mean_ratio()
    );

    // Storage load on the motes: §5's hashing keeps it flat.
    let loads = LoadStats::from_loads(&tracker.node_loads());
    println!(
        "per-mote load: max {}, mean {:.1}, nodes above 10 entries: {}, Jain {:.2}",
        loads.max, loads.mean, loads.nodes_above_10, loads.jain_index
    );
    assert!(
        loads.jain_index > 0.2,
        "load should be spread across the field"
    );
}
