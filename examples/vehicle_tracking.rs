//! Vehicle tracking: directional traffic through a city grid, MOT versus
//! the traffic-conscious baselines.
//!
//! ```text
//! cargo run --release --example vehicle_tracking
//! ```
//!
//! Vehicles drive shortest paths toward successive waypoints (not random
//! walks), producing the kind of correlated traffic the rate-based
//! baselines were designed to exploit. The baselines receive the
//! *measured* per-edge crossing rates of this very workload — the
//! strongest possible traffic knowledge — while MOT stays
//! traffic-oblivious, and still tracks at comparable maintenance cost
//! with far better worst-node load.

use mot_tracking::prelude::*;

fn main() {
    // A 16x16 road-intersection sensor grid.
    let bed = TestBed::grid(16, 16, 8).unwrap();
    let spec = WorkloadSpec {
        objects: 40,
        moves_per_object: 300,
        model: MobilityModel::Waypoint,
        seed: 21,
    };
    let traffic = spec.generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &traffic.move_pairs());
    println!(
        "city: {} intersections; {} vehicles x {} hand-offs (waypoint mobility)\n",
        bed.graph.node_count(),
        spec.objects,
        spec.moves_per_object
    );

    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>10}",
        "algorithm", "maint ratio", "query ratio", "max load", "correct"
    );
    for algo in [
        Algo::Mot,
        Algo::MotLb,
        Algo::Stun,
        Algo::Dat,
        Algo::Zdat,
        Algo::ZdatShortcuts,
    ] {
        let mut t = bed.make_tracker(algo, &rates).unwrap();
        run_publish(t.as_mut(), &traffic).expect("publish");
        let maint = replay(t.as_mut(), &traffic, &bed.oracle, None)
            .expect("replay")
            .cost;
        let q = query_batch(
            t.as_mut(),
            &bed.oracle,
            spec.objects,
            400,
            13,
            Draw::UNIFORM,
            None,
        )
        .expect("queries");
        let loads = LoadStats::from_loads(&t.node_loads());
        println!(
            "{:<18} {:>12.2} {:>12.2} {:>10} {:>9}/400",
            algo.label(),
            maint.ratio(),
            q.cost.mean_ratio(),
            loads.max,
            q.correct
        );
        assert_eq!(q.correct, 400, "{} mislocated a vehicle", algo.label());
    }
    println!(
        "\nMOT is traffic-oblivious; STUN/DAT/Z-DAT consumed the measured \
         per-edge rates of this exact workload."
    );
}
