//! # mot-tracking
//!
//! A from-scratch Rust reproduction of *"Near-Optimal Location Tracking
//! Using Sensor Networks"* (Sharma, Krishnan, Busch, Brandt; IPPS 2014 /
//! IJNC 2015): the MOT distributed tracking algorithm, every substrate it
//! depends on, the traffic-conscious baselines it is evaluated against,
//! and a benchmark harness regenerating every figure of the paper's
//! evaluation.
//!
//! This facade crate re-exports the workspace members and offers a
//! [`prelude`] for examples and downstream users:
//!
//! ```
//! use mot_tracking::prelude::*;
//!
//! // A 8x8 sensor grid with its distance oracle and overlay hierarchy.
//! let bed = TestBed::grid(8, 8, 42).unwrap();
//! let mut tracker = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::plain());
//!
//! // An object appears at sensor 0, wanders, and is queried.
//! tracker.publish(ObjectId(0), NodeId(0)).unwrap();
//! tracker.move_object(ObjectId(0), NodeId(1)).unwrap();
//! let found = tracker.query(NodeId(63), ObjectId(0)).unwrap();
//! assert_eq!(found.proxy, NodeId(1));
//! ```
//!
//! Crate map:
//!
//! * [`net`] (`mot-net`) — weighted sensor graphs, generators, shortest
//!   paths, the distance oracle (dense matrix or on-demand cached);
//! * [`hierarchy`] (`mot-hierarchy`) — the overlay `HS`: Luby-MIS
//!   coarsening (constant-doubling model) and sparse partitions (general
//!   model);
//! * [`debruijn`] (`mot-debruijn`) — de Bruijn graphs embedded in
//!   clusters for load-balanced routing;
//! * [`core`] (`mot-core`) — MOT itself: publish / maintenance / query
//!   over detection lists and special detection lists, plus §5 load
//!   balancing and the handover/energy yardsticks;
//! * [`baselines`] (`mot-baselines`) — STUN (DAB), DAT, Z-DAT,
//!   Z-DAT+shortcuts;
//! * [`proto`] (`mot-proto`) — the message-passing rendering of MOT:
//!   per-node state machines exchanging typed messages, differentially
//!   tested to be cost- and state-identical with the direct
//!   implementation;
//! * [`sim`] (`mot-sim`) — workloads, one-by-one and concurrent
//!   executors, metrics, test beds.

pub use mot_baselines as baselines;
pub use mot_core as core;
pub use mot_debruijn as debruijn;
pub use mot_hierarchy as hierarchy;
pub use mot_net as net;
pub use mot_proto as proto;
pub use mot_sim as sim;

/// Everything a typical user or example needs in scope.
pub mod prelude {
    pub use mot_baselines::{
        build_dat, build_stun, build_zdat, DetectionRates, TrackingTree, TreeTracker, ZdatParams,
    };
    pub use mot_core::{
        CoreError, MotConfig, MotTracker, MoveOutcome, ObjectId, QueryResult, Tracker,
    };
    pub use mot_debruijn::{DeBruijnGraph, Embedding};
    pub use mot_hierarchy::{build_doubling, build_general, Overlay, OverlayConfig};
    pub use mot_net::{
        dijkstra, generators, CachedOracle, DenseOracle, DistanceOracle, Graph, GraphBuilder,
        NodeId, OracleKind, Point,
    };
    pub use mot_proto::ProtoTracker;
    pub use mot_sim::{
        query_batch, replay, run_publish, Algo, ConcurrentConfig, ConcurrentEngine, CostStats,
        Draw, LoadStats, MobilityModel, SimError, TestBed, Workload, WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_quickstart_flow() {
        let bed = TestBed::grid(4, 4, 1).unwrap();
        let mut t = MotTracker::new(&bed.overlay, &bed.oracle, MotConfig::plain());
        t.publish(ObjectId(0), NodeId(0)).unwrap();
        let q = t.query(NodeId(15), ObjectId(0)).unwrap();
        assert_eq!(q.proxy, NodeId(0));
    }
}
