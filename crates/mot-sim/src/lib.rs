//! Simulation harness for the MOT evaluation (paper §8).
//!
//! Builds workloads (mobility traces + query batches), drives any
//! [`mot_core::Tracker`] through them in the paper's two execution modes,
//! and aggregates the metrics the figures report:
//!
//! * [`mobility`] — object mobility models and workload generation
//!   (adjacent random walks, shortest-path waypoint tours, and the
//!   scenario suite's Lévy flights, hotspot flows, and ping-pong
//!   adversaries — DESIGN.md §18),
//! * [`scenario`] — query-popularity models (uniform / Zipf-skewed),
//! * [`run`] — one-by-one execution: publish, then the two op drivers,
//!   [`replay`] for moves and [`query_batch`] for queries (uniform,
//!   popularity-skewed or local draws), each scoring every op against
//!   its optimal cost, with or without a fault plan,
//! * [`faults`] — seeded, replayable fault plans (message loss,
//!   duplication, delay, link failures, sensor crashes) that the drivers
//!   inject to exercise tracker self-repair, and the repair checks run
//!   after them,
//! * [`concurrent`] — the discrete-event engine for concurrent
//!   executions: message latency = distance, per-level forwarding periods
//!   `Φ(i) ∝ 2^i` (§4.1.2), bounded in-flight operations per object,
//!   queries that chase moving objects (§4.2.2),
//! * [`metrics`] — cost and load statistics (ratios, histograms,
//!   fairness),
//! * [`parallel`] — the deterministic fan-out engine: a
//!   [`ParallelRunner`] worker pool over independent *(figure × size ×
//!   algo × seed)* cells whose output is bit-identical for 1 worker and
//!   N workers (cell-keyed RNG streams, canonical merge order —
//!   DESIGN.md §12),
//! * [`stream`] + [`service`] — service mode (DESIGN.md §15): a seeded
//!   publish/move/query op stream and the long-lived sharded event loop
//!   that survives composed fault plans with zero silent loss —
//!   exactly-once admission ledgers, attempt fencing, crash re-adoption
//!   with bounded replay, and a measured backlog with a degrade/shed
//!   policy,
//! * [`testbed`] — one-stop construction of a topology, its distance
//!   oracle, overlay, and any of the six trackers the experiments
//!   compare.
//!
//! # Example
//!
//! ```
//! use mot_sim::{query_batch, replay, run_publish, Algo, Draw, TestBed, WorkloadSpec};
//! use mot_baselines::DetectionRates;
//!
//! let bed = TestBed::grid(6, 6, 42)?;
//! let w = WorkloadSpec::new(3, 50, 1).generate(&bed.graph);
//! let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
//!
//! let mut tracker = bed.make_tracker(Algo::Mot, &rates)?;
//! run_publish(tracker.as_mut(), &w)?;
//! let maint = replay(tracker.as_mut(), &w, &bed.oracle, None)?;
//! assert!(maint.cost.ratio() >= 1.0); // nothing beats the optimal cost
//!
//! let queries = query_batch(tracker.as_mut(), &bed.oracle, 3, 50, 2, Draw::UNIFORM, None)?;
//! assert_eq!(queries.correct, 50); // every query finds the true proxy
//! # Ok::<(), mot_sim::SimError>(())
//! ```
//!
//! # Place in the workspace
//!
//! The execution layer of the DAG: builds on every algorithm crate
//! (`mot-core`, `mot-baselines`, `mot-proto`) and their substrates;
//! only `mot-bench` sits above it. Implements the paper's §8
//! methodology; every figure's workload and cost account comes from
//! here. See DESIGN.md §3, §6 (faults), §11 (observability), and §12
//! (determinism contract).

#![warn(missing_docs)]

pub mod concurrent;
pub mod error;
pub mod faults;
pub mod metrics;
pub mod mobility;
pub mod parallel;
pub mod run;
pub mod scenario;
pub mod service;
pub mod stream;
pub mod testbed;

pub use concurrent::{ConcurrentConfig, ConcurrentEngine};
pub use error::SimError;
pub use faults::{repair_all, unrepaired_objects, FaultConfig, FaultPlan};
pub use metrics::{
    CostStats, Histogram, LevelLedger, LoadStats, Recorder, Summary, TraceAggregates,
};
pub use mobility::{MobilityModel, MoveOp, Workload, WorkloadSpec};
pub use parallel::{CellKey, Keyed, ParallelRunner};
pub use run::{query_batch, replay, run_publish, Draw, QueryBatchStats, ReplayStats};
pub use scenario::{QueryModel, ZipfSampler};
pub use service::{
    run_service, ServiceConfig, ServiceOutcome, ServiceReport, ServiceTrailer, ShedPolicy,
};
pub use stream::{OpEnvelope, OpStream, ServiceOp, StreamSpec};
pub use testbed::{graph_center, tracker_over, Algo, TestBed};
