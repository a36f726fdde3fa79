//! MOT — Mobile Object Tracking using sensors (the paper's Algorithm 1).
//!
//! The tracker maintains, for every mobile object, *detection lists* (DL)
//! along the object's detection path in a hierarchical overlay, plus
//! *special detection lists* (SDL) at special parents that cap query cost
//! despite detection-path fragmentation:
//!
//! * `publish(o, v)` seeds the lists from proxy `v` to the root (one-time),
//! * `move_object(o, y)` climbs `DPath(y)` inserting `o` until it finds a
//!   node already holding `o` (the meet), then deletes the stale trail
//!   below the meet down to the old proxy,
//! * `query(x, o)` climbs `DPath(x)` probing DLs and SDLs, then descends
//!   holder-to-holder to the proxy.
//!
//! The [`Tracker`] trait is the uniform interface the simulator drives —
//! MOT, its load-balanced variant (§5), and every baseline in
//! `mot-baselines` implement it. Costs are message distances; optimal
//! costs are plain graph distances, so cost *ratios* come straight out of
//! a workload run.
//!
//! # Example
//!
//! ```
//! use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
//! use mot_hierarchy::{build_doubling, OverlayConfig};
//! use mot_net::{generators, DenseOracle, NodeId};
//!
//! let g = generators::grid(8, 8)?;
//! let oracle = DenseOracle::build(&g)?;
//! let overlay = build_doubling(&g, &oracle, &OverlayConfig::practical(), 42);
//! let mut tracker = MotTracker::new(&overlay, &oracle, MotConfig::plain());
//!
//! // One-time publish, then hand-offs as the object moves.
//! let tiger = ObjectId(0);
//! tracker.publish(tiger, NodeId(0))?;
//! let mv = tracker.move_object(tiger, NodeId(1))?;
//! assert_eq!(mv.from, NodeId(0));
//!
//! // Any sensor can locate it; the cost is O(distance) (Thm 4.11).
//! let q = tracker.query(NodeId(63), tiger)?;
//! assert_eq!(q.proxy, NodeId(1));
//! assert!(q.cost >= oracle.dist(NodeId(63), NodeId(1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Place in the workspace
//!
//! The algorithmic heart of the DAG: builds on `mot-net`,
//! `mot-hierarchy`, and `mot-debruijn`; the baselines, simulator, and
//! bench crates all drive it through the [`Tracker`] trait. Implements
//! §4 (MOT, Algorithm 1) and §5 (load balancing); serves every
//! figure. See DESIGN.md §3 and §5.

#![warn(missing_docs)]

pub mod config;
pub mod dynamics;
pub mod error;
pub mod json;
pub mod lb;
pub mod mot;
pub mod object;
pub mod op;
pub mod state;
pub mod trace;
pub mod tracker;

pub use config::MotConfig;
pub use error::CoreError;
pub use json::{fmt_f64, JsonWriter, ToJson};
pub use mot::MotTracker;
/// Distance-backend selector, re-exported for experiment configuration.
pub use mot_net::OracleKind;
pub use object::ObjectId;
pub use op::{OpId, OpLedger};
pub use trace::{LedgerKind, MemorySink, OpKind, TraceEvent, TracePhase, TraceSink};
pub use tracker::{MoveOutcome, QueryResult, Tracker};

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
