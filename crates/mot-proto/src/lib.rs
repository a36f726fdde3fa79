//! Message-passing realization of the MOT algorithm.
//!
//! The paper presents Algorithm 1 "as an iteration over the nodes for the
//! sake of simplicity" and notes (footnote 2) that it converts immediately
//! to a message-passing distributed algorithm — each node reacting to
//! `publish`, `insert`, `delete`, and `query` messages from its overlay
//! neighbors. This crate is that conversion:
//!
//! * [`message`] — the typed wire protocol (climb, delete, repoint,
//!   SDL install/remove, query, descend, reply),
//! * [`node`] — the per-sensor state machine: detection-list entries with
//!   *down-member* routing state (which lower-level holders a delete or
//!   query descent should visit), SDL entries, and the handler that maps
//!   one incoming message to outgoing messages,
//! * [`transport`] — a deterministic FIFO message queue with a
//!   distance-based cost ledger per message kind, and the capped
//!   [`Backoff`] schedule the `mot-sim` service loop retries by,
//! * [`runtime`] — [`ProtoTracker`], a [`mot_core::Tracker`] that drives
//!   the node machines to quiescence per operation (the paper's
//!   one-by-one case).
//!
//! The differential tests in `tests/` replay identical workloads through
//! [`ProtoTracker`] and the direct [`mot_core::MotTracker`] and assert
//! byte-identical detection-list state and *exactly equal* maintenance
//! costs — the two implementations are two renderings of the same
//! algorithm.
//!
//! Loss is not modelled here: the workspace's one executed fault
//! protocol — per-attempt drop, duplicate, delay and dead-link coins,
//! retries under [`Backoff`], exactly-once admission and recorded
//! loss — is `mot-sim`'s service loop, and `mot-sim/tests/loss_models.rs`
//! checks the replay's hop-statistical retry model against it.
//!
//! # Example
//!
//! ```
//! use mot_core::{MotConfig, ObjectId, Tracker};
//! use mot_hierarchy::{build_doubling, OverlayConfig};
//! use mot_net::{generators, DenseOracle, NodeId};
//! use mot_proto::ProtoTracker;
//!
//! let g = generators::grid(6, 6)?;
//! let m = DenseOracle::build(&g)?;
//! let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
//! let mut t = ProtoTracker::new(&overlay, &m, &MotConfig::plain());
//!
//! // One-by-one operations run the message protocol to quiescence.
//! t.publish(ObjectId(0), NodeId(0))?;
//! t.move_object(ObjectId(0), NodeId(1))?;
//! assert_eq!(t.query(NodeId(35), ObjectId(0))?.proxy, NodeId(1));
//!
//! // Each operation's ledger splits its traffic by message kind.
//! assert!(t.ledger().of_kind("query") > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Place in the workspace
//!
//! Builds on `mot-net`, `mot-hierarchy`, and `mot-core`; `mot-sim`'s
//! differential tests replay it against the reference tracker.
//! Implements footnote 2's message-passing rendering of Algorithm 1.
//! See DESIGN.md §3 and §9.

#![warn(missing_docs)]

pub mod arena;
pub mod message;
pub mod node;
pub mod runtime;
pub mod transport;

pub use arena::{ArenaStats, RouteArena};
pub use message::{Message, Payload};
pub use runtime::ProtoTracker;
pub use transport::{Backoff, CostLedger, Transport};
