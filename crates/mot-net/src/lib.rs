//! Weighted sensor-network graph substrate for the MOT tracking suite.
//!
//! The paper models a sensor field as a static weighted graph
//! `G = (V, E, w)`: vertices are sensor nodes, an edge connects two sensors
//! when a mobile object can pass directly between their detection ranges,
//! and `w` gives the (normalized) distance between adjacent sensors. Every
//! communication cost in the tracking algorithms is a sum of shortest-path
//! distances in `G`, so this crate provides:
//!
//! * [`Graph`] — the weighted graph with optional geographic positions,
//! * generators for the topologies used in the evaluation
//!   ([`generators::grid`], [`generators::ring`], [`generators::torus`],
//!   [`generators::line`], [`generators::random_geometric`],
//!   [`generators::random_tree`]),
//! * single-source shortest paths ([`dijkstra()`]) and shortest-path
//!   trees, plus the reusable zero-allocation [`DijkstraWorkspace`]
//!   (`sssp` / `bounded_ball` / `distance`) that hot callers thread
//!   through — a heap Dijkstra on weighted fields, a layered search
//!   with bit-identical results where every edge weighs 1.0, and there
//!   a bidirectional BFS for one pair's distance
//!   ([`Graph::is_unit_weight`]; the graph decides, no caller does),
//! * the [`DistanceOracle`] trait with two backends — the dense
//!   all-pairs [`DenseOracle`] (built in parallel; the verifier) and
//!   the stateless on-demand [`CachedOracle`], which answers every call
//!   with a point-to-point or radius-bounded search — selected via
//!   [`OracleKind`]; every ball query and cost account goes through the
//!   trait,
//! * the bit-level rules the layers above share ([`q32`] quantization,
//!   [`BALL_PAD`], [`splitmix64`]),
//! * §7 topology churn: generation-stamped node leave/join mutation on
//!   [`Graph`], [`TopologyDelta`] batches, and seeded
//!   connectivity-preserving [`ChurnSchedule`]s (see DESIGN.md §17).
//!
//! # Example
//!
//! ```
//! use mot_net::{generators, DenseOracle, DistanceOracle, NodeId, OracleKind};
//!
//! // The paper's largest evaluation topology: a 32x32 unit grid.
//! let g = generators::grid(32, 32)?;
//! assert_eq!(g.node_count(), 1024);
//!
//! // The oracle backs every cost account and radius query. Backends
//! // are interchangeable behind `&dyn DistanceOracle`.
//! let m = DenseOracle::build(&g)?;
//! assert_eq!(m.diameter(), 62.0);
//! assert_eq!(m.dist(NodeId(0), NodeId(1023)), 62.0);
//!
//! // k-neighborhoods (the paper's N(v, r)), sorted by distance:
//! let near = m.ball(NodeId(0), 2.0);
//! assert_eq!(near.len(), 6); // self + 2 at distance 1 + 3 at distance 2
//!
//! // Or let the factory pick: dense up to 4096 nodes, cached beyond.
//! let auto: Box<dyn DistanceOracle> = OracleKind::Auto.build(&g)?;
//! assert_eq!(auto.dist(NodeId(0), NodeId(1023)), 62.0);
//! # Ok::<(), mot_net::NetError>(())
//! ```
//!
//! # Place in the workspace
//!
//! The root of the crate DAG — depends on nothing, everything else
//! depends on it. Implements the system model of the paper's §2.1 and
//! serves every figure (all costs are oracle distances). See DESIGN.md
//! §3 (crate map) and §5 (distance-backend decisions).

#![warn(missing_docs)]

mod bits;
pub mod builder;
pub mod delta;
pub mod dijkstra;
pub mod error;
pub mod generators;
pub mod graph;
pub mod node;
pub mod oracle;
pub mod workspace;

pub use bits::{map_heap_bytes, q32, splitmix64, IdHasher, IdMap, IdSet, BALL_PAD};
pub use builder::GraphBuilder;
pub use delta::{ChurnEvent, ChurnSchedule, ChurnSpec, TopologyDelta};
pub use dijkstra::{dijkstra, shortest_path_tree, PathTree};
pub use error::NetError;
pub use graph::{Edge, Graph};
pub use node::{NodeId, Point};
pub use oracle::{
    nearest_where, CacheLedger, CachedOracle, DenseOracle, DistanceOracle, OracleKind,
};
pub use workspace::DijkstraWorkspace;

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, NetError>;
