//! de Bruijn overlay graphs for intra-cluster routing (paper §5, §7).
//!
//! MOT's load-balanced variant hashes each internal node's detection list
//! across its cluster. Without structure, finding the node that holds a
//! given object would require each cluster member to keep `O(|X|)`
//! routing state; embedding a `⌈log |X|⌉`-dimensional de Bruijn graph in
//! the cluster lets every member keep a *constant-size* neighbor table
//! while any lookup routes in `≤ log |X|` overlay hops.
//!
//! * [`DeBruijnGraph`] — the abstract `d`-dimensional graph and its
//!   canonical shift-in shortest-path routing,
//! * [`Embedding`] — the mapping of `2^d` virtual labels onto an
//!   arbitrary-size physical cluster (labels `≥ |X|` are emulated by the
//!   member whose label differs only in the most significant bit).
//!
//! # Example
//!
//! ```
//! use mot_debruijn::{DeBruijnGraph, Embedding};
//! use mot_net::NodeId;
//!
//! // An 11-sensor cluster hosts a 4-dimensional de Bruijn graph.
//! let cluster: Vec<NodeId> = (0..11).map(NodeId).collect();
//! let e = Embedding::new(cluster);
//! assert_eq!(e.graph().dim(), 4);
//!
//! // Any lookup routes in at most `dim` overlay hops...
//! let hosts = e.route_hosts(0, 13);
//! assert!(hosts.len() <= 5);
//!
//! // ...while every member keeps only a constant-size neighbor table.
//! for &member in e.members() {
//!     assert!(e.neighbor_table(member).len() <= 8);
//! }
//!
//! // Canonical shift-in routing is a shortest path.
//! let g = DeBruijnGraph::new(4);
//! assert_eq!(g.distance(0b1010, 0b0101), 1); // overlap of 3 bits
//! ```
//!
//! # Place in the workspace
//!
//! Depends only on `mot-net`; consumed by `mot-core`'s load-balanced
//! tracker. Implements §5 (load balancing); serves Figs. 8–11 and the
//! `state-size` table. See DESIGN.md §3 and §5.

#![warn(missing_docs)]

pub mod embedding;
pub mod graph;

pub use embedding::Embedding;
pub use graph::DeBruijnGraph;
