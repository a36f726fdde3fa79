//! Validating builder for [`Graph`].

use crate::error::NetError;
use crate::graph::{Edge, Graph};
use crate::node::{NodeId, Point};
use crate::Result;

/// Incrementally assembles a [`Graph`], validating every edge.
///
/// Weights must be finite and strictly positive, self-loops are rejected
/// (the paper defines `w(u,u) = 0` implicitly, not as stored edges), and a
/// duplicate undirected edge with a conflicting weight is an error
/// (re-inserting with the identical weight is an idempotent no-op, which
/// keeps generator code simple).
pub struct GraphBuilder {
    adjacency: Vec<Vec<Edge>>,
    positions: Option<Vec<Point>>,
    edge_count: usize,
    /// Every stored weight so far is exactly 1.0 (`Graph::is_unit_weight`).
    unit_weight: bool,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            adjacency: vec![Vec::new(); n],
            positions: None,
            edge_count: 0,
            unit_weight: true,
        }
    }

    /// Number of nodes the graph will have.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Attaches geographic positions (one per node).
    ///
    /// # Panics
    /// Panics if `positions.len()` differs from the node count.
    pub fn with_positions(mut self, positions: Vec<Point>) -> Self {
        assert_eq!(
            positions.len(),
            self.adjacency.len(),
            "positions must cover every node"
        );
        self.positions = Some(positions);
        self
    }

    /// Adds the undirected edge `(a, b)` with weight `w`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, w: f64) -> Result<()> {
        let n = self.adjacency.len();
        for node in [a, b] {
            if node.index() >= n {
                return Err(NetError::NodeOutOfRange { node, n });
            }
        }
        if a == b {
            return Err(NetError::SelfLoop { node: a });
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(NetError::InvalidWeight { a, b, weight: w });
        }
        if let Some(existing) = self.adjacency[a.index()].iter().find(|e| e.to == b) {
            if (existing.weight - w).abs() > f64::EPSILON {
                return Err(NetError::DuplicateEdge { a, b });
            }
            return Ok(()); // idempotent re-insert
        }
        self.adjacency[a.index()].push(Edge { to: b, weight: w });
        self.adjacency[b.index()].push(Edge { to: a, weight: w });
        self.edge_count += 1;
        self.unit_weight &= w == 1.0;
        Ok(())
    }

    /// Finishes the build, requiring a non-empty, connected graph.
    pub fn build(self) -> Result<Graph> {
        if self.adjacency.is_empty() {
            return Err(NetError::EmptyGraph);
        }
        let g = self.build_unchecked();
        if !g.is_connected() {
            return Err(NetError::Disconnected);
        }
        Ok(g)
    }

    /// Finishes the build without the connectivity check (useful in tests
    /// and for intermediate constructions that mask nodes later).
    pub fn build_unchecked(mut self) -> Graph {
        // Deterministic neighbor order: ascending by id. Several paper
        // procedures (parent-set visits, tie-breaks) are specified in ID
        // order, and determinism makes experiments reproducible.
        for adj in &mut self.adjacency {
            adj.sort_by_key(|e| e.to);
        }
        Graph::from_parts(
            self.adjacency,
            self.positions,
            self.edge_count,
            self.unit_weight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_edges() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(5), 1.0),
            Err(NetError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(0), 1.0),
            Err(NetError::SelfLoop { .. })
        ));
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(1), 0.0),
            Err(NetError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(1), f64::NAN),
            Err(NetError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(1), f64::INFINITY),
            Err(NetError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn duplicate_edge_same_weight_is_idempotent() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 2.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicate_edge_conflicting_weight_is_error() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        assert!(matches!(
            b.add_edge(NodeId(1), NodeId(0), 3.0),
            Err(NetError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn unit_weight_flag_follows_the_stored_weights() {
        let path = |w: f64| {
            let mut b = GraphBuilder::new(3);
            b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
            b.add_edge(NodeId(1), NodeId(2), w).unwrap();
            b.build().unwrap()
        };
        assert!(path(1.0).is_unit_weight());
        assert!(!path(2.0).is_unit_weight());
        // No edges at all: vacuously unit.
        assert!(GraphBuilder::new(1).build().unwrap().is_unit_weight());
        // An idempotent re-insert stores nothing, so it decides nothing.
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 1.0 + f64::EPSILON / 2.0)
            .unwrap();
        assert!(b.build_unchecked().is_unit_weight());
    }

    #[test]
    fn build_rejects_empty_and_disconnected() {
        assert!(matches!(
            GraphBuilder::new(0).build(),
            Err(NetError::EmptyGraph)
        ));
        let b = GraphBuilder::new(2);
        assert!(matches!(b.build(), Err(NetError::Disconnected)));
    }

    #[test]
    fn neighbor_lists_are_sorted_by_id() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(3), 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        let g = b.build().unwrap();
        let order = g.neighbors(NodeId(0)).to_vec();
        assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "positions must cover every node")]
    fn positions_length_mismatch_panics() {
        let _ = GraphBuilder::new(2).with_positions(vec![Point::new(0.0, 0.0)]);
    }
}
