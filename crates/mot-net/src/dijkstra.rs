//! Single-source shortest paths and shortest-path trees.
//!
//! These are the classic one-shot entry points; each call runs a fresh
//! [`DijkstraWorkspace`]. Hot callers that run
//! Dijkstra many times over the same graph (the oracle backends, the
//! hierarchy builders) hold a workspace and reuse it — see
//! [`crate::workspace`] for the zero-allocation variant. Both paths
//! produce bit-identical distances, parents, and settle orders.
//!
//! "Dijkstra" names the contract, not always the loop: on a graph whose
//! every edge weighs exactly 1.0 ([`Graph::is_unit_weight`]) the
//! workspace runs a layer-by-layer search with the same results, bit for
//! bit, and no heap. Nothing here — or in any caller — selects it.

use crate::graph::Graph;
use crate::node::NodeId;
use crate::workspace::DijkstraWorkspace;

/// Shortest-path distances from `source` to every node.
///
/// Unreachable nodes get `f64::INFINITY` (cannot happen for the connected
/// graphs the suite uses, but kept well-defined for robustness).
pub fn dijkstra(g: &Graph, source: NodeId) -> Vec<f64> {
    let mut ws = DijkstraWorkspace::with_capacity(g.node_count());
    ws.sssp(g, source);
    let mut dist = Vec::new();
    ws.fill_dist(&mut dist);
    dist
}

/// A shortest-path tree rooted at `root`.
///
/// `parent[root] = None`; every other node's parent lies on a shortest path
/// to the root. Used for cost accounting (overlay edges are simulated by
/// shortest physical paths) and by the DAT baseline, which is a
/// deviation-free shortest-path tree.
#[derive(Clone, Debug)]
pub struct PathTree {
    /// The node the tree is rooted at.
    pub root: NodeId,
    /// `dist[u]` = shortest-path distance from `u` to the root.
    pub dist: Vec<f64>,
    /// `parent[u]` = next hop toward the root (`None` at the root).
    pub parent: Vec<Option<NodeId>>,
}

impl PathTree {
    /// Extracts the node sequence from `from` up to the root.
    pub fn path_to_root(&self, from: NodeId) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut cur = from;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Distance from `u` to the root along the tree (equals the graph
    /// shortest-path distance by construction).
    pub fn dist_to_root(&self, u: NodeId) -> f64 {
        self.dist[u.index()]
    }
}

/// Builds a shortest-path tree from `root`.
pub fn shortest_path_tree(g: &Graph, root: NodeId) -> PathTree {
    let mut ws = DijkstraWorkspace::with_capacity(g.node_count());
    ws.sssp(g, root);
    let mut dist = Vec::new();
    ws.fill_dist(&mut dist);
    let parent = g.nodes().map(|u| ws.parent(u)).collect();
    PathTree { root, dist, parent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    fn weighted_square() -> Graph {
        // 0 --1-- 1
        // |       |
        // 4       1
        // |       |
        // 3 --1-- 2
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        b.add_edge(NodeId(3), NodeId(0), 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dijkstra_prefers_cheaper_long_path() {
        let g = weighted_square();
        let d = dijkstra(&g, NodeId(0));
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        // direct edge costs 4, the 3-hop path costs 3
        assert_eq!(d[3], 3.0);
    }

    #[test]
    fn targeted_matches_full() {
        let g = generators::grid(5, 7).unwrap();
        let full = dijkstra(&g, NodeId(3));
        let mut ws = DijkstraWorkspace::with_capacity(g.node_count());
        for t in g.nodes() {
            assert_eq!(ws.distance(&g, NodeId(3), t), full[t.index()]);
        }
    }

    #[test]
    fn path_tree_paths_have_shortest_length() {
        let g = weighted_square();
        let tree = shortest_path_tree(&g, NodeId(0));
        let path = tree.path_to_root(NodeId(3));
        assert_eq!(path, vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]);
        assert_eq!(tree.dist_to_root(NodeId(3)), 3.0);
    }

    #[test]
    fn dijkstra_on_grid_matches_manhattan() {
        let g = generators::grid(4, 4).unwrap();
        let d = dijkstra(&g, NodeId(0));
        // unit-weight grid: distance = Manhattan distance from (0,0)
        for r in 0..4 {
            for c in 0..4 {
                let idx = r * 4 + c;
                assert_eq!(d[idx], (r + c) as f64, "node ({r},{c})");
            }
        }
    }

    #[test]
    fn tree_parent_edges_exist_in_graph() {
        let g = generators::grid(6, 6).unwrap();
        let tree = shortest_path_tree(&g, NodeId(20));
        for u in g.nodes() {
            if let Some(p) = tree.parent[u.index()] {
                assert!(g.has_edge(u, p));
            } else {
                assert_eq!(u, tree.root);
            }
        }
    }
}
