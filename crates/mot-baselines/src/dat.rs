//! DAT — Deviation-Avoidance Tree (Lin et al. \[21\]).
//!
//! A tree avoids deviation when every node's tree distance to the sink
//! equals its graph distance (no detour on the query/update path to the
//! root). Lin et al. additionally honor traffic: among the edges that
//! preserve zero deviation, the higher-detection-rate edge is connected
//! first, so hot adjacencies share low ancestors where possible.
//!
//! Construction: shortest-path distances from the sink, then each node
//! picks as parent the *tight* neighbor (one lying on some shortest path
//! to the sink) with maximal detection rate, ties broken by node id.

use crate::traffic::DetectionRates;
use crate::tree::TrackingTree;
use mot_net::{dijkstra, Graph, NodeId};

/// Builds the deviation-avoidance tree rooted at `sink`.
pub fn build_dat(g: &Graph, rates: &DetectionRates, sink: NodeId) -> TrackingTree {
    let dist = dijkstra(g, sink);
    let mut parent: Vec<Option<NodeId>> = vec![None; g.node_count()];
    for u in g.nodes() {
        if u == sink {
            continue;
        }
        let du = dist[u.index()];
        let best = g
            .half_edges(u)
            .filter(|e| (dist[e.to.index()] + e.weight - du).abs() < 1e-9)
            .max_by(|x, y| {
                rates
                    .rate(u, x.to)
                    .partial_cmp(&rates.rate(u, y.to))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(y.to.cmp(&x.to)) // smaller id wins on rate ties
            })
            .expect("connected graph: every node has a tight neighbor");
        parent[u.index()] = Some(best.to);
    }
    TrackingTree::from_parents(sink, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::{generators, DenseOracle};

    #[test]
    fn zero_deviation_on_grids() {
        let g = generators::grid(6, 6).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let t = build_dat(&g, &DetectionRates::uniform(&g), NodeId(0));
        assert!(t.max_deviation(&m) < 1e-9, "DAT must be deviation-free");
    }

    #[test]
    fn zero_deviation_on_weighted_random_geometric() {
        let g = generators::random_geometric(50, 8.0, 2.0, 9).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let t = build_dat(&g, &DetectionRates::uniform(&g), NodeId(3));
        assert!(t.max_deviation(&m) < 1e-6);
    }

    #[test]
    fn rates_steer_tie_breaks() {
        // Node 5 of a 3x3 grid (center-right) has two tight parents
        // toward sink 0: node 4 (left) and node 2 (up). Heavy traffic on
        // (5, 2) must select 2.
        let g = generators::grid(3, 3).unwrap();
        let moves = vec![(NodeId(5), NodeId(2)); 10];
        let rates = DetectionRates::from_moves(&g, &moves);
        let t = build_dat(&g, &rates, NodeId(0));
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(2)));
        // and with traffic on (5, 4) instead it must select 4
        let moves = vec![(NodeId(5), NodeId(4)); 10];
        let rates = DetectionRates::from_moves(&g, &moves);
        let t = build_dat(&g, &rates, NodeId(0));
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(4)));
    }

    #[test]
    fn uniform_rates_break_ties_by_smaller_id() {
        let g = generators::grid(3, 3).unwrap();
        let t = build_dat(&g, &DetectionRates::uniform(&g), NodeId(0));
        // node 4 has tight parents 1 and 3 (both distance 1 from sink);
        // equal rates -> smaller id 1
        assert_eq!(t.parent(NodeId(4)), Some(NodeId(1)));
    }

    #[test]
    fn sink_is_root_with_everyone_attached() {
        let g = generators::ring(12).unwrap();
        let t = build_dat(&g, &DetectionRates::uniform(&g), NodeId(7));
        assert_eq!(t.root(), NodeId(7));
        for u in g.nodes() {
            if u != t.root() {
                assert!(t.parent(u).is_some());
            }
        }
    }
}
