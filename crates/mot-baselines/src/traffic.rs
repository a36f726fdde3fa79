//! Detection rates — the traffic knowledge consumed by the baselines.
//!
//! Prior work weighs each sensor adjacency by how often objects cross it
//! (the *detection rate*) and shapes the tracking tree around those
//! weights. In the experiments the rates are measured from the very
//! workload that will be replayed — the strongest (most favorable) form
//! of traffic-consciousness, which makes the comparison conservative for
//! MOT.

use mot_net::{Graph, IdMap, NodeId};

/// Per-edge crossing frequencies.
#[derive(Clone, Debug, Default)]
pub struct DetectionRates {
    rates: IdMap<(NodeId, NodeId), f64>,
}

fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl DetectionRates {
    /// No traffic knowledge: every adjacency weighs the same.
    pub fn uniform(g: &Graph) -> Self {
        let mut rates = IdMap::default();
        for (a, b, _) in g.edges() {
            rates.insert(key(a, b), 1.0);
        }
        DetectionRates { rates }
    }

    /// Measures rates from a move trace. Moves between adjacent proxies
    /// increment their edge; a move across several hops increments every
    /// edge of one shortest path (the object physically traversed it).
    pub fn from_moves(g: &Graph, moves: &[(NodeId, NodeId)]) -> Self {
        let mut r = DetectionRates::uniform(g);
        // Scale the uniform floor down so measured traffic dominates but
        // unvisited edges still carry a tiebreaker weight.
        for v in r.rates.values_mut() {
            *v = 1e-3;
        }
        for &(a, b) in moves {
            if a == b {
                continue;
            }
            if g.has_edge(a, b) {
                *r.rates.entry(key(a, b)).or_insert(0.0) += 1.0;
            } else {
                // Re-trace one shortest path and charge each hop.
                let tree = mot_net::shortest_path_tree(g, b);
                let path = tree.path_to_root(a);
                for w in path.windows(2) {
                    *r.rates.entry(key(w[0], w[1])).or_insert(0.0) += 1.0;
                }
            }
        }
        r
    }

    /// The rate of edge `(a, b)` (0 for non-edges).
    pub fn rate(&self, a: NodeId, b: NodeId) -> f64 {
        self.rates.get(&key(a, b)).copied().unwrap_or(0.0)
    }

    /// Total measured activity of a node — the sum of its incident edge
    /// rates (used by zone constructions to pick active heads).
    pub fn node_activity(&self, g: &Graph, u: NodeId) -> f64 {
        g.neighbors(u).iter().map(|&v| self.rate(u, v)).sum()
    }

    /// All edges sorted by descending rate (DAB's merge order), ties by
    /// endpoint ids for determinism.
    pub fn edges_by_rate_desc(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut v: Vec<(NodeId, NodeId, f64)> =
            self.rates.iter().map(|(&(a, b), &r)| (a, b, r)).collect();
        v.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.0.cmp(&y.0))
                .then(x.1.cmp(&y.1))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::generators;

    #[test]
    fn uniform_rates_cover_all_edges() {
        let g = generators::grid(3, 3).unwrap();
        let r = DetectionRates::uniform(&g);
        for (a, b, _) in g.edges() {
            assert_eq!(r.rate(a, b), 1.0);
            assert_eq!(r.rate(b, a), 1.0);
        }
        assert_eq!(r.rate(NodeId(0), NodeId(8)), 0.0); // not an edge
    }

    #[test]
    fn moves_accumulate_on_their_edges() {
        let g = generators::grid(3, 3).unwrap();
        let moves = vec![
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(0)),
            (NodeId(4), NodeId(5)),
        ];
        let r = DetectionRates::from_moves(&g, &moves);
        assert!(r.rate(NodeId(0), NodeId(1)) > 1.9);
        assert!(r.rate(NodeId(4), NodeId(5)) > 0.9);
        assert!(
            r.rate(NodeId(7), NodeId(8)) < 0.01,
            "unvisited edge keeps floor rate"
        );
    }

    #[test]
    fn long_moves_charge_a_shortest_path() {
        let g = generators::line(5).unwrap();
        let r = DetectionRates::from_moves(&g, &[(NodeId(0), NodeId(4))]);
        for i in 0..4u32 {
            assert!(
                r.rate(NodeId(i), NodeId(i + 1)) >= 1.0,
                "edge {i} uncharged"
            );
        }
    }

    #[test]
    fn activity_sums_incident_edges() {
        let g = generators::grid(3, 3).unwrap();
        let r = DetectionRates::uniform(&g);
        assert_eq!(r.node_activity(&g, NodeId(4)), 4.0); // center degree 4
        assert_eq!(r.node_activity(&g, NodeId(0)), 2.0); // corner degree 2
    }

    #[test]
    fn descending_order_is_deterministic() {
        let g = generators::grid(3, 3).unwrap();
        let moves = vec![(NodeId(0), NodeId(1)); 5];
        let r = DetectionRates::from_moves(&g, &moves);
        let order = r.edges_by_rate_desc();
        assert_eq!((order[0].0, order[0].1), (NodeId(0), NodeId(1)));
        assert!(order.windows(2).all(|w| w[0].2 >= w[1].2));
    }
}
