//! Load-balancing clusters and hashed placement (paper §5).
//!
//! Every internal node at level `i` anchors a cluster: all sensors within
//! radius `2^i` of it. The node's detection list is spread over the
//! cluster by `key(o) mod |X|`; a de Bruijn graph embedded in the cluster
//! routes any probe from the cluster center to the entry's holder in
//! `≤ ⌈log |X|⌉` overlay hops with constant per-node routing state.

use crate::object::ObjectId;
use mot_debruijn::Embedding;
use mot_hierarchy::Overlay;
use mot_net::{map_heap_bytes, DistanceOracle, IdMap, NodeId};

/// Placement of one logical entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// Physical node charged with storing the entry.
    pub holder: NodeId,
    /// Message distance of the de Bruijn route from the cluster center to
    /// the holder (the Corollary 5.2 overhead).
    pub route_cost: f64,
}

/// Precomputed cluster embeddings for every internal-node role of an
/// overlay.
#[derive(Clone, Debug)]
pub struct ClusterTable {
    clusters: IdMap<(u8, NodeId), Embedding>,
}

impl ClusterTable {
    /// Builds the radius-`2^ℓ` cluster (and its de Bruijn embedding)
    /// around every level-`ℓ ≥ 1` member of the overlay.
    pub fn build(overlay: &Overlay, m: &dyn DistanceOracle) -> Self {
        let mut clusters = IdMap::default();
        for level in 1..=overlay.height() {
            let radius = (1u64 << level) as f64;
            for &center in overlay.level_members(level) {
                let mut members = m.ball(center, radius);
                members.sort();
                clusters.insert((level as u8, center), Embedding::new(members));
            }
        }
        ClusterTable { clusters }
    }

    /// Heap bytes of the table and its clusters' member lists.
    pub fn heap_bytes(&self) -> usize {
        let members: usize = self.clusters.values().map(Embedding::len).sum();
        map_heap_bytes(&self.clusters) + members * std::mem::size_of::<NodeId>()
    }

    /// The cluster embedding of internal role `(center, level)`, if the
    /// role exists.
    pub fn embedding(&self, center: NodeId, level: usize) -> Option<&Embedding> {
        self.clusters.get(&(level as u8, center))
    }

    /// Where role `(center, level)` stores object `o`: [`Self::placement`]'s
    /// holder, without the route.
    pub fn holder(&self, center: NodeId, level: usize, o: ObjectId) -> NodeId {
        self.embedding(center, level)
            .map_or(center, |e| e.host(o.key() % e.len() as u32))
    }

    /// Where role `(center, level)` stores object `o`, and the de Bruijn
    /// route cost from the center to that holder (§5's hash placement:
    /// label `key(o) mod |X|`).
    ///
    /// Level-0 roles (proxies) are never redistributed; callers handle
    /// that case by storing locally.
    pub fn placement(
        &self,
        center: NodeId,
        level: usize,
        o: ObjectId,
        m: &dyn DistanceOracle,
    ) -> Placement {
        let Some(embedding) = self.embedding(center, level) else {
            // A role outside the table (e.g. level 0) stores locally.
            return Placement {
                holder: center,
                route_cost: 0.0,
            };
        };
        let label = o.key() % embedding.len() as u32;
        let src = embedding
            .label_of(center)
            .expect("cluster center is always a member of its own ball");
        let hosts = embedding.route_hosts(src, label);
        Placement {
            holder: embedding.host(label),
            route_cost: m.walk_length(&hosts),
        }
    }

    /// Number of clusters in the table.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when the overlay had no internal levels.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_hierarchy::{build_doubling, OverlayConfig};
    use mot_net::generators;
    use mot_net::DenseOracle;

    fn setup() -> (Overlay, DenseOracle) {
        let g = generators::grid(6, 6).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, &OverlayConfig::practical(), 5);
        (o, m)
    }

    #[test]
    fn every_internal_role_has_a_cluster() {
        let (o, m) = setup();
        let t = ClusterTable::build(&o, &m);
        let expected: usize = (1..=o.height()).map(|l| o.level_members(l).len()).sum();
        assert_eq!(t.len(), expected);
        assert!(!t.is_empty());
    }

    #[test]
    fn cluster_radius_respected() {
        let (o, m) = setup();
        let t = ClusterTable::build(&o, &m);
        for level in 1..=o.height() {
            let r = (1u64 << level) as f64;
            for &center in o.level_members(level) {
                let e = t.embedding(center, level).unwrap();
                for &member in e.members() {
                    assert!(m.dist(center, member) <= r + 1e-6);
                }
                assert!(e.members().contains(&center));
            }
        }
    }

    #[test]
    fn placement_is_deterministic_and_in_cluster() {
        let (o, m) = setup();
        let t = ClusterTable::build(&o, &m);
        let center = o.level_members(2)[0];
        for key in 0..20 {
            let obj = ObjectId(key);
            let p1 = t.placement(center, 2, obj, &m);
            let p2 = t.placement(center, 2, obj, &m);
            assert_eq!(p1, p2);
            let e = t.embedding(center, 2).unwrap();
            assert!(e.members().contains(&p1.holder));
            assert!(p1.route_cost.is_finite() && p1.route_cost >= 0.0);
        }
    }

    #[test]
    fn placement_spreads_objects_across_cluster() {
        let (o, m) = setup();
        let t = ClusterTable::build(&o, &m);
        // use the root's cluster — largest spread
        let h = o.height();
        let root = o.root();
        let e = t.embedding(root, h).unwrap();
        let mut counts: IdMap<NodeId, usize> = IdMap::default();
        for key in 0..200 {
            let p = t.placement(root, h, ObjectId(key), &m);
            *counts.entry(p.holder).or_default() += 1;
        }
        let max = counts.values().copied().max().unwrap();
        // perfectly modular placement over |X| slots: ceil(200/|X|)
        assert!(
            max <= 200usize.div_ceil(e.len()) + 1,
            "max load {max} on cluster of {}",
            e.len()
        );
    }

    #[test]
    fn unknown_role_stores_locally() {
        let (o, m) = setup();
        let t = ClusterTable::build(&o, &m);
        let p = t.placement(NodeId(0), 0, ObjectId(3), &m);
        assert_eq!(p.holder, NodeId(0));
        assert_eq!(p.route_cost, 0.0);
    }
}
