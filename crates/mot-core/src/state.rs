//! Detection-list storage and per-object trails.
//!
//! A physical sensor can play internal-node roles at several overlay
//! levels; the paper treats each role's detection list separately ("when
//! it performs operations as an internal node it can only store the
//! detected objects that are in the detection lists of its child nodes").
//! DL membership is therefore keyed by *(node, level)* — a bitmask of
//! levels per (node, object) pair. SDL entries additionally remember the
//! guarded level and the special child that installed them.
//!
//! The *trail* of an object is the current chain of DL holders from the
//! root down to the proxy — the concatenation of detection-path fragments
//! that maintenance operations splice together (Fig. 2's fragmentation is
//! exactly a trail whose levels come from different proxies' paths).

use crate::object::ObjectId;
use mot_net::NodeId;
use std::collections::HashMap;

/// One SDL installation: `host` guards `child` (a DL holder at the trail
/// level this entry belongs to); the entry is physically charged to
/// `holder` (different from `host` only in load-balanced mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpEntry {
    /// The special parent guarding the entry.
    pub host: NodeId,
    /// The DL holder this entry points down to.
    pub child: NodeId,
    /// The node physically charged for the entry (a hashed cluster
    /// member under load balancing, otherwise `host` itself).
    pub holder: NodeId,
}

/// Per-level slice of an object's trail.
#[derive(Clone, Debug)]
pub struct TrailLevel {
    /// The bottom node whose detection path this slice was climbed on:
    /// `holders` is exactly `station(origin, ℓ)`, so the hop lengths
    /// between consecutive holders are that station's overlay constants.
    pub origin: NodeId,
    /// Nodes holding the object in their level-ℓ DL, sorted by id.
    pub holders: Vec<NodeId>,
    /// SDL installations guarding this level.
    pub sp_entries: Vec<SpEntry>,
}

impl Default for TrailLevel {
    /// An empty slice; `origin` is a placeholder until holders are added.
    fn default() -> Self {
        TrailLevel {
            origin: NodeId(0),
            holders: Vec::new(),
            sp_entries: Vec::new(),
        }
    }
}

/// Full per-object record: `trail[ℓ]` for `ℓ = 0..=h`;
/// `trail[0].holders == [proxy]`.
#[derive(Clone, Debug)]
pub struct ObjectRecord {
    /// `trail[ℓ]` is the object's level-ℓ slice, bottom (proxy) first.
    pub trail: Vec<TrailLevel>,
}

impl ObjectRecord {
    /// The current proxy.
    pub fn proxy(&self) -> NodeId {
        self.trail[0].holders[0]
    }
}

/// The DL and SDL of one node that has ever held an entry.
#[derive(Clone, Debug, Default)]
struct NodeStore {
    /// object → bitmask of levels at which the node holds the object in
    /// its DL.
    dl: HashMap<ObjectId, u64>,
    /// object → SDL entries hosted here (guarded level, child).
    sdl: HashMap<ObjectId, Vec<(u8, NodeId)>>,
}

/// The distributed DL/SDL state of every node, with physical load
/// accounting.
#[derive(Clone, Debug)]
pub struct NodeStores {
    /// Allocated on a node's first entry: on a large deployment nearly
    /// every sensor never holds one, and two empty maps apiece (96 bytes)
    /// were most of what a tracker kept resident there.
    nodes: Vec<Option<Box<NodeStore>>>,
    /// Physical per-node entry counts (who actually stores the record —
    /// under load balancing a hashed cluster member, not the role node).
    load: Vec<usize>,
}

impl NodeStores {
    /// Empty stores for an `n`-node deployment.
    pub fn new(n: usize) -> Self {
        NodeStores {
            nodes: vec![None; n],
            load: vec![0; n],
        }
    }

    fn node(&self, u: NodeId) -> Option<&NodeStore> {
        self.nodes[u.index()].as_deref()
    }

    fn node_mut(&mut self, u: NodeId) -> &mut NodeStore {
        self.nodes[u.index()].get_or_insert_with(Default::default)
    }

    /// Does `node` hold `o` in its level-`level` DL?
    pub fn dl_has(&self, node: NodeId, level: usize, o: ObjectId) -> bool {
        self.node(node)
            .and_then(|s| s.dl.get(&o))
            .map(|mask| mask & (1u64 << level) != 0)
            .unwrap_or(false)
    }

    /// The lowest level at which `node` holds `o` in any of its DL roles
    /// (a physical sensor playing several internal-node roles knows its
    /// whole detection list, so a query probing it can exploit every
    /// role; the lowest level descends cheapest).
    pub fn dl_lowest_level(&self, node: NodeId, o: ObjectId) -> Option<usize> {
        self.node(node)
            .and_then(|s| s.dl.get(&o))
            .filter(|&&mask| mask != 0)
            .map(|mask| mask.trailing_zeros() as usize)
    }

    /// Adds `o` to `node`'s level-`level` DL, charging the entry to
    /// `holder`. Returns false if it was already present.
    pub fn dl_add(&mut self, node: NodeId, level: usize, o: ObjectId, holder: NodeId) -> bool {
        let mask = self.node_mut(node).dl.entry(o).or_insert(0);
        let bit = 1u64 << level;
        if *mask & bit != 0 {
            return false;
        }
        *mask |= bit;
        self.load[holder.index()] += 1;
        true
    }

    /// Removes `o` from `node`'s level-`level` DL, releasing `holder`'s
    /// charge. Returns false if it was not present.
    pub fn dl_remove(&mut self, node: NodeId, level: usize, o: ObjectId, holder: NodeId) -> bool {
        let Some(store) = self.nodes[node.index()].as_deref_mut() else {
            return false;
        };
        let entry = store.dl.get_mut(&o);
        let Some(mask) = entry else { return false };
        let bit = 1u64 << level;
        if *mask & bit == 0 {
            return false;
        }
        *mask &= !bit;
        if *mask == 0 {
            store.dl.remove(&o);
        }
        self.load[holder.index()] = self.load[holder.index()].saturating_sub(1);
        true
    }

    /// The canonical SDL entry for `o` hosted at `node`, if any — the
    /// minimum (guarded level, child) pair, so lookups are independent of
    /// installation order (and the lowest guarded level descends
    /// cheapest).
    pub fn sdl_get(&self, node: NodeId, o: ObjectId) -> Option<(usize, NodeId)> {
        self.node(node)
            .and_then(|s| s.sdl.get(&o))
            .and_then(|v| v.iter().min())
            .map(|&(lvl, child)| (lvl as usize, child))
    }

    /// Installs an SDL entry.
    pub fn sdl_add(&mut self, e: SpEntry, level: usize, o: ObjectId) {
        self.node_mut(e.host)
            .sdl
            .entry(o)
            .or_default()
            .push((level as u8, e.child));
        self.load[e.holder.index()] += 1;
    }

    /// Removes a previously installed SDL entry.
    pub fn sdl_remove(&mut self, e: SpEntry, level: usize, o: ObjectId) {
        let Some(store) = self.nodes[e.host.index()].as_deref_mut() else {
            return;
        };
        let entries = store.sdl.get_mut(&o);
        let Some(v) = entries else { return };
        if let Some(pos) = v
            .iter()
            .position(|&(l, c)| l == level as u8 && c == e.child)
        {
            v.swap_remove(pos);
            if v.is_empty() {
                store.sdl.remove(&o);
            }
            self.load[e.holder.index()] = self.load[e.holder.index()].saturating_sub(1);
        }
    }

    /// Simulates a crash of node `u`: every DL and SDL entry physically
    /// stored there is lost. Returns the number of entries wiped.
    ///
    /// Load accounting assumes entries are charged to the node that
    /// stores them (plain mode); the fault model does not compose with
    /// load-balanced placement, whose entries live on hashed cluster
    /// members.
    pub fn wipe_node(&mut self, u: NodeId) -> usize {
        let Some(store) = self.nodes[u.index()].take() else {
            return 0;
        };
        let wiped = store
            .dl
            .values()
            .map(|mask| mask.count_ones() as usize)
            .sum::<usize>()
            + store.sdl.values().map(Vec::len).sum::<usize>();
        self.load[u.index()] = self.load[u.index()].saturating_sub(wiped);
        wiped
    }

    /// Physical per-node load snapshot.
    pub fn loads(&self) -> &[usize] {
        &self.load
    }

    /// Total DL entries across all nodes (testing aid).
    pub fn total_dl_entries(&self) -> usize {
        self.nodes
            .iter()
            .flatten()
            .flat_map(|m| m.dl.values())
            .map(|mask| mask.count_ones() as usize)
            .sum()
    }

    /// Total SDL entries across all nodes (testing aid).
    pub fn total_sdl_entries(&self) -> usize {
        self.nodes
            .iter()
            .flatten()
            .flat_map(|m| m.sdl.values())
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_bitmask_tracks_levels_independently() {
        let mut s = NodeStores::new(4);
        let (n, o) = (NodeId(2), ObjectId(7));
        assert!(s.dl_add(n, 0, o, n));
        assert!(s.dl_add(n, 3, o, n));
        assert!(!s.dl_add(n, 3, o, n), "double add reports absent");
        assert!(s.dl_has(n, 0, o));
        assert!(s.dl_has(n, 3, o));
        assert!(!s.dl_has(n, 1, o));
        assert_eq!(s.loads()[2], 2);
        assert!(s.dl_remove(n, 0, o, n));
        assert!(!s.dl_has(n, 0, o));
        assert!(s.dl_has(n, 3, o));
        assert!(!s.dl_remove(n, 0, o, n));
        assert_eq!(s.loads()[2], 1);
    }

    #[test]
    fn load_charged_to_designated_holder() {
        let mut s = NodeStores::new(4);
        // role node 0, physical holder 3 (load-balanced placement)
        s.dl_add(NodeId(0), 1, ObjectId(1), NodeId(3));
        assert_eq!(s.loads(), &[0, 0, 0, 1]);
        assert!(
            s.dl_has(NodeId(0), 1, ObjectId(1)),
            "lookup stays role-keyed"
        );
        s.dl_remove(NodeId(0), 1, ObjectId(1), NodeId(3));
        assert_eq!(s.loads(), &[0, 0, 0, 0]);
    }

    #[test]
    fn sdl_entries_roundtrip() {
        let mut s = NodeStores::new(5);
        let o = ObjectId(9);
        let e = SpEntry {
            host: NodeId(4),
            child: NodeId(1),
            holder: NodeId(4),
        };
        s.sdl_add(e, 2, o);
        assert_eq!(s.sdl_get(NodeId(4), o), Some((2, NodeId(1))));
        assert_eq!(s.sdl_get(NodeId(3), o), None);
        assert_eq!(s.total_sdl_entries(), 1);
        s.sdl_remove(e, 2, o);
        assert_eq!(s.sdl_get(NodeId(4), o), None);
        assert_eq!(s.loads()[4], 0);
    }

    #[test]
    fn a_node_costs_a_pointer_until_its_first_entry() {
        let mut s = NodeStores::new(3);
        let (n, o) = (NodeId(1), ObjectId(4));
        let e = SpEntry {
            host: NodeId(2),
            child: n,
            holder: NodeId(2),
        };
        // Reads and removals of what was never there allocate nothing.
        assert!(!s.dl_has(n, 0, o) && !s.dl_remove(n, 0, o, n));
        assert_eq!((s.dl_lowest_level(n, o), s.sdl_get(n, o)), (None, None));
        s.sdl_remove(e, 0, o);
        assert_eq!(s.wipe_node(n), 0);
        assert!(s.nodes.iter().all(Option::is_none));
        s.dl_add(n, 2, o, n);
        s.sdl_add(e, 0, o);
        assert_eq!(
            s.nodes.iter().map(Option::is_some).collect::<Vec<_>>(),
            [false, true, true]
        );
        assert_eq!((s.total_dl_entries(), s.total_sdl_entries()), (1, 1));
        // A crash takes the node's store with it.
        assert_eq!(s.wipe_node(NodeId(2)), 1);
        assert!(s.nodes[2].is_none());
        assert_eq!(s.sdl_get(NodeId(2), o), None);
    }

    #[test]
    fn sdl_supports_multiple_levels_per_host() {
        let mut s = NodeStores::new(3);
        let o = ObjectId(1);
        let a = SpEntry {
            host: NodeId(0),
            child: NodeId(1),
            holder: NodeId(0),
        };
        let b = SpEntry {
            host: NodeId(0),
            child: NodeId(2),
            holder: NodeId(0),
        };
        s.sdl_add(a, 1, o);
        s.sdl_add(b, 3, o);
        assert_eq!(s.loads()[0], 2);
        s.sdl_remove(a, 1, o);
        assert_eq!(s.sdl_get(NodeId(0), o), Some((3, NodeId(2))));
    }

    #[test]
    fn record_proxy_is_bottom_holder() {
        let rec = ObjectRecord {
            trail: vec![
                TrailLevel {
                    origin: NodeId(5),
                    holders: vec![NodeId(5)],
                    sp_entries: vec![],
                },
                TrailLevel {
                    origin: NodeId(5),
                    holders: vec![NodeId(1), NodeId(2)],
                    sp_entries: vec![],
                },
            ],
        };
        assert_eq!(rec.proxy(), NodeId(5));
    }
}
