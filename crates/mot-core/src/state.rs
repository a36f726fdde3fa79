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
//! Both tables are [`IdMap`]s — an operation probes one at every station
//! stop, and the keys are object ids the program hands out, so they hash
//! with one multiply instead of a keyed SipHash. A DL entry is 16 bytes
//! (id + level mask); an SDL entry is 32 (id + a 24-byte `SdlSlot`
//! holding its first `(level, child)` pair inline). A host that guards
//! one object through several children spills the slot to a vector
//! taken from — and, once drained, returned to — a freelist, so in
//! steady state installing or removing a special parent allocates
//! nothing either way.
//!
//! The *trail* of an object is the current chain of DL holders from the
//! root down to the proxy — the concatenation of detection-path fragments
//! that maintenance operations splice together (Fig. 2's fragmentation is
//! exactly a trail whose levels come from different proxies' paths).

use crate::object::ObjectId;
use mot_net::{IdMap, NodeId};
use std::collections::hash_map::Entry;

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

/// `(guarded level, child)`.
type SdlPair = (u8, NodeId);

/// The SDL entries one host keeps for one object: a non-empty multiset
/// of `(guarded level, child)` pairs. The first pair lives inline; a
/// second guard on the same (host, object) spills all of them to a
/// vector, and removing down to one drains back. No larger than the
/// `Vec` header alone (asserted below) — 20 000 objects' worth of these
/// is where a fatter entry shows up as resident memory.
#[derive(Clone, Debug)]
enum SdlSlot {
    One(SdlPair),
    Many(Vec<SdlPair>),
}

const _: () = assert!(std::mem::size_of::<SdlSlot>() <= std::mem::size_of::<Vec<SdlPair>>());

/// Cap on [`NodeStores::spare_spills`]. One move installs and removes a
/// few dozen guards at most, so its own drains cover its spills.
const SPARE_SPILL_CAP: usize = 64;

impl SdlSlot {
    fn as_slice(&self) -> &[SdlPair] {
        match self {
            SdlSlot::One(e) => std::slice::from_ref(e),
            SdlSlot::Many(v) => v,
        }
    }

    /// Adds `e`, spilling into a vector off `spare` when the inline
    /// pair is taken.
    fn push(&mut self, e: SdlPair, spare: &mut Vec<Vec<SdlPair>>) {
        match self {
            SdlSlot::One(first) => {
                let mut v = spare.pop().unwrap_or_default();
                v.extend([*first, e]);
                *self = SdlSlot::Many(v);
            }
            SdlSlot::Many(v) => v.push(e),
        }
    }

    /// Removes one occurrence of `e`, draining back to the inline pair
    /// (the emptied vector goes to `spare`) when one is left.
    /// `Some(true)` when that emptied the slot (the caller drops it),
    /// `None` when `e` was not there.
    fn remove(&mut self, e: SdlPair, spare: &mut Vec<Vec<SdlPair>>) -> Option<bool> {
        match self {
            SdlSlot::One(only) => (*only == e).then_some(true),
            SdlSlot::Many(v) => {
                v.swap_remove(v.iter().position(|&x| x == e)?);
                if let [last] = v[..] {
                    let mut v = std::mem::take(v);
                    if spare.len() < SPARE_SPILL_CAP {
                        v.clear();
                        spare.push(v);
                    }
                    *self = SdlSlot::One(last);
                }
                Some(false)
            }
        }
    }
}

/// The DL and SDL of one node that has ever held an entry.
#[derive(Clone, Debug, Default)]
struct NodeStore {
    /// object → bitmask of levels at which the node holds the object in
    /// its DL.
    dl: IdMap<ObjectId, u64>,
    /// object → SDL entries hosted here.
    sdl: IdMap<ObjectId, SdlSlot>,
}

/// The distributed DL/SDL state of every node, with physical load
/// accounting.
#[derive(Clone, Debug)]
pub struct NodeStores {
    /// Allocated on a node's first entry: on a large deployment nearly
    /// every sensor never holds one, and two empty maps apiece (64 bytes)
    /// were most of what a tracker kept resident there.
    nodes: Vec<Option<Box<NodeStore>>>,
    /// Physical per-node entry counts (who actually stores the record —
    /// under load balancing a hashed cluster member, not the role node).
    load: Vec<usize>,
    /// Freelist of the vectors spilled [`SdlSlot`]s drained out of, so
    /// the next spill reuses one instead of allocating. Cleared on
    /// recycle; reuse is capacity-only (DESIGN.md §16).
    spare_spills: Vec<Vec<SdlPair>>,
}

impl NodeStores {
    /// Empty stores for an `n`-node deployment.
    pub fn new(n: usize) -> Self {
        NodeStores {
            nodes: vec![None; n],
            load: vec![0; n],
            spare_spills: Vec::new(),
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
            .and_then(|slot| slot.as_slice().iter().min())
            .map(|&(lvl, child)| (lvl as usize, child))
    }

    /// Installs an SDL entry.
    pub fn sdl_add(&mut self, e: SpEntry, level: usize, o: ObjectId) {
        let pair = (level as u8, e.child);
        let store = self.nodes[e.host.index()].get_or_insert_with(Default::default);
        match store.sdl.entry(o) {
            Entry::Occupied(mut slot) => slot.get_mut().push(pair, &mut self.spare_spills),
            Entry::Vacant(slot) => {
                slot.insert(SdlSlot::One(pair));
            }
        }
        self.load[e.holder.index()] += 1;
    }

    /// Removes a previously installed SDL entry.
    pub fn sdl_remove(&mut self, e: SpEntry, level: usize, o: ObjectId) {
        let Some(store) = self.nodes[e.host.index()].as_deref_mut() else {
            return;
        };
        let Entry::Occupied(mut slot) = store.sdl.entry(o) else {
            return;
        };
        let pair = (level as u8, e.child);
        let Some(emptied) = slot.get_mut().remove(pair, &mut self.spare_spills) else {
            return;
        };
        if emptied {
            slot.remove();
        }
        self.load[e.holder.index()] = self.load[e.holder.index()].saturating_sub(1);
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
            + store
                .sdl
                .values()
                .map(|slot| slot.as_slice().len())
                .sum::<usize>();
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

    /// The entry count of every SDL slot that has spilled past its
    /// inline pair, as `(host, object, entries)`.
    #[cfg(test)]
    pub(crate) fn sdl_spilled(&self) -> Vec<(NodeId, ObjectId, usize)> {
        let mut spilled = Vec::new();
        for (i, store) in self.nodes.iter().enumerate() {
            for (&o, slot) in store.iter().flat_map(|s| &s.sdl) {
                if let SdlSlot::Many(v) = slot {
                    spilled.push((NodeId::from_index(i), o, v.len()));
                }
            }
        }
        spilled
    }

    /// Total SDL entries across all nodes (testing aid).
    pub fn total_sdl_entries(&self) -> usize {
        self.nodes
            .iter()
            .flatten()
            .flat_map(|m| m.sdl.values())
            .map(|slot| slot.as_slice().len())
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
    fn sdl_slot_spills_past_its_inline_entry_and_drains_back() {
        let mut s = NodeStores::new(8);
        let (host, o) = (NodeId(0), ObjectId(1));
        let guard = |child: u32| SpEntry {
            host,
            child: NodeId(child),
            holder: host,
        };
        let slot = |s: &NodeStores| s.node(host).and_then(|n| n.sdl.get(&o)).cloned();
        s.sdl_add(guard(5), 2, o);
        assert!(matches!(slot(&s), Some(SdlSlot::One(_))));
        s.sdl_add(guard(3), 4, o);
        s.sdl_add(guard(7), 1, o);
        s.sdl_add(guard(3), 4, o); // a multiset: the same guard twice
        assert!(matches!(slot(&s), Some(SdlSlot::Many(_))));
        assert_eq!(s.sdl_get(host, o), Some((1, NodeId(7))));
        assert_eq!((s.total_sdl_entries(), s.loads()[0]), (4, 4));
        // Removal order differs from installation order; a guard that
        // was never installed is a no-op.
        s.sdl_remove(guard(3), 4, o);
        s.sdl_remove(guard(6), 4, o);
        assert_eq!((s.total_sdl_entries(), s.loads()[0]), (3, 3));
        s.sdl_remove(guard(7), 1, o);
        assert_eq!(s.sdl_get(host, o), Some((2, NodeId(5))));
        s.sdl_remove(guard(5), 2, o);
        assert!(matches!(slot(&s), Some(SdlSlot::One((4, NodeId(3))))));
        s.sdl_remove(guard(5), 2, o);
        assert_eq!((s.total_sdl_entries(), s.loads()[0]), (1, 1));
        s.sdl_remove(guard(3), 4, o);
        assert!(slot(&s).is_none());
        assert_eq!(s.wipe_node(host), 0);
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
