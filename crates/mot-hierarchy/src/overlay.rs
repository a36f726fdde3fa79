//! The assembled overlay `HS` consumed by the tracking algorithms.

use crate::table::{DropHop, StationTable, TableBytes};
use mot_net::NodeId;

/// Which construction produced the overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayKind {
    /// MIS coarsening for constant-doubling networks (§2.2).
    Doubling,
    /// Sparse-partition scheme for general networks (§6).
    General,
}

/// The hierarchical overlay `HS = (V_T, E_T)`.
///
/// Exposes exactly what MOT needs: per bottom node its detection path
/// `DPath(u)` (Definition 1) — the stations per level in visiting order
/// (ascending id, the discipline of §3.1 that prevents the Fig. 3 race)
/// and the length of every hop between consecutive stops —, the level
/// membership sets, and the special-parent pairing of Definition 3
/// extended to parent sets (station index `j` at level `ℓ` pairs with
/// station index `j mod |station(ℓ + gap)|` at level `ℓ + gap`, wrapping
/// as §3 puts it: "start again from the smallest ID node").
///
/// Paths live in one flat station table (each distinct station once,
/// hop lengths beside the members; see DESIGN.md §13), so a tracker
/// climbing, rolling back, pruning or descending along a detection path
/// reads constants and never asks a distance oracle.
#[derive(Clone, Debug, PartialEq)]
pub struct Overlay {
    kind: OverlayKind,
    height: usize,
    levels: Vec<Vec<NodeId>>,
    table: StationTable,
    sp_gap: usize,
}

impl Overlay {
    pub(crate) fn new(
        kind: OverlayKind,
        levels: Vec<Vec<NodeId>>,
        table: StationTable,
        sp_gap: usize,
    ) -> Self {
        let height = levels.len() - 1;
        debug_assert!(levels.last().map(|top| top.len() == 1).unwrap_or(false));
        debug_assert_eq!(table.node_count(), levels[0].len());
        Overlay {
            kind,
            height,
            levels,
            table,
            sp_gap,
        }
    }

    /// Which construction produced this overlay.
    pub fn kind(&self) -> OverlayKind {
        self.kind
    }

    /// Top level index `h` (`stations` run `0..=h`).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of bottom-level sensor nodes.
    pub fn node_count(&self) -> usize {
        self.table.node_count()
    }

    /// The single root node `r` (the paper notes the sink typically plays
    /// this role in deployments).
    pub fn root(&self) -> NodeId {
        self.levels[self.height][0]
    }

    /// Members of level `ℓ` (for the general model: the distinct cluster
    /// leaders of that level).
    pub fn level_members(&self, level: usize) -> &[NodeId] {
        &self.levels[level]
    }

    /// Station (ordered parent set) of `u` at `level`.
    #[inline]
    pub fn station(&self, u: NodeId, level: usize) -> &[NodeId] {
        self.table.station(self.table.record(u, level))
    }

    /// Length of the hop that brings a message climbing `DPath(u)` to
    /// member `j` of `station(u, level)` from the stop before it: the
    /// previous member of the same station, or for `j = 0` the last
    /// member of `station(u, level - 1)` (zero at level 0, where the
    /// path starts). Bit-identical to `oracle.dist(prev, member)`.
    #[inline]
    pub fn hop_in(&self, u: NodeId, level: usize, j: usize) -> f64 {
        if j > 0 {
            self.table.hops(self.table.record(u, level))[j] as f64
        } else if level > 0 {
            self.table.up(self.table.record(u, level - 1)) as f64
        } else {
            0.0
        }
    }

    /// One step of the climb along `DPath(u)` from member `index` of
    /// `station(u, level)`: the next member of that station, or else the
    /// first member of the station above, as `(node, level, index, hop)`
    /// with `hop` = [`hop_in`](Self::hop_in) of the stop returned. `None`
    /// at the last member of the root station. Reads `u`'s index row
    /// once; the hop is the stored `hops[index + 1]` or the record's `up`.
    #[inline]
    pub fn climb_step(
        &self,
        u: NodeId,
        level: usize,
        index: usize,
    ) -> Option<(NodeId, usize, usize, f64)> {
        let records = self.table.records(u);
        let r = records[level] as usize;
        let (station, hops) = (self.table.station(r), self.table.hops(r));
        if let Some(&node) = station.get(index + 1) {
            Some((node, level, index + 1, hops[index + 1] as f64))
        } else {
            let above = *records.get(level + 1)? as usize;
            let node = self.table.station(above)[0];
            Some((node, level + 1, 0, self.table.up(r) as f64))
        }
    }

    /// Length of the reverse hop from member `j ≥ 1` of
    /// `station(u, level)` back to member `j - 1` (the meet-level
    /// rollback direction). Bit-identical to `oracle.dist(member, prev)`.
    #[inline]
    pub fn hop_back(&self, u: NodeId, level: usize, j: usize) -> f64 {
        debug_assert!(j > 0, "the first member has no predecessor in its station");
        self.table.hop_back(self.table.record(u, level), j) as f64
    }

    /// The hop from `from` down into `station(u, level)`, when `from` is
    /// a member of `station(u, level + 1)` — the pair then lies on
    /// `DPath(u)` and its lengths are overlay constants. `None` when
    /// `from` is not on `u`'s own detection path (a junction between the
    /// paths of two different origins), at the top level, or if the
    /// builder left the slot unwritten; the caller asks the oracle then.
    #[inline]
    pub fn drop_hop(&self, u: NodeId, level: usize, from: NodeId) -> Option<DropHop> {
        if level >= self.height {
            return None;
        }
        let k = self.station(u, level + 1).binary_search(&from).ok()?;
        self.table.drop(self.table.record(u, level), k)
    }

    /// The configured special-parent level gap.
    pub fn sp_gap(&self) -> usize {
        self.sp_gap
    }

    /// Level at which the special parents of level-`ℓ` stations sit
    /// (clamped at the root level; the paper notes special parents near
    /// the root are undefined / collapse to it without harming the
    /// algorithm).
    pub fn sp_level(&self, level: usize) -> usize {
        (level + self.sp_gap).min(self.height)
    }

    /// Special parent (host of the SDL entry) for the `j`-th member of
    /// `u`'s level-`ℓ` station.
    pub fn sp_host(&self, u: NodeId, level: usize, j: usize) -> NodeId {
        let sp_station = self.station(u, self.sp_level(level));
        sp_station[j % sp_station.len()]
    }

    /// Lowest level where the detection paths of `u` and `v` share a
    /// station member (Lemma 2.1's quantity).
    pub fn meet_level(&self, u: NodeId, v: NodeId) -> usize {
        for level in 0..=self.height {
            let (a, b) = (self.station(u, level), self.station(v, level));
            // stations are sorted: linear merge intersection
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return level,
                }
            }
        }
        unreachable!("paths always share the root station")
    }

    /// `length(DPath_j(u))` per Lemma 2.2: the prefix sum of the stored
    /// hop lengths up to and including `up_to_level`.
    pub fn path_length(&self, u: NodeId, up_to_level: usize) -> f64 {
        (0..=up_to_level.min(self.height))
            .flat_map(|l| (0..self.station(u, l).len()).map(move |j| (l, j)))
            .map(|(l, j)| self.hop_in(u, l, j))
            .sum()
    }

    /// Largest station size over all nodes and levels (Observation 1
    /// bounds this by `2^{3ρ}` in the doubling model, `O(log n)` in the
    /// general model).
    pub fn max_station_size(&self) -> usize {
        (0..self.table.record_count())
            .map(|r| self.table.station(r).len())
            .max()
            .unwrap_or(0)
    }

    /// Bytes of the detection-path storage: stations, hop and drop
    /// lengths and the per-node record index, entry by entry (the level
    /// membership lists, a few bytes per node, are not counted).
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    /// Heap bytes of the whole overlay at its buffers' capacities, part
    /// by part: the level membership lists and each field of the station
    /// table. Where [`Overlay::memory_bytes`] counts what is stored, this
    /// counts what the allocator handed out for it.
    pub fn heap_bytes(&self) -> OverlayBytes {
        let lists = self.levels.iter().map(|l| l.capacity()).sum::<usize>();
        OverlayBytes {
            levels: self.levels.capacity() * std::mem::size_of::<Vec<NodeId>>()
                + lists * std::mem::size_of::<NodeId>(),
            table: self.table.heap_bytes(),
        }
    }

    /// Number of distinct (level ≥ 1) parent roles a physical node plays —
    /// the bookkeeping footprint used by the load experiments.
    pub fn parent_roles(&self, u: NodeId) -> usize {
        (1..=self.height)
            .filter(|&l| self.levels[l].binary_search(&u).is_ok())
            .count()
    }
}

/// Heap bytes of an [`Overlay`] (see [`Overlay::heap_bytes`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverlayBytes {
    /// The level membership lists.
    pub levels: usize,
    /// The station table, by field.
    pub table: TableBytes,
}

impl OverlayBytes {
    /// The lists and every table field together.
    pub fn total(&self) -> usize {
        self.levels + self.table.total()
    }
}

#[cfg(test)]
impl Overlay {
    /// Overwrites the drop into `station(u, level)` from member `k` of
    /// the station above with a single distance, or blanks it.
    pub(crate) fn corrupt_drop(&mut self, u: NodeId, level: usize, k: usize, to: Option<f32>) {
        let r = self.table.record(u, level) as u32;
        self.table
            .set_drop(r, k, DropHop::toward([to.unwrap_or(f32::NAN)]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_overlay() -> Overlay {
        // 4 bottom nodes, 3 levels: {0,1,2,3} -> {0,2} -> {0}
        let levels = vec![
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(0), NodeId(2)],
            vec![NodeId(0)],
        ];
        // Stations shared per (level, home) like the doubling builder's,
        // hop lengths as on the unit line 0 - 1 - 2 - 3.
        let mut table = StationTable::new();
        let bottom: Vec<u32> = (0..4).map(|i| table.push_record(&[NodeId(i)])).collect();
        let near = table.push_record(&[NodeId(0)]);
        let far = table.push_record(&[NodeId(0), NodeId(2)]);
        table.set_hop(far, 1, [2.0, 2.0]);
        let top = table.push_record(&[NodeId(0)]);
        for (i, &r) in bottom.iter().enumerate() {
            table.set_up(r, i as f32); // dist(i, 0)
        }
        table.set_up(far, 2.0); // dist(2, 0)

        // Drops: into [i] from the station above it, into `near` and
        // `far` from the root.
        table.push_drops(&[1, 1, 2, 2, 1, 1, 0]);
        for (i, &r) in bottom.iter().enumerate() {
            table.set_drop(r, 0, DropHop::toward([i as f32])); // dist(0, i)
        }
        table.set_drop(bottom[2], 1, DropHop::toward([0.0])); // dist(2, 2)
        table.set_drop(bottom[3], 1, DropHop::toward([1.0])); // dist(2, 3)
        table.set_drop(near, 0, DropHop::toward([0.0]));
        table.set_drop(far, 0, DropHop::toward([0.0, 2.0]));
        let index = [near, near, far, far]
            .iter()
            .zip(&bottom)
            .flat_map(|(&mid, &low)| [low, mid, top])
            .collect();
        table.set_index(3, index);
        Overlay::new(OverlayKind::Doubling, levels, table, 1)
    }

    #[test]
    fn accessors() {
        let o = toy_overlay();
        assert_eq!(o.height(), 2);
        assert_eq!(o.node_count(), 4);
        assert_eq!(o.root(), NodeId(0));
        assert_eq!(o.level_members(1), &[NodeId(0), NodeId(2)]);
        assert_eq!(o.station(NodeId(3), 1), &[NodeId(0), NodeId(2)]);
        assert_eq!(o.kind(), OverlayKind::Doubling);
    }

    #[test]
    fn sp_levels_clamp_at_root() {
        let o = toy_overlay();
        assert_eq!(o.sp_level(0), 1);
        assert_eq!(o.sp_level(1), 2);
        assert_eq!(o.sp_level(2), 2);
    }

    #[test]
    fn sp_host_pairs_by_index_with_wrap() {
        let o = toy_overlay();
        // node 3's level-1 station has two members; sp station at level 2
        // has one member -> both pair to the root.
        assert_eq!(o.sp_host(NodeId(3), 1, 0), NodeId(0));
        assert_eq!(o.sp_host(NodeId(3), 1, 1), NodeId(0));
        // level-0 station pairs into level-1 station
        assert_eq!(o.sp_host(NodeId(3), 0, 0), NodeId(0));
    }

    #[test]
    fn meet_level_via_overlay() {
        let o = toy_overlay();
        assert_eq!(o.meet_level(NodeId(0), NodeId(1)), 1);
        assert_eq!(o.meet_level(NodeId(2), NodeId(3)), 1);
        assert_eq!(o.meet_level(NodeId(1), NodeId(3)), 1); // share node 0 at level 1
    }

    #[test]
    fn hop_lengths_and_path_length_read_the_table() {
        let o = toy_overlay();
        // DPath(3) = 3 -> 0 -> 2 -> 0
        assert_eq!(o.hop_in(NodeId(3), 0, 0), 0.0);
        assert_eq!(o.hop_in(NodeId(3), 1, 0), 3.0);
        assert_eq!(o.hop_in(NodeId(3), 1, 1), 2.0);
        assert_eq!(o.hop_back(NodeId(3), 1, 1), 2.0);
        assert_eq!(o.hop_in(NodeId(3), 2, 0), 2.0);
        assert_eq!(o.path_length(NodeId(3), 0), 0.0);
        assert_eq!(o.path_length(NodeId(3), 1), 5.0);
        assert_eq!(o.path_length(NodeId(3), 2), 7.0);
        assert_eq!(o.path_length(NodeId(3), 99), 7.0, "clamped above height");
        assert_eq!(o.path_length(NodeId(1), 2), 1.0);
        assert!(o.memory_bytes() > 0);
    }

    #[test]
    fn climb_steps_walk_the_path_with_its_hops() {
        let o = toy_overlay();
        // DPath(3) = 3 -> 0 -> 2 -> 0: each step is `hop_in` of its stop.
        let mut at = (NodeId(3), 0, 0, 0.0);
        let mut walked = vec![at];
        while let Some(next) = o.climb_step(NodeId(3), at.1, at.2) {
            assert_eq!(next.3, o.hop_in(NodeId(3), next.1, next.2));
            walked.push(next);
            at = next;
        }
        let path = [
            (3, 0, 0, 0.0),
            (0, 1, 0, 3.0),
            (2, 1, 1, 2.0),
            (0, 2, 0, 2.0),
        ];
        let path = path.map(|(u, l, j, hop)| (NodeId(u), l, j, hop));
        assert_eq!(walked, path);
        assert_eq!(
            o.climb_step(NodeId(1), 2, 0),
            None,
            "the root station ends it"
        );
    }

    #[test]
    fn drops_answer_only_along_the_nodes_own_path() {
        let o = toy_overlay();
        // DPath(3) = 3 -> {0, 2} -> 0: both level-1 members drop to 3.
        let from_2 = o.drop_hop(NodeId(3), 0, NodeId(2)).unwrap();
        assert_eq!(
            (from_2.first, from_2.nearest, from_2.nearest_dist),
            (1.0, 0, 1.0)
        );
        assert_eq!(o.drop_hop(NodeId(3), 0, NodeId(0)).unwrap().first, 3.0);
        let into_far = o.drop_hop(NodeId(3), 1, NodeId(0)).unwrap();
        assert_eq!((into_far.first, into_far.nearest), (0.0, 0));
        // Node 2 is not on DPath(1) = 1 -> {0} -> 0; nothing is above
        // the root station.
        assert_eq!(o.drop_hop(NodeId(1), 0, NodeId(2)), None);
        assert_eq!(o.drop_hop(NodeId(3), 2, NodeId(0)), None);
    }

    #[test]
    fn parent_roles_counts_levels() {
        let o = toy_overlay();
        assert_eq!(o.parent_roles(NodeId(0)), 2);
        assert_eq!(o.parent_roles(NodeId(2)), 1);
        assert_eq!(o.parent_roles(NodeId(1)), 0);
        assert_eq!(o.max_station_size(), 2);
    }
}
