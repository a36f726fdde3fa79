//! The flat station table behind [`Overlay`](crate::Overlay).
//!
//! `DPath(u)` is fixed once the overlay is built, so both its stops and
//! the length of every hop between consecutive stops are constants. So
//! is every *drop*: the hop a downward walk (a prune, a query's descent)
//! takes from a member of `station(u, ℓ + 1)` into `station(u, ℓ)`. The
//! table stores them CSR-style, in eight flat vectors and two maps:
//!
//! * `members` / `hops` — every distinct station back to back; beside
//!   each member one length, `dist(prev, member)` for the member `prev`
//!   before it in the same station (zero for the first member). A
//!   message climbs a station forwards and a meet-level rollback walks
//!   it backwards, and on weighted graphs the two directions' Dijkstra
//!   sums may round to different `f32`s. So `hops_back` keeps, by member
//!   slot, the reverse length `dist(member, prev)` of exactly the
//!   members whose two directions differ in their bits; every other
//!   reverse length is the forward one. On unit-weight graphs a length
//!   is a hop count and the map stays empty; on weighted ones it holds
//!   the rare members whose sum lands on an `f32` rounding boundary
//!   from one side only (none on any seeded `random_geometric` bed
//!   tried), far fewer than a second column would store.
//! * `start` — record `r` is `members[start[r]..start[r + 1]]`.
//! * `up` — per record, `dist(last member, first member of the record
//!   above)`: the hop that carries a climb to the next level. Zero for
//!   top-level records.
//! * `index` — `n × (h + 1)` record ids, node-major, so one climb reads
//!   one contiguous run.
//! * `drop_start` / `drop_len` / `drop_at` — per record `r` one slot per
//!   member `k` of the record above it on the same detection paths
//!   (slots `drop_start[r]..drop_start[r + 1]`; none for top-level
//!   records): `[dist(above[k], r[0]), dist(above[k], nearest)]` and the
//!   position in `r` of that nearest member by `(distance, id)`. The
//!   first is what a prune walk bills entering `r`, the second what a
//!   descent bills. Which record lies above `r` is not stored: every
//!   path through `r` continues into the same one, so a reader takes it
//!   from `index`. A slot never written holds NaN and reads as absent.
//!   A position is one byte: Observation 1 bounds a station by 2^{3ρ}
//!   members (64 in the plane), but only in doubling metrics — a star's
//!   hub station holds every leaf — so positions from 255 up are kept
//!   by slot in `drop_far`, beside a 255 in `drop_at`. `drop_len` is not
//!   a direction pair: its two lengths lead to two different members.
//!
//! A station is stored once however many detection paths pass through
//! it: doubling overlays key records by `(level, home)`, general
//! overlays by `(node, level)`. Every stored length is the `f32` every
//! oracle backend quantizes through, so widening it back to `f64`
//! reproduces `oracle.dist(prev, next)` bit for bit (DESIGN.md §13).

use mot_net::{map_heap_bytes, DistanceOracle, IdMap, NodeId};

/// `[dist(prev, member), dist(member, prev)]` for one station member, as
/// the builders hand it to [`StationTable::set_hop`].
pub(crate) type Hop = [f32; 2];

/// The hop from a member of `station(u, ℓ + 1)` down into
/// `station(u, ℓ)` — see [`Overlay::drop_hop`](crate::Overlay::drop_hop).
/// Both lengths are bit-identical to what `oracle.dist` returns for the
/// pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DropHop {
    /// Distance to the first member of the lower station: what a walk
    /// that visits the whole station in order (a prune) pays to enter it.
    pub first: f64,
    /// Position in the lower station of its member nearest the source by
    /// `(distance, id)`: where a descent forwards to.
    pub nearest: usize,
    /// Distance to that member.
    pub nearest_dist: f64,
}

impl DropHop {
    /// The drop into a station given the (quantized) distance from the
    /// source to each of its members, in station order.
    pub(crate) fn toward(dists: impl IntoIterator<Item = f32>) -> Self {
        let mut dists = dists.into_iter();
        let first = dists.next().expect("a station has at least one member");
        // Stations are in id order, so the first minimum is the
        // (distance, id) minimum.
        let (mut nearest, mut nearest_dist) = (0, first);
        for (j, d) in dists.enumerate() {
            if d < nearest_dist {
                (nearest, nearest_dist) = (j + 1, d);
            }
        }
        DropHop {
            first: first as f64,
            nearest,
            nearest_dist: nearest_dist as f64,
        }
    }
}

/// See the module docs. Equal tables hold equal bits: every length is a
/// non-negative sum, so `==` on the `f32`s tells no two bit patterns
/// apart, and a slot left NaN makes a table unequal even to itself.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct StationTable {
    /// Levels per node, `h + 1`.
    stride: usize,
    index: Vec<u32>,
    start: Vec<u32>,
    members: Vec<NodeId>,
    hops: Vec<f32>,
    hops_back: IdMap<u32, f32>,
    up: Vec<f32>,
    drop_start: Vec<u32>,
    drop_len: Vec<[f32; 2]>,
    drop_at: Vec<u8>,
    drop_far: IdMap<u32, u32>,
}

/// `drop_at` of a slot whose position is in `drop_far`.
const FAR: u8 = u8::MAX;

/// The stations of a [`StationTable`], read-only: what a level pass
/// reads while it fills the same table's slots through [`Fill`].
#[derive(Clone, Copy)]
pub(crate) struct Stations<'a> {
    start: &'a [u32],
    members: &'a [NodeId],
}

impl<'a> Stations<'a> {
    /// Members of record `r`, in visiting order.
    #[inline]
    pub(crate) fn get(&self, r: usize) -> &'a [NodeId] {
        &self.members[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// Write access to every `up` and drop slot of a [`StationTable`],
/// beside its read-only [`Stations`] (see [`StationTable::split`]).
pub(crate) struct Fill<'a> {
    up: &'a mut [f32],
    drop_start: &'a [u32],
    drop_len: &'a mut [[f32; 2]],
    drop_at: &'a mut [u8],
    drop_far: &'a mut IdMap<u32, u32>,
}

impl Fill<'_> {
    /// Sets record `r`'s hop to the first member of the record above.
    pub(crate) fn set_up(&mut self, r: u32, up: f32) {
        self.up[r as usize] = up;
    }

    /// Writes the drop into record `r` from member `k` of the record
    /// above it (once: a far position is not taken back).
    pub(crate) fn set_drop(&mut self, r: u32, k: usize, hop: DropHop) {
        let (from, to) = (
            self.drop_start[r as usize] as usize,
            self.drop_start[r as usize + 1] as usize,
        );
        assert!(k < to - from, "record {r} has no drop slot {k}");
        let slot = from + k;
        self.drop_len[slot] = [hop.first as f32, hop.nearest_dist as f32];
        self.drop_at[slot] = match u8::try_from(hop.nearest) {
            Ok(at) if at < FAR => at,
            // Slots and station positions are both counted in u32.
            _ => {
                self.drop_far.insert(slot as u32, hop.nearest as u32);
                FAR
            }
        };
    }
}

impl StationTable {
    /// An empty table; records are appended with
    /// [`push_record`](Self::push_record), given drop slots in the same
    /// order with [`push_drops`](Self::push_drops), then
    /// [`set_index`](Self::set_index) closes it.
    pub(crate) fn new() -> Self {
        StationTable {
            start: vec![0],
            drop_start: vec![0],
            ..Self::default()
        }
    }

    /// Appends one station and returns its record id. Every hop length
    /// starts at zero — see [`set_hop`](Self::set_hop) and
    /// [`set_up`](Self::set_up).
    pub(crate) fn push_record(&mut self, members: &[NodeId]) -> u32 {
        let id = self.up.len();
        self.push_records(&[0, members.len() as u32], members);
        u32::try_from(id).expect("record ids fit u32 whenever offsets do")
    }

    /// Appends stations given back to back, station `i` at
    /// `members[start[i]..start[i + 1]]` (`start[0]` is 0), in one copy.
    pub(crate) fn push_records(&mut self, start: &[u32], members: &[NodeId]) {
        debug_assert_eq!(start.last().map(|&s| s as usize), Some(members.len()));
        assert!(
            start.windows(2).all(|w| w[0] < w[1]),
            "a station has at least one member"
        );
        // Every earlier push checked its end against u32.
        let offset = self.members.len() as u32;
        self.members.extend_from_slice(members);
        self.hops.resize(self.members.len(), 0.0);
        u32::try_from(self.members.len()).expect("station table exceeds u32 offsets");
        self.start.extend(start[1..].iter().map(|&s| offset + s));
        self.up.resize(self.up.len() + start.len() - 1, 0.0);
    }

    /// Sets the hop pair of member `j ≥ 1` of record `r`: the forward
    /// length, and the reverse one only where its bits differ.
    pub(crate) fn set_hop(&mut self, r: u32, j: usize, [fwd, back]: Hop) {
        debug_assert!(j > 0 && j < self.station(r as usize).len());
        let slot = self.start[r as usize] + j as u32;
        self.hops[slot as usize] = fwd;
        if back.to_bits() != fwd.to_bits() {
            self.hops_back.insert(slot, back);
        } else if !self.hops_back.is_empty() {
            self.hops_back.remove(&slot);
        }
    }

    /// Sets record `r`'s hop to the first member of the record above.
    pub(crate) fn set_up(&mut self, r: u32, up: f32) {
        self.up[r as usize] = up;
    }

    /// The stations, read-only, beside write access to every `up` and
    /// drop slot: a level's ball pass reads the first on every thread
    /// while the calling thread fills the second.
    pub(crate) fn split(&mut self) -> (Stations<'_>, Fill<'_>) {
        let stations = Stations {
            start: &self.start,
            members: &self.members,
        };
        let fill = Fill {
            up: &mut self.up,
            drop_start: &self.drop_start,
            drop_len: &mut self.drop_len,
            drop_at: &mut self.drop_at,
            drop_far: &mut self.drop_far,
        };
        (stations, fill)
    }

    /// Makes room for exactly `slots` more drop slots over `records`
    /// more records, so opening them one record at a time
    /// ([`push_drops`](Self::push_drops)) does not reallocate at each.
    pub(crate) fn reserve_drops(&mut self, records: usize, slots: usize) {
        self.drop_start.reserve_exact(records);
        self.drop_len.reserve_exact(slots);
        self.drop_at.reserve_exact(slots);
    }

    /// Opens the drop slots of the next records that have none yet, one
    /// record per entry of `above_lens`: one slot per member of the
    /// record above it (`0` for a top-level record), all absent until
    /// [`set_drop`](Self::set_drop) writes them. A whole level's slots
    /// are sized and opened in one call.
    pub(crate) fn push_drops(&mut self, above_lens: &[usize]) {
        debug_assert!(self.drop_start.len() + above_lens.len() <= self.record_count() + 1);
        let slots: usize = above_lens.iter().sum();
        self.reserve_drops(above_lens.len(), slots);
        let mut end = self.drop_len.len();
        self.drop_start.extend(above_lens.iter().map(|&len| {
            end += len;
            u32::try_from(end).expect("station table exceeds u32 offsets")
        }));
        self.drop_len.resize(end, [f32::NAN; 2]);
        self.drop_at.resize(end, 0);
    }

    /// Writes the drop into record `r` from member `k` of the record
    /// above it.
    pub(crate) fn set_drop(&mut self, r: u32, k: usize, hop: DropHop) {
        self.split().1.set_drop(r, k, hop);
    }

    /// Closes the table with the node-major index: the record of
    /// `(node, level)` at `index[node * stride + level]`.
    pub(crate) fn set_index(&mut self, stride: usize, index: Vec<u32>) {
        debug_assert_eq!(index.len() % stride, 0);
        debug_assert_eq!(self.drop_start.len(), self.record_count() + 1);
        self.stride = stride;
        self.index = index;
    }

    /// One record per `(node, level)`, every hop and drop read from the
    /// oracle: the general builder's fill (and the validator tests'). Nodes
    /// whose paths share stations repeat the same pairs, so each distinct
    /// pair is asked once (on the on-demand backend every read is a solve).
    pub(crate) fn from_oracle(stations: &[Vec<Vec<NodeId>>], m: &dyn DistanceOracle) -> Self {
        let mut memo: IdMap<(NodeId, NodeId), f32> = IdMap::default();
        let mut dist = |a, b| *memo.entry((a, b)).or_insert_with(|| m.dist(a, b) as f32);
        let stride = stations[0].len();
        let mut t = Self::new();
        t.stride = stride;
        let slots = stations.iter().flat_map(|path| &path[1..]).map(Vec::len);
        t.reserve_drops(stations.len() * stride, slots.sum());
        for path in stations {
            debug_assert_eq!(path.len(), stride);
            for (level, station) in path.iter().enumerate() {
                let r = t.push_record(station);
                for (j, w) in station.windows(2).enumerate() {
                    t.set_hop(r, j + 1, [dist(w[0], w[1]), dist(w[1], w[0])]);
                }
                let above = path.get(level + 1).map_or(&[][..], Vec::as_slice);
                if let Some(&first) = above.first() {
                    let last = *station.last().expect("stations are non-empty");
                    t.set_up(r, dist(last, first));
                }
                t.push_drops(&[above.len()]);
                for (k, &from) in above.iter().enumerate() {
                    let dists = station.iter().map(|&to| dist(from, to));
                    t.set_drop(r, k, DropHop::toward(dists));
                }
                t.index.push(r);
            }
        }
        t
    }

    /// Number of bottom nodes indexed.
    pub(crate) fn node_count(&self) -> usize {
        self.index.len() / self.stride.max(1)
    }

    /// Record id of `station(u, level)`.
    #[inline]
    pub(crate) fn record(&self, u: NodeId, level: usize) -> usize {
        debug_assert!(level < self.stride);
        self.index[u.index() * self.stride + level] as usize
    }

    /// Record ids of `u`'s stations, level 0 first: `u`'s index row.
    #[inline]
    pub(crate) fn records(&self, u: NodeId) -> &[u32] {
        &self.index[u.index() * self.stride..][..self.stride]
    }

    /// Members of record `r`, in visiting order.
    #[inline]
    pub(crate) fn station(&self, r: usize) -> &[NodeId] {
        self.stations().get(r)
    }

    /// Every station, read-only.
    #[inline]
    pub(crate) fn stations(&self) -> Stations<'_> {
        Stations {
            start: &self.start,
            members: &self.members,
        }
    }

    /// Forward hop lengths of record `r`, parallel to
    /// [`station`](Self::station).
    #[inline]
    pub(crate) fn hops(&self, r: usize) -> &[f32] {
        &self.hops[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// The reverse hop from member `j` of record `r` back to member
    /// `j - 1`.
    #[inline]
    pub(crate) fn hop_back(&self, r: usize, j: usize) -> f32 {
        let slot = self.start[r] as usize + j;
        match self.hops_back.get(&(slot as u32)) {
            Some(&back) => back,
            None => self.hops[slot],
        }
    }

    /// Hop from record `r`'s last member to the record above.
    #[inline]
    pub(crate) fn up(&self, r: usize) -> f32 {
        self.up[r]
    }

    #[inline]
    fn drop_range(&self, r: usize) -> (usize, usize) {
        (self.drop_start[r] as usize, self.drop_start[r + 1] as usize)
    }

    /// The drop into record `r` from member `k` of the record above it;
    /// `None` if the slot does not exist or was never written.
    #[inline]
    pub(crate) fn drop(&self, r: usize, k: usize) -> Option<DropHop> {
        let (from, to) = self.drop_range(r);
        let slot = from + k;
        if slot >= to {
            return None;
        }
        let [first, nearest_dist] = self.drop_len[slot];
        (!first.is_nan()).then(|| DropHop {
            first: first as f64,
            nearest: match self.drop_at[slot] {
                FAR => self.drop_far[&(slot as u32)] as usize,
                at => at as usize,
            },
            nearest_dist: nearest_dist as f64,
        })
    }

    /// Number of distinct stations stored.
    pub(crate) fn record_count(&self) -> usize {
        self.up.len()
    }

    /// Bytes of what the eight vectors and the two maps store, entry by
    /// entry.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.len() * size_of::<u32>()
            + self.start.len() * size_of::<u32>()
            + self.members.len() * size_of::<NodeId>()
            + self.hops.len() * size_of::<f32>()
            + self.hops_back.len() * size_of::<(u32, f32)>()
            + self.up.len() * size_of::<f32>()
            + self.drop_start.len() * size_of::<u32>()
            + self.drop_len.len() * size_of::<[f32; 2]>()
            + self.drop_at.len() * size_of::<u8>()
            + self.drop_far.len() * size_of::<(u32, u32)>()
    }

    /// Heap bytes of each vector and map at its capacity: what the
    /// allocator handed out for them.
    pub(crate) fn heap_bytes(&self) -> TableBytes {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        TableBytes {
            index: vec(&self.index),
            start: vec(&self.start),
            members: vec(&self.members),
            hops: vec(&self.hops),
            hops_back: map_heap_bytes(&self.hops_back),
            up: vec(&self.up),
            drop_start: vec(&self.drop_start),
            drop_len: vec(&self.drop_len),
            drop_at: vec(&self.drop_at),
            drop_far: map_heap_bytes(&self.drop_far),
        }
    }
}

/// Heap bytes of a station table, field by field (see
/// [`Overlay::heap_bytes`](crate::Overlay::heap_bytes) and DESIGN.md
/// §13 for what each holds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableBytes {
    /// The node-major record index, one `u32` per node and level.
    pub index: usize,
    /// Each record's first member.
    pub start: usize,
    /// Every station's members, back to back.
    pub members: usize,
    /// One forward hop length per member.
    pub hops: usize,
    /// The reverse hop lengths that differ from the forward ones, by
    /// member slot: 0 on unit-weight graphs.
    pub hops_back: usize,
    /// Each record's hop up to the record above.
    pub up: usize,
    /// Each record's first drop slot.
    pub drop_start: usize,
    /// Per drop slot, the lengths to the first and the nearest member.
    pub drop_len: usize,
    /// Per drop slot, the nearest member's position.
    pub drop_at: usize,
    /// The positions from 255 up, by slot.
    pub drop_far: usize,
}

impl TableBytes {
    /// The sum over the fields.
    pub fn total(&self) -> usize {
        self.index
            + self.start
            + self.members
            + self.hops
            + self.hops_back
            + self.up
            + self.drop_start
            + self.drop_len
            + self.drop_at
            + self.drop_far
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_net::{generators, DenseOracle};

    #[test]
    fn pushed_records_read_back_through_the_index() {
        let mut t = StationTable::new();
        let a = t.push_record(&[NodeId(3)]);
        let b = t.push_record(&[NodeId(1), NodeId(5)]);
        t.set_hop(b, 1, [4.0, 4.5]);
        t.set_up(a, 2.0);
        t.push_drops(&[2, 0]);
        t.set_drop(a, 1, DropHop::toward([7.0]));
        t.set_index(2, vec![a, b, a, b]);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.record_count(), 2);
        let r = t.record(NodeId(1), 1);
        assert_eq!(t.station(r), &[NodeId(1), NodeId(5)]);
        assert_eq!(t.hops(r), &[0.0, 4.0]);
        assert_eq!(t.hop_back(r, 1), 4.5);
        assert_eq!(t.up(t.record(NodeId(0), 0)), 2.0);
        assert_eq!(t.up(r), 0.0);
        assert_eq!(t.drop(a as usize, 0), None, "opened but never written");
        assert_eq!(t.drop(a as usize, 1).map(|d| d.first), Some(7.0));
        assert_eq!(t.drop(a as usize, 2), None, "past the record above");
        assert_eq!(t.drop(b as usize, 0), None, "top-level records have none");
        // index 2×2 + start 3 + members 3 + drop_start 3 (u32 each),
        // hops 3×4, one reverse hop 8, up 2×4, drops 2×(8 + 1)
        assert_eq!(
            t.memory_bytes(),
            (4 + 3 + 3 + 3) * 4 + 3 * 4 + 8 + 2 * 4 + 2 * 9
        );
        // An equal reverse length takes its exception back.
        t.set_hop(b, 1, [4.0, 4.0]);
        assert_eq!(t.hop_back(r, 1), 4.0);
        assert_eq!(
            t.memory_bytes(),
            (4 + 3 + 3 + 3) * 4 + 3 * 4 + 2 * 4 + 2 * 9
        );
    }

    #[test]
    fn a_drop_keeps_the_first_and_the_nearest_member_by_distance_then_id() {
        let mut t = StationTable::new();
        let r = t.push_record(&[NodeId(2), NodeId(4), NodeId(6), NodeId(9)]);
        t.push_drops(&[1]);
        t.set_drop(r, 0, DropHop::toward([5.0, 3.0, 3.0, 8.0]));
        let want = DropHop {
            first: 5.0,
            nearest: 1,
            nearest_dist: 3.0,
        };
        assert_eq!(t.drop(r as usize, 0), Some(want));
    }

    #[test]
    fn positions_past_a_byte_read_back() {
        let mut t = StationTable::new();
        let members: Vec<NodeId> = (0..300).map(NodeId).collect();
        let r = t.push_record(&members);
        t.push_drops(&[4]);
        for (k, nearest) in [254, 255, 256, 299].into_iter().enumerate() {
            let dists = (0..300).map(|j| if j == nearest { 1.0 } else { 2.0 });
            t.set_drop(r, k, DropHop::toward(dists));
        }
        let at = |k| t.drop(r as usize, k).map(|d| d.nearest);
        assert_eq!([at(0), at(1), at(2), at(3)], [254, 255, 256, 299].map(Some));
        assert_eq!(t.drop_far.len(), 3, "only positions from 255 up are far");
    }

    #[test]
    fn oracle_fill_stores_every_hop_of_the_walk() {
        let g = generators::line(10).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let stations = vec![vec![
            vec![NodeId(0)],
            vec![NodeId(2), NodeId(5)],
            vec![NodeId(6)],
        ]];
        let t = StationTable::from_oracle(&stations, &m);
        assert_eq!((t.node_count(), t.record_count()), (1, 3));
        assert_eq!(t.up(t.record(NodeId(0), 0)), 2.0);
        assert_eq!(t.hops(t.record(NodeId(0), 1))[1], 3.0);
        assert_eq!(t.hop_back(t.record(NodeId(0), 1), 1), 3.0);
        assert_eq!(t.heap_bytes().hops_back, 0, "a line's hops are symmetric");
        assert_eq!(t.up(t.record(NodeId(0), 1)), 1.0);
        assert_eq!(t.up(t.record(NodeId(0), 2)), 0.0);
        // Into [0] from 2 and from 5; into [2, 5] from 6.
        let drop = |level, k| t.drop(t.record(NodeId(0), level), k).unwrap();
        assert_eq!((drop(0, 0).first, drop(0, 1).first), (2.0, 5.0));
        let into_mid = DropHop {
            first: 4.0,
            nearest: 1,
            nearest_dist: 1.0,
        };
        assert_eq!(drop(1, 0), into_mid);
        assert_eq!(t.drop(t.record(NodeId(0), 2), 0), None);
    }
}
