//! The flat station table behind [`Overlay`](crate::Overlay).
//!
//! `DPath(u)` is fixed once the overlay is built, so both its stops and
//! the length of every hop between consecutive stops are constants. The
//! table stores them CSR-style, in five flat vectors:
//!
//! * `members` / `hops` — every distinct station back to back; beside
//!   each member the pair `[dist(prev, member), dist(member, prev)]`
//!   for the member `prev` before it in the same station (both
//!   directions: a message climbs a station forwards, a meet-level
//!   rollback walks it backwards, and the two Dijkstra sums may round
//!   differently on weighted graphs). The first member's pair is zero.
//! * `start` — record `r` is `members[start[r]..start[r + 1]]`.
//! * `up` — per record, `dist(last member, first member of the record
//!   above)`: the hop that carries a climb to the next level. Zero for
//!   top-level records.
//! * `index` — `n × (h + 1)` record ids, node-major, so one climb reads
//!   one contiguous run.
//!
//! A station is stored once however many detection paths pass through
//! it: doubling overlays key records by `(level, home)`, general
//! overlays by `(node, level)`. Every stored length is the `f32` every
//! oracle backend quantizes through, so widening it back to `f64`
//! reproduces `oracle.dist(prev, next)` bit for bit (DESIGN.md §13).

use mot_net::{DistanceOracle, NodeId};

/// `[dist(prev, member), dist(member, prev)]` for one station member.
pub(crate) type Hop = [f32; 2];

/// See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct StationTable {
    /// Levels per node, `h + 1`.
    stride: usize,
    index: Vec<u32>,
    start: Vec<u32>,
    members: Vec<NodeId>,
    hops: Vec<Hop>,
    up: Vec<f32>,
}

impl StationTable {
    /// An empty table; records are appended with
    /// [`push_record`](Self::push_record), then
    /// [`set_index`](Self::set_index) closes it.
    pub(crate) fn new() -> Self {
        StationTable {
            start: vec![0],
            ..Self::default()
        }
    }

    /// Appends one station and returns its record id. Every hop length
    /// starts at zero — see [`set_hop`](Self::set_hop) and
    /// [`set_up`](Self::set_up).
    pub(crate) fn push_record(&mut self, members: &[NodeId]) -> u32 {
        assert!(!members.is_empty(), "a station has at least one member");
        let id = self.up.len();
        self.members.extend_from_slice(members);
        self.hops.resize(self.members.len(), [0.0; 2]);
        let end = u32::try_from(self.members.len()).expect("station table exceeds u32 offsets");
        self.start.push(end);
        self.up.push(0.0);
        u32::try_from(id).expect("record ids fit u32 whenever offsets do")
    }

    /// Sets the hop pair of member `j ≥ 1` of record `r`.
    pub(crate) fn set_hop(&mut self, r: u32, j: usize, hop: Hop) {
        debug_assert!(j > 0 && j < self.station(r as usize).len());
        self.hops[self.start[r as usize] as usize + j] = hop;
    }

    /// Sets record `r`'s hop to the first member of the record above.
    pub(crate) fn set_up(&mut self, r: u32, up: f32) {
        self.up[r as usize] = up;
    }

    /// Closes the table with the record of every `(node, level)`:
    /// `columns[level][node]`, transposed into the node-major index.
    pub(crate) fn set_index(&mut self, columns: &[Vec<u32>]) {
        let n = columns[0].len();
        self.stride = columns.len();
        self.index = (0..n)
            .flat_map(|u| columns.iter().map(move |col| col[u]))
            .collect();
    }

    /// One record per `(node, level)`, every hop read from the oracle:
    /// the fill of the builders that hold precomputed rows.
    pub(crate) fn from_oracle(stations: &[Vec<Vec<NodeId>>], m: &dyn DistanceOracle) -> Self {
        let stride = stations[0].len();
        let mut t = Self::new();
        t.stride = stride;
        for path in stations {
            debug_assert_eq!(path.len(), stride);
            for (level, station) in path.iter().enumerate() {
                let r = t.push_record(station);
                for (j, w) in station.windows(2).enumerate() {
                    let hop = [m.dist(w[0], w[1]) as f32, m.dist(w[1], w[0]) as f32];
                    t.set_hop(r, j + 1, hop);
                }
                if let Some(above) = path.get(level + 1) {
                    let last = *station.last().expect("stations are non-empty");
                    t.set_up(r, m.dist(last, above[0]) as f32);
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

    /// Members of record `r`, in visiting order.
    #[inline]
    pub(crate) fn station(&self, r: usize) -> &[NodeId] {
        &self.members[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// Hop pairs of record `r`, parallel to [`station`](Self::station).
    #[inline]
    pub(crate) fn hops(&self, r: usize) -> &[Hop] {
        &self.hops[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// Hop from record `r`'s last member to the record above.
    #[inline]
    pub(crate) fn up(&self, r: usize) -> f32 {
        self.up[r]
    }

    /// Number of distinct stations stored.
    pub(crate) fn record_count(&self) -> usize {
        self.up.len()
    }

    /// Heap bytes of the five vectors.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.index.len() * size_of::<u32>()
            + self.start.len() * size_of::<u32>()
            + self.members.len() * size_of::<NodeId>()
            + self.hops.len() * size_of::<Hop>()
            + self.up.len() * size_of::<f32>()
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
        t.set_index(&[vec![a, a], vec![b, b]]);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.record_count(), 2);
        let r = t.record(NodeId(1), 1);
        assert_eq!(t.station(r), &[NodeId(1), NodeId(5)]);
        assert_eq!(t.hops(r), &[[0.0, 0.0], [4.0, 4.5]]);
        assert_eq!(t.up(t.record(NodeId(0), 0)), 2.0);
        assert_eq!(t.up(r), 0.0);
        // index 2×2 + start 3 + members 3 (u32 each), hops 3×8, up 2×4
        assert_eq!(t.memory_bytes(), (4 + 3 + 3) * 4 + 3 * 8 + 2 * 4);
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
        assert_eq!(t.hops(t.record(NodeId(0), 1))[1], [3.0, 3.0]);
        assert_eq!(t.up(t.record(NodeId(0), 1)), 1.0);
        assert_eq!(t.up(t.record(NodeId(0), 2)), 0.0);
    }
}
