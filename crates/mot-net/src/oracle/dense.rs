//! Dense all-pairs backend.
//!
//! Hierarchy construction repeatedly asks "which nodes lie within `2^ℓ`
//! of `u`?" and every cost account is a sum of `dist_G(·,·)` terms, so
//! this backend precomputes the full distance matrix once per topology.
//! Sources are solved with Dijkstra in parallel across
//! `std::thread::scope` workers; entries are stored as `f32` (1024² ⇒
//! 4 MiB, 4096² ⇒ 64 MiB) which is far more precision than the
//! unit-normalized weights require.
//!
//! Since the on-demand backend took over past
//! [`OracleKind::DENSE_NODE_LIMIT`](super::OracleKind::DENSE_NODE_LIMIT),
//! this backend's main role is the **opt-in parity verifier**:
//! [`CachedOracle`](super::CachedOracle) quantizes through the same
//! `f32` pipeline, and the differential suites (`--oracle dense` on the
//! CLI, `oracle_differential` / `backend_parity` / `golden_costs` in
//! the tree) pin it bit-identical to the matrix computed here.
//!
//! `ball` queries go through a per-source sorted-by-distance index,
//! built lazily on first touch and cached, so each query is a binary
//! search + slice instead of an O(n) scan.

use std::sync::OnceLock;

use super::DistanceOracle;
use crate::error::NetError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::workspace::DijkstraWorkspace;
use crate::Result;

/// Symmetric all-pairs shortest-path distance matrix.
#[derive(Debug)]
/// # Example
///
/// ```
/// use mot_net::{generators, DenseOracle, DistanceOracle, NodeId};
///
/// let g = generators::grid(4, 4)?;
/// let m = DenseOracle::build(&g)?;
/// // Exact everything: distances, diameter, memory = n² f32 entries.
/// assert_eq!(m.diameter(), 6.0);
/// assert_eq!(m.memory_bytes(), 16 * 16 * 4);
/// # Ok::<(), mot_net::NetError>(())
/// ```
pub struct DenseOracle {
    n: usize,
    data: Vec<f32>,
    diameter: f64,
    /// [`Graph::generation`] at build time. The dense matrix has no
    /// incremental repair path (every row is a function of the whole
    /// topology): under churn it is the **rebuild-only verifier** — the
    /// differential suites rebuild it on the mutated topology and
    /// compare the on-demand backend against it bit for bit (DESIGN.md
    /// §17).
    built_generation: u64,
    /// Per-source `(dist, node)` pairs sorted ascending, built lazily:
    /// most sources never serve a `ball` query, and hierarchy
    /// construction only probes a subset per level.
    index: Vec<OnceLock<Vec<(f32, u32)>>>,
}

impl Clone for DenseOracle {
    fn clone(&self) -> Self {
        // OnceLock is not Clone through shared state we want to carry;
        // the sorted indexes rebuild lazily, so a clone starts cold.
        DenseOracle {
            n: self.n,
            data: self.data.clone(),
            diameter: self.diameter,
            built_generation: self.built_generation,
            index: std::iter::repeat_with(OnceLock::new).take(self.n).collect(),
        }
    }
}

impl DenseOracle {
    /// Computes all-pairs shortest paths for a connected graph, in
    /// parallel. Fails with [`NetError::Disconnected`] otherwise.
    pub fn build(g: &Graph) -> Result<Self> {
        if g.node_count() == 0 {
            return Err(NetError::EmptyGraph);
        }
        if !g.is_connected() {
            return Err(NetError::Disconnected);
        }
        let n = g.node_count();
        let mut data = vec![0f32; n * n];
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1));
        let rows_per = n.div_ceil(threads);
        std::thread::scope(|s| {
            for (chunk_idx, chunk) in data.chunks_mut(rows_per * n).enumerate() {
                let start = chunk_idx * rows_per;
                s.spawn(move || {
                    // One workspace per worker: after the first row, each
                    // source solve reuses the same dist/heap buffers. A
                    // row is distances only, so it is an unbounded ball.
                    let mut ws = DijkstraWorkspace::with_capacity(n);
                    for (row_off, row) in chunk.chunks_mut(n).enumerate() {
                        let src = NodeId::from_index(start + row_off);
                        ws.bounded_ball(g, src, f64::INFINITY);
                        for (v, cell) in row.iter_mut().enumerate() {
                            *cell = ws.dist(NodeId::from_index(v)) as f32;
                        }
                    }
                });
            }
        });
        // Mutated graphs carry +∞ entries for inactive pairs; the
        // diameter ranges over the reachable (active) pairs.
        let diameter = data
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0f32, f32::max) as f64;
        let index = std::iter::repeat_with(OnceLock::new).take(n).collect();
        Ok(DenseOracle {
            n,
            data,
            diameter,
            built_generation: g.generation(),
            index,
        })
    }

    /// The graph mutation generation this matrix was computed at.
    /// There is deliberately no `apply_delta` here: a fresh
    /// [`DenseOracle::build`] on the mutated topology is the ground
    /// truth that the on-demand backend (after its own `apply_delta`)
    /// and the hierarchy's repair path are verified against.
    #[inline]
    pub fn built_generation(&self) -> u64 {
        self.built_generation
    }

    #[inline]
    fn row(&self, u: NodeId) -> &[f32] {
        &self.data[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// The sorted-by-(distance, id) view of `u`'s row, built on first
    /// use.
    fn sorted_row(&self, u: NodeId) -> &[(f32, u32)] {
        self.index[u.index()].get_or_init(|| {
            let mut sorted: Vec<(f32, u32)> = self
                .row(u)
                .iter()
                .enumerate()
                .map(|(i, &d)| (d, i as u32))
                .collect();
            sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            sorted
        })
    }

    /// Number of nodes covered by the matrix.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Shortest-path distance between `u` and `v`.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.data[u.index() * self.n + v.index()] as f64
    }

    /// Network diameter `D = max_{u,v} dist(u, v)` (exact).
    #[inline]
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// All nodes within distance `r` of `u` (inclusive; includes `u`) —
    /// the paper's `k`-neighborhood `N(u, r)` — sorted by distance,
    /// ties by node id.
    pub fn ball(&self, u: NodeId, r: f64) -> Vec<NodeId> {
        let sorted = self.sorted_row(u);
        let cut = sorted.partition_point(|&(d, _)| (d as f64) <= r);
        sorted[..cut].iter().map(|&(_, i)| NodeId(i)).collect()
    }

    /// See [`DistanceOracle::ball_into`]: the ball prefix copied into a
    /// reused buffer.
    pub fn ball_into(&self, u: NodeId, r: f64, out: &mut Vec<NodeId>) {
        let sorted = self.sorted_row(u);
        let cut = sorted.partition_point(|&(d, _)| (d as f64) <= r);
        out.clear();
        out.extend(sorted[..cut].iter().map(|&(_, i)| NodeId(i)));
    }

    /// Number of nodes within distance `r` of `u` (inclusive).
    pub fn ball_size(&self, u: NodeId, r: f64) -> usize {
        self.sorted_row(u)
            .partition_point(|&(d, _)| (d as f64) <= r)
    }

    /// See [`DistanceOracle::nearest_in`].
    pub fn nearest_in(&self, u: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        DistanceOracle::nearest_in(self, u, candidates)
    }

    /// See [`DistanceOracle::walk_length`].
    pub fn walk_length(&self, walk: &[NodeId]) -> f64 {
        DistanceOracle::walk_length(self, walk)
    }

    /// Heap footprint of the matrix plus any built index rows, in
    /// bytes — the number the cached backend is competing against.
    pub fn memory_bytes(&self) -> usize {
        let matrix = self.data.len() * std::mem::size_of::<f32>();
        let built: usize = self
            .index
            .iter()
            .filter_map(|l| l.get())
            .map(|v| v.len() * std::mem::size_of::<(f32, u32)>())
            .sum();
        matrix + built
    }
}

impl DistanceOracle for DenseOracle {
    fn node_count(&self) -> usize {
        DenseOracle::node_count(self)
    }

    fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        DenseOracle::dist(self, u, v)
    }

    fn diameter(&self) -> f64 {
        DenseOracle::diameter(self)
    }

    fn ball(&self, u: NodeId, r: f64) -> Vec<NodeId> {
        DenseOracle::ball(self, u, r)
    }

    fn ball_size(&self, u: NodeId, r: f64) -> usize {
        DenseOracle::ball_size(self, u, r)
    }

    fn ball_into(&self, u: NodeId, r: f64, out: &mut Vec<NodeId>) {
        DenseOracle::ball_into(self, u, r, out)
    }

    fn memory_bytes(&self) -> usize {
        DenseOracle::memory_bytes(self)
    }

    /// The matrix and built ball rows, plus the index's per-source
    /// slots, built or not.
    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
            + self.index.capacity() * std::mem::size_of::<OnceLock<Vec<(f32, u32)>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::generators;

    #[test]
    fn matrix_matches_per_source_dijkstra() {
        let g = generators::grid(6, 5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        for s in g.nodes() {
            let d = dijkstra(&g, s);
            for t in g.nodes() {
                assert!(
                    (m.dist(s, t) - d[t.index()]).abs() < 1e-5,
                    "({s},{t}): {} vs {}",
                    m.dist(s, t),
                    d[t.index()]
                );
            }
        }
    }

    #[test]
    fn symmetric_and_zero_diagonal() {
        let g = generators::random_geometric(60, 8.0, 2.0, 3).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        for u in g.nodes() {
            assert_eq!(m.dist(u, u), 0.0);
            for v in g.nodes() {
                assert!((m.dist(u, v) - m.dist(v, u)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn grid_diameter_is_manhattan_extent() {
        let g = generators::grid(8, 8).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        assert_eq!(m.diameter(), 14.0);
    }

    #[test]
    fn ball_queries() {
        let g = generators::grid(5, 5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let center = NodeId(12); // (2,2)
        let b1 = m.ball(center, 1.0);
        assert_eq!(b1.len(), 5); // self + 4 neighbors
        assert!(b1.contains(&center));
        assert_eq!(m.ball_size(center, 0.0), 1);
        assert_eq!(m.ball_size(center, 100.0), 25);
    }

    #[test]
    fn ball_is_sorted_by_distance_then_id() {
        let g = generators::grid(5, 5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let b = m.ball(NodeId(12), 2.0);
        assert_eq!(b[0], NodeId(12)); // distance 0 first
        for w in b.windows(2) {
            let (da, db) = (m.dist(NodeId(12), w[0]), m.dist(NodeId(12), w[1]));
            assert!(da < db || (da == db && w[0] < w[1]), "{w:?} out of order");
        }
    }

    #[test]
    fn ball_index_agrees_with_linear_scan() {
        let g = generators::random_geometric(40, 8.0, 2.5, 11).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        for u in g.nodes() {
            for r in [0.0, 0.5, 1.0, 2.5, 7.0, m.diameter()] {
                let via_index: std::collections::HashSet<_> = m.ball(u, r).into_iter().collect();
                let via_scan: std::collections::HashSet<_> =
                    g.nodes().filter(|&v| m.dist(u, v) <= r).collect();
                assert_eq!(via_index, via_scan, "u = {u}, r = {r}");
                assert_eq!(m.ball_size(u, r), via_scan.len(), "u = {u}, r = {r}");
            }
        }
    }

    #[test]
    fn nearest_in_breaks_ties_by_id() {
        let g = generators::grid(3, 3).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        // nodes 1 and 3 are both at distance 1 from node 0
        let got = m.nearest_in(NodeId(0), &[NodeId(3), NodeId(1)]);
        assert_eq!(got, Some(NodeId(1)));
        assert_eq!(m.nearest_in(NodeId(0), &[]), None);
    }

    #[test]
    fn walk_length_sums_hops() {
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let walk = [NodeId(0), NodeId(4), NodeId(2)];
        assert_eq!(m.walk_length(&walk), 4.0 + 2.0);
        assert_eq!(m.walk_length(&[NodeId(3)]), 0.0);
        assert_eq!(m.walk_length(&[]), 0.0);
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = crate::builder::GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build_unchecked();
        assert!(matches!(
            DenseOracle::build(&g),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn memory_accounting_counts_matrix_and_index() {
        let g = generators::grid(4, 4).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let base = m.memory_bytes();
        assert_eq!(base, 16 * 16 * 4);
        m.ball(NodeId(0), 2.0); // builds one index row
        assert_eq!(m.memory_bytes(), base + 16 * 8);
    }
}
