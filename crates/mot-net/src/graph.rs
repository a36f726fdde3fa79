//! The weighted sensor-network graph `G = (V, E, w)`.
//!
//! # Memory layout
//!
//! The graph is stored in compressed-sparse-row (CSR) form: one flat
//! array of packed half-[`Edge`]s plus a `u32` offset per node
//! (`neighbors(u)` is the slice `edges[offsets[u]..offsets[u+1]]`).
//! Every shortest-path run — and therefore every oracle row, hierarchy
//! radius query, and cost account in the suite — iterates neighbor
//! lists, so they are contiguous in memory instead of one heap
//! allocation per node. See DESIGN.md §13.
//!
//! Beside the arrays the graph carries one fact about its weights,
//! [`Graph::is_unit_weight`], which is all the shortest-path kernel
//! needs to skip its heap on the paper's unit grids.

use crate::error::NetError;
use crate::node::{NodeId, Point};
use crate::Result;

/// A weighted half-edge stored in a node's adjacency row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// The neighbor this half-edge points to.
    pub to: NodeId,
    /// Normalized distance between the two adjacent sensors (`w` in the
    /// paper). Always finite and strictly positive.
    pub weight: f64,
}

/// A connected, undirected, weighted graph of sensor nodes.
///
/// Construction goes through [`crate::GraphBuilder`] (or a generator in
/// [`crate::generators`]), which validates weights and rejects duplicate
/// edges. The built graph is the paper's static network model; §7-style
/// topology churn is layered on as *generation-stamped mutation*:
/// [`Graph::remove_node`] deactivates a sensor and strips its incident
/// edges, [`Graph::restore_node`] brings one back with an explicit edge
/// star. Node ids are stable across leave/rejoin, every mutation bumps
/// [`Graph::generation`], and each affected node records the generation
/// that last touched it ([`Graph::node_generation`]) so caches built
/// against an older generation can invalidate precisely (DESIGN.md §17).
///
/// Internally the adjacency structure is a flat CSR array (see the
/// module docs), but the API is unchanged from the per-node
/// representation: [`Graph::neighbors`] still hands out a `&[Edge]`
/// slice per node. A never-mutated graph pays one predictable branch
/// per `neighbors` call; mutated rows live in per-node patch vectors
/// layered over the immutable CSR base.
///
/// # Example
///
/// Neighbor iteration is a contiguous-slice walk — the hot loop of
/// every shortest-path computation in the suite:
///
/// ```
/// use mot_net::{generators, NodeId};
///
/// let g = generators::grid(3, 3)?; // unit 3×3 grid
/// let center = NodeId(4);
/// // The adjacency row is a plain slice, sorted by neighbor id.
/// let row = g.neighbors(center);
/// assert_eq!(row.len(), 4);
/// assert!(row.windows(2).all(|w| w[0].to < w[1].to));
/// // Summing weights over a row touches one contiguous cache run.
/// let total: f64 = row.iter().map(|e| e.weight).sum();
/// assert_eq!(total, 4.0);
/// # Ok::<(), mot_net::NetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR row offsets: node `u`'s half-edges live at
    /// `edges[offsets[u] as usize..offsets[u + 1] as usize]`.
    /// `offsets.len() == node_count() + 1`.
    offsets: Vec<u32>,
    /// All half-edges, packed row by row (each undirected edge appears
    /// twice, once per endpoint).
    edges: Vec<Edge>,
    positions: Option<Vec<Point>>,
    edge_count: usize,
    /// See [`Graph::is_unit_weight`]. Set by whoever held the weights at
    /// construction; never derived by a scan of its own.
    unit_weight: bool,
    /// Mutation overlay; `None` until the first `remove_node` /
    /// `restore_node` so static graphs stay branch-predictable and pay
    /// no extra memory.
    dyn_state: Option<Box<DynState>>,
}

/// Copy-on-write mutation overlay for a [`Graph`]. Rows that a mutation
/// touched are shadowed by owned vectors; untouched rows keep serving
/// straight from the CSR base.
#[derive(Clone, Debug)]
struct DynState {
    /// `patch[u] = Some(row)` shadows the CSR row of `u`.
    patch: Vec<Option<Vec<Edge>>>,
    /// `true` while the node is removed from the topology.
    inactive: Vec<bool>,
    inactive_count: usize,
    /// Monotone mutation counter; starts at 1 on the first mutation.
    generation: u64,
    /// Per-node stamp of the generation that last changed its row.
    touched: Vec<u64>,
}

impl Graph {
    pub(crate) fn from_parts(
        adjacency: Vec<Vec<Edge>>,
        positions: Option<Vec<Point>>,
        edge_count: usize,
        unit_weight: bool,
    ) -> Self {
        let n = adjacency.len();
        let half_edges: usize = adjacency.iter().map(Vec::len).sum();
        debug_assert!(
            half_edges <= u32::MAX as usize,
            "half-edge count overflows the CSR u32 offsets"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(half_edges);
        offsets.push(0u32);
        for row in &adjacency {
            edges.extend_from_slice(row);
            offsets.push(edges.len() as u32);
        }
        debug_assert_eq!(edges.len(), 2 * edge_count);
        Self::from_csr(offsets, edges, positions, unit_weight)
    }

    /// A graph from finished CSR arrays: `offsets.len() == n + 1`, every
    /// row sorted by neighbor id, every undirected edge stored once per
    /// endpoint. For generators that can emit rows in that form directly.
    /// `unit_weight` is the caller's word that every weight is exactly 1.0
    /// (it wrote them); `false` is always safe.
    pub(crate) fn from_csr(
        offsets: Vec<u32>,
        edges: Vec<Edge>,
        positions: Option<Vec<Point>>,
        unit_weight: bool,
    ) -> Self {
        debug_assert_eq!(offsets.last().map(|&e| e as usize), Some(edges.len()));
        debug_assert!(!unit_weight || edges.iter().all(|e| e.weight == 1.0));
        Graph {
            offsets,
            edge_count: edges.len() / 2,
            edges,
            positions,
            unit_weight,
            dyn_state: None,
        }
    }

    /// Lazily materializes the mutation overlay.
    fn dyn_state_mut(&mut self) -> &mut DynState {
        let n = self.node_count();
        self.dyn_state.get_or_insert_with(|| {
            Box::new(DynState {
                patch: vec![None; n],
                inactive: vec![false; n],
                inactive_count: 0,
                generation: 0,
                touched: vec![0; n],
            })
        })
    }

    /// Number of sensor nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of stored half-edges (`2 |E|`). For a never-mutated graph
    /// this is the length of the packed CSR edge array.
    #[inline]
    pub fn half_edge_count(&self) -> usize {
        if self.dyn_state.is_some() {
            2 * self.edge_count
        } else {
            self.edges.len()
        }
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// The adjacency row of `u`: a contiguous slice of half-edges,
    /// sorted ascending by neighbor id. For an inactive node the row is
    /// empty. Mutated rows come from the patch overlay; untouched rows
    /// come straight from the CSR base.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[Edge] {
        let i = u.index();
        if let Some(d) = &self.dyn_state {
            if let Some(row) = &d.patch[i] {
                return row;
            }
        }
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of `u` (0 while `u` is inactive).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Returns the weight of the undirected edge `(u, v)` if present.
    /// By convention `w(u, u) = 0` (the paper's assumption).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if u == v {
            return Some(0.0);
        }
        // Rows are sorted by neighbor id, so this is a binary search.
        let row = self.neighbors(u);
        row.binary_search_by(|e| e.to.cmp(&v))
            .ok()
            .map(|i| row[i].weight)
    }

    /// True when `(u, v)` is an edge of `G`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search_by(|e| e.to.cmp(&v)).is_ok()
    }

    /// Iterator over undirected edges, each reported once with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .filter(move |e| a < e.to)
                .map(move |e| (a, e.to, e.weight))
        })
    }

    /// Geographic positions, if the graph carries them.
    pub fn positions(&self) -> Option<&[Point]> {
        self.positions.as_deref()
    }

    /// Geographic position of `u`, or an error if the graph has none.
    pub fn position(&self, u: NodeId) -> Result<Point> {
        self.positions
            .as_ref()
            .map(|p| p[u.index()])
            .ok_or(NetError::MissingPositions)
    }

    /// The smallest edge weight in the graph.
    pub fn min_edge_weight(&self) -> Option<f64> {
        self.edges().map(|(_, _, w)| w).fold(None, |acc, w| {
            Some(match acc {
                None => w,
                Some(m) => m.min(w),
            })
        })
    }

    /// True when every edge is known to weigh exactly 1.0 — the paper's
    /// grids, and every torus, ring, line and random tree. Shortest-path
    /// runs on such a graph take the layered inner loop of
    /// [`crate::DijkstraWorkspace`] instead of the heap; results are
    /// bit-identical either way, so the flag only ever buys speed.
    ///
    /// It is a property of the input, fixed where the weights are
    /// written: generators and [`crate::GraphBuilder`] set it,
    /// [`Graph::normalized`] re-derives it from the rescaled weights, and
    /// [`Graph::restore_node`] clears it for good on the first star with
    /// a non-1.0 edge. [`Graph::remove_node`] leaves it alone, so under
    /// churn it is conservative: a graph whose only weighted edges have
    /// all left again still reads `false` and merely runs the heap.
    #[inline]
    pub fn is_unit_weight(&self) -> bool {
        self.unit_weight
    }

    /// Returns a copy of the graph with all edge weights rescaled so the
    /// shortest edge has weight exactly 1 (the paper's normalization; the
    /// cost-ratio bounds are then independent of the network's scale).
    pub fn normalized(&self) -> Graph {
        let Some(min_w) = self.min_edge_weight() else {
            return self.clone();
        };
        if (min_w - 1.0).abs() < f64::EPSILON {
            return self.clone();
        }
        let mut g = self.clone();
        // Shadowed CSR rows are rescaled (and counted) with the live ones:
        // at worst a conservative `false`.
        let mut unit = true;
        let mut rescale = |e: &mut Edge| {
            e.weight /= min_w;
            unit &= e.weight == 1.0;
        };
        g.edges.iter_mut().for_each(&mut rescale);
        if let Some(d) = &mut g.dyn_state {
            d.patch
                .iter_mut()
                .flatten()
                .flatten()
                .for_each(&mut rescale);
        }
        g.unit_weight = unit;
        g
    }

    /// Whether the *active* topology is connected (trivially true for at
    /// most one active node).
    ///
    /// The paper assumes `G` is connected; generators assert this and
    /// the distance oracle rejects disconnected graphs. On a mutated
    /// graph the inactive nodes are excluded: the question is whether
    /// the surviving sensors still form one component.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        let active = self.active_count();
        if active <= 1 {
            return true;
        }
        // `active >= 2` guarantees a first active node exists.
        let start = self
            .nodes()
            .find(|&u| self.is_active(u))
            .expect("active_count >= 2")
            .index();
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        let mut visited = 1usize;
        while let Some(u) = stack.pop() {
            for e in self.neighbors(NodeId::from_index(u)) {
                let v = e.to.index();
                if !seen[v] {
                    seen[v] = true;
                    visited += 1;
                    stack.push(v);
                }
            }
        }
        visited == active
    }

    /// Total number of mutations applied to this graph (0 for a graph
    /// that has never been mutated). Each successful `remove_node` /
    /// `restore_node` bumps this by one.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.dyn_state.as_ref().map_or(0, |d| d.generation)
    }

    /// The generation that last changed `u`'s adjacency row (0 if the
    /// row was never touched by a mutation). Caches keyed by source node
    /// compare this against the generation they solved at.
    #[inline]
    pub fn node_generation(&self, u: NodeId) -> u64 {
        self.dyn_state.as_ref().map_or(0, |d| d.touched[u.index()])
    }

    /// True while `u` participates in the topology (never removed, or
    /// removed and since restored).
    #[inline]
    pub fn is_active(&self, u: NodeId) -> bool {
        self.dyn_state
            .as_ref()
            .is_none_or(|d| !d.inactive[u.index()])
    }

    /// Number of currently active nodes.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.node_count() - self.dyn_state.as_ref().map_or(0, |d| d.inactive_count)
    }

    /// Iterator over the currently active node ids, ascending.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&u| self.is_active(u))
    }

    /// Removes sensor `u` from the topology (a §7 "leave" event).
    ///
    /// The node id stays valid — queries see an isolated, inactive node
    /// with an empty adjacency row — and the incident edge star is
    /// returned so the caller can later [`Graph::restore_node`] it. The
    /// mutation bumps [`Graph::generation`] and stamps `u` plus every
    /// former neighbor with the new generation.
    ///
    /// Errors with [`NetError::NodeOutOfRange`] or
    /// [`NetError::NodeInactive`] (already removed).
    ///
    /// ```
    /// use mot_net::{generators, NodeId};
    ///
    /// let mut g = generators::grid(3, 3)?; // unit 3×3 grid
    /// assert_eq!(g.generation(), 0);
    ///
    /// // Remove the center sensor: its 4 incident edges vanish...
    /// let star = g.remove_node(NodeId(4))?;
    /// assert_eq!(star.len(), 4);
    /// assert_eq!((g.active_count(), g.edge_count()), (8, 8));
    /// assert!(g.neighbors(NodeId(4)).is_empty());
    /// // ...the ring of 8 survivors is still connected,
    /// assert!(g.is_connected());
    /// // and only touched rows carry the new generation stamp.
    /// assert_eq!(g.node_generation(NodeId(4)), 1);
    /// assert_eq!(g.node_generation(NodeId(0)), 0);
    ///
    /// // A later "join" restores the same id with its old star.
    /// g.restore_node(NodeId(4), &star)?;
    /// assert_eq!((g.active_count(), g.edge_count(), g.generation()), (9, 12, 2));
    /// # Ok::<(), mot_net::NetError>(())
    /// ```
    pub fn remove_node(&mut self, u: NodeId) -> Result<Vec<Edge>> {
        let n = self.node_count();
        if u.index() >= n {
            return Err(NetError::NodeOutOfRange { node: u, n });
        }
        if !self.is_active(u) {
            return Err(NetError::NodeInactive { node: u });
        }
        let star = self.neighbors(u).to_vec();
        let d = self.dyn_state_mut();
        d.generation += 1;
        let gen = d.generation;
        d.touched[u.index()] = gen;
        d.patch[u.index()] = Some(Vec::new());
        d.inactive[u.index()] = true;
        d.inactive_count += 1;
        self.edge_count -= star.len();
        for e in &star {
            let v = e.to;
            let mut row = self.neighbors(v).to_vec();
            row.retain(|f| f.to != u);
            let d = self.dyn_state_mut();
            d.patch[v.index()] = Some(row);
            d.touched[v.index()] = gen;
        }
        Ok(star)
    }

    /// Restores sensor `u` with the given edge star (a §7 "join" event).
    ///
    /// `edges` lists the half-edges from `u`'s side; the reverse
    /// half-edges are inserted into each endpoint's row. Endpoints must
    /// be active, weights finite and positive, no self-loops, no
    /// duplicates. On success the star is installed sorted by neighbor
    /// id and the generation is bumped, stamping `u` and every new
    /// neighbor. A star with any weight other than 1.0 clears
    /// [`Graph::is_unit_weight`] for the rest of the graph's life.
    ///
    /// Errors with [`NetError::NodeActive`] if `u` was not removed, and
    /// with the usual construction errors for a bad star.
    pub fn restore_node(&mut self, u: NodeId, edges: &[Edge]) -> Result<()> {
        let n = self.node_count();
        if u.index() >= n {
            return Err(NetError::NodeOutOfRange { node: u, n });
        }
        if self.is_active(u) {
            return Err(NetError::NodeActive { node: u });
        }
        let mut star = edges.to_vec();
        star.sort_by_key(|e| e.to);
        let mut unit = true;
        for (i, e) in star.iter().enumerate() {
            if e.to == u {
                return Err(NetError::SelfLoop { node: u });
            }
            if e.to.index() >= n {
                return Err(NetError::NodeOutOfRange { node: e.to, n });
            }
            if !self.is_active(e.to) {
                return Err(NetError::NodeInactive { node: e.to });
            }
            if !(e.weight.is_finite() && e.weight > 0.0) {
                return Err(NetError::InvalidWeight {
                    a: u,
                    b: e.to,
                    weight: e.weight,
                });
            }
            if i > 0 && star[i - 1].to == e.to {
                return Err(NetError::DuplicateEdge { a: u, b: e.to });
            }
            unit &= e.weight == 1.0;
        }
        self.unit_weight &= unit;
        let added = star.len();
        let d = self.dyn_state_mut();
        d.generation += 1;
        let gen = d.generation;
        d.touched[u.index()] = gen;
        d.inactive[u.index()] = false;
        d.inactive_count -= 1;
        for e in &star {
            let v = e.to;
            let mut row = self.neighbors(v).to_vec();
            let pos = row.partition_point(|f| f.to < u);
            debug_assert!(row.get(pos).map(|f| f.to) != Some(u));
            row.insert(
                pos,
                Edge {
                    to: u,
                    weight: e.weight,
                },
            );
            let d = self.dyn_state_mut();
            d.patch[v.index()] = Some(row);
            d.touched[v.index()] = gen;
        }
        self.dyn_state_mut().patch[u.index()] = Some(star);
        self.edge_count += added;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.half_edge_count(), 6);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
        }
    }

    #[test]
    fn edge_weight_lookup_is_symmetric() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(1.0));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(0)), Some(0.0));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b, _) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn csr_rows_are_contiguous_and_sorted() {
        let g = crate::generators::grid(4, 5).unwrap();
        let mut total = 0usize;
        for u in g.nodes() {
            let row = g.neighbors(u);
            assert_eq!(row.len(), g.degree(u));
            assert!(row.windows(2).all(|w| w[0].to < w[1].to));
            total += row.len();
        }
        assert_eq!(total, g.half_edge_count());
        assert_eq!(total, 2 * g.edge_count());
    }

    #[test]
    fn normalization_rescales_to_unit_minimum() {
        let g = triangle().normalized();
        let min = g.min_edge_weight().unwrap();
        assert!((min - 1.0).abs() < 1e-12);
        // relative proportions preserved
        assert!((g.edge_weight(NodeId(2), NodeId(0)).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_rederives_the_unit_weight_flag() {
        assert!(!triangle().is_unit_weight());
        assert!(!triangle().normalized().is_unit_weight());
        // Uniformly heavy edges all come out at exactly 1.0.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 2.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2.5).unwrap();
        let heavy = b.build().unwrap();
        assert!(!heavy.is_unit_weight());
        assert!(heavy.normalized().is_unit_weight());
        // Already normalized: the clone keeps what it had.
        let grid = crate::generators::grid(3, 3).unwrap();
        assert!(grid.normalized().is_unit_weight());
    }

    #[test]
    fn unit_weight_flag_survives_unit_churn_and_dies_on_a_heavy_star() {
        let mut g = crate::generators::grid(4, 4).unwrap();
        assert!(g.is_unit_weight());
        let star = g.remove_node(NodeId(5)).unwrap();
        assert!(g.is_unit_weight());
        g.restore_node(NodeId(5), &star).unwrap();
        assert!(g.is_unit_weight());

        let mut heavy = g.remove_node(NodeId(10)).unwrap();
        heavy[0].weight = 2.0;
        // A rejected star must not touch the flag.
        let mut bad = heavy.clone();
        bad[1].weight = f64::NAN;
        assert!(g.restore_node(NodeId(10), &bad).is_err());
        assert!(g.is_unit_weight());
        g.restore_node(NodeId(10), &heavy).unwrap();
        assert!(!g.is_unit_weight());
        // Conservative from here on: the heavy edge leaving again, and
        // unit stars coming back, do not re-arm it.
        let star = g.remove_node(NodeId(10)).unwrap();
        assert!(!g.is_unit_weight());
        let unit: Vec<Edge> = star.iter().map(|e| Edge { weight: 1.0, ..*e }).collect();
        g.restore_node(NodeId(10), &unit).unwrap();
        assert!(!g.is_unit_weight());
        // Nor does `normalized()`: the minimum is already 1, so it clones.
        assert!(!g.normalized().is_unit_weight());
    }

    #[test]
    fn connectivity_detection() {
        let g = triangle();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let g = b.build_unchecked();
        assert!(!g.is_connected());
    }

    #[test]
    fn remove_restore_round_trips_bitwise() {
        let base = crate::generators::grid(4, 4).unwrap();
        let mut g = base.clone();
        let star = g.remove_node(NodeId(5)).unwrap();
        assert_eq!(star.len(), 4);
        assert_eq!(g.active_count(), 15);
        assert_eq!(g.edge_count(), base.edge_count() - 4);
        assert!(g.neighbors(NodeId(5)).is_empty());
        assert_eq!(g.degree(NodeId(5)), 0);
        for e in &star {
            assert!(!g.has_edge(e.to, NodeId(5)));
        }
        assert!(g.is_connected());
        g.restore_node(NodeId(5), &star).unwrap();
        assert_eq!(g.active_count(), 16);
        assert_eq!(g.edge_count(), base.edge_count());
        assert_eq!(g.half_edge_count(), base.half_edge_count());
        // Every row is bit-identical to the never-mutated graph.
        for u in base.nodes() {
            assert_eq!(g.neighbors(u), base.neighbors(u));
        }
        assert_eq!(g.generation(), 2);
    }

    #[test]
    fn mutation_errors_are_reported() {
        let mut g = crate::generators::grid(3, 3).unwrap();
        assert_eq!(
            g.restore_node(NodeId(4), &[]),
            Err(NetError::NodeActive { node: NodeId(4) })
        );
        let star = g.remove_node(NodeId(4)).unwrap();
        assert_eq!(
            g.remove_node(NodeId(4)),
            Err(NetError::NodeInactive { node: NodeId(4) })
        );
        // Can't attach a join to an inactive endpoint.
        let star2 = g.remove_node(NodeId(1)).unwrap();
        assert_eq!(
            g.restore_node(NodeId(4), &star),
            Err(NetError::NodeInactive { node: NodeId(1) })
        );
        g.restore_node(NodeId(1), &star2).unwrap();
        // Bad weights and self-loops are rejected like at build time.
        assert_eq!(
            g.restore_node(
                NodeId(4),
                &[Edge {
                    to: NodeId(4),
                    weight: 1.0
                }]
            ),
            Err(NetError::SelfLoop { node: NodeId(4) })
        );
        assert!(matches!(
            g.restore_node(
                NodeId(4),
                &[Edge {
                    to: NodeId(1),
                    weight: f64::NAN
                }]
            ),
            Err(NetError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.restore_node(
                NodeId(4),
                &[
                    Edge {
                        to: NodeId(1),
                        weight: 1.0
                    },
                    Edge {
                        to: NodeId(1),
                        weight: 2.0
                    }
                ]
            ),
            Err(NetError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn generation_stamps_touch_only_mutated_region() {
        let mut g = crate::generators::grid(4, 4).unwrap();
        let star = g.remove_node(NodeId(0)).unwrap();
        assert_eq!(g.generation(), 1);
        assert_eq!(g.node_generation(NodeId(0)), 1);
        for e in &star {
            assert_eq!(g.node_generation(e.to), 1);
        }
        assert_eq!(g.node_generation(NodeId(15)), 0);
        let s1 = g.remove_node(NodeId(5)).unwrap();
        assert!(g.is_connected());
        g.restore_node(NodeId(5), &s1).unwrap();
        g.restore_node(NodeId(0), &star).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.generation(), 4);
    }

    #[test]
    fn disconnection_is_detected_on_active_subgraph() {
        // Path 0-1-2: removing the middle sensor splits the survivors.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let mut g = b.build().unwrap();
        g.remove_node(NodeId(1)).unwrap();
        assert!(!g.is_connected());
        // A single surviving sensor is trivially connected.
        g.remove_node(NodeId(2)).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn positions_absent_by_default() {
        let g = triangle();
        assert!(g.positions().is_none());
        assert_eq!(g.position(NodeId(0)), Err(NetError::MissingPositions));
    }
}
