//! The weighted sensor-network graph `G = (V, E, w)`.
//!
//! # Memory layout
//!
//! The graph is stored in compressed-sparse-row (CSR) form: one flat
//! array of neighbour ids plus a `u32` offset per node
//! (`neighbors(u)` is the slice `targets[offsets[u]..offsets[u+1]]`).
//! Every shortest-path run — and therefore every oracle row, hierarchy
//! radius query, and cost account in the suite — iterates neighbor
//! lists, so they are contiguous in memory instead of one heap
//! allocation per node. See DESIGN.md §13.
//!
//! A half-edge is its neighbour's id, 4 bytes. Its weight lives in a
//! parallel `f64` array at the same index, which a unit-weight graph
//! ([`Graph::is_unit_weight`]: the paper's grids, every torus, ring,
//! line and random tree) does not allocate: there every weight is 1.0,
//! and the searches that run on it read ids only. The one reader of
//! weights is [`Graph::half_edges`].
//!
//! The CSR arrays and the positions are one immutable base behind an
//! [`Arc`]: cloning a graph shares it, so a distance oracle or a repair
//! mirror that keeps a graph of its own holds the same bytes as the
//! caller's. Mutation is copy-on-write: churn writes only the per-graph
//! patch overlay, and the two writes that change the base itself (a
//! unit-weight graph's first heavy star, normalizing) go through
//! [`Arc::make_mut`], which copies the base only while it is shared.

use std::sync::Arc;

use crate::error::NetError;
use crate::node::{NodeId, Point};
use crate::Result;

/// A weighted half-edge: the value one entry of a row stands for, as
/// [`Graph::half_edges`] hands it out and as
/// [`Graph::remove_node`] / [`Graph::restore_node`] take edge stars.
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
/// module docs): [`Graph::neighbors`] hands out a `&[NodeId]` slice per
/// node, and [`Graph::half_edges`] the same row with its weights. A
/// never-mutated graph pays one predictable branch per `neighbors`
/// call; mutated rows live in per-node patch rows of the same layout,
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
/// // The adjacency row is a plain slice of ids, sorted ascending.
/// let row = g.neighbors(center);
/// assert_eq!(row, &[NodeId(1), NodeId(3), NodeId(5), NodeId(7)]);
/// // Weights come with the row through `half_edges`.
/// let total: f64 = g.half_edges(center).map(|e| e.weight).sum();
/// assert_eq!(total, 4.0);
/// # Ok::<(), mot_net::NetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// The immutable CSR base, shared by every clone.
    base: Arc<Csr>,
    edge_count: usize,
    /// Mutation overlay; `None` until the first `remove_node` /
    /// `restore_node` so static graphs stay branch-predictable and pay
    /// no extra memory.
    dyn_state: Option<Box<DynState>>,
}

/// The rows a graph was built with, and its positions: never written
/// in place while another graph shares them (see the module docs).
#[derive(Clone, Debug)]
struct Csr {
    /// CSR row offsets: node `u`'s half-edges live at
    /// `targets[offsets[u] as usize..offsets[u + 1] as usize]`.
    /// `offsets.len() == node_count() + 1`.
    offsets: Vec<u32>,
    /// All half-edges' neighbour ids, packed row by row (each undirected
    /// edge appears twice, once per endpoint).
    targets: Vec<NodeId>,
    /// `weights[k]` is the weight of half-edge `targets[k]`; `None`
    /// exactly while the graph is unit-weight (see
    /// [`Graph::is_unit_weight`]). Set by whoever held the weights at
    /// construction; never derived by a scan of its own.
    weights: Option<Vec<f64>>,
    positions: Option<Vec<Point>>,
}

impl Csr {
    /// Heap bytes of the four arrays.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<NodeId>()
            + self.weights.as_ref().map_or(0, |w| w.capacity()) * size_of::<f64>()
            + self.positions.as_ref().map_or(0, |p| p.capacity()) * size_of::<Point>()
    }
}

/// One owned adjacency row of the mutation overlay, in the CSR base's
/// layout: ids, and their weights while the graph has any.
#[derive(Clone, Debug, Default)]
struct Row {
    to: Vec<NodeId>,
    /// Empty while the graph is unit-weight, else one per `to`.
    weight: Vec<f64>,
}

/// Copy-on-write mutation overlay for a [`Graph`]. Rows that a mutation
/// touched are shadowed by owned rows; untouched rows keep serving
/// straight from the CSR base.
#[derive(Clone, Debug)]
struct DynState {
    /// `patch[u] = Some(row)` shadows the CSR row of `u`.
    patch: Vec<Option<Row>>,
    /// `true` while the node is removed from the topology.
    inactive: Vec<bool>,
    inactive_count: usize,
    /// Monotone mutation counter; starts at 1 on the first mutation.
    generation: u64,
    /// Per-node stamp of the generation that last changed its row.
    touched: Vec<u64>,
}

impl DynState {
    /// Heap bytes of the box, the per-node arrays and the patch rows.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let rows: usize = (self.patch.iter().flatten())
            .map(|row| {
                row.to.capacity() * size_of::<NodeId>() + row.weight.capacity() * size_of::<f64>()
            })
            .sum();
        size_of::<DynState>()
            + self.patch.capacity() * size_of::<Option<Row>>()
            + rows
            + self.inactive.capacity() * size_of::<bool>()
            + self.touched.capacity() * size_of::<u64>()
    }
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
        let mut targets = Vec::with_capacity(half_edges);
        let mut weights = (!unit_weight).then(|| Vec::with_capacity(half_edges));
        offsets.push(0u32);
        for row in &adjacency {
            targets.extend(row.iter().map(|e| e.to));
            if let Some(w) = &mut weights {
                w.extend(row.iter().map(|e| e.weight));
            }
            offsets.push(targets.len() as u32);
        }
        debug_assert_eq!(targets.len(), 2 * edge_count);
        debug_assert!(!unit_weight || adjacency.iter().flatten().all(|e| e.weight == 1.0));
        Self::from_csr(offsets, targets, weights, positions)
    }

    /// A graph from finished CSR arrays: `offsets.len() == n + 1`, every
    /// row sorted by neighbor id, every undirected edge stored once per
    /// endpoint. For generators that can emit rows in that form directly.
    /// `weights` is `None` on the caller's word that every weight is
    /// exactly 1.0 (it wrote them); `Some` is always safe.
    pub(crate) fn from_csr(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        weights: Option<Vec<f64>>,
        positions: Option<Vec<Point>>,
    ) -> Self {
        debug_assert_eq!(offsets.last().map(|&e| e as usize), Some(targets.len()));
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == targets.len()));
        Graph {
            edge_count: targets.len() / 2,
            base: Arc::new(Csr {
                offsets,
                targets,
                weights,
                positions,
            }),
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
        self.base.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of stored half-edges (`2 |E|`). For a never-mutated graph
    /// this is the length of the packed CSR id array.
    #[inline]
    pub fn half_edge_count(&self) -> usize {
        if self.dyn_state.is_some() {
            2 * self.edge_count
        } else {
            self.base.targets.len()
        }
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// The patch row shadowing `u`'s CSR row, if a mutation wrote one.
    #[inline]
    fn patched(&self, i: usize) -> Option<&Row> {
        self.dyn_state.as_ref().and_then(|d| d.patch[i].as_ref())
    }

    /// The CSR base range of `u`'s row.
    #[inline]
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.base.offsets[i] as usize..self.base.offsets[i + 1] as usize
    }

    /// The adjacency row of `u`: a contiguous slice of neighbour ids,
    /// sorted ascending. For an inactive node the row is empty. Mutated
    /// rows come from the patch overlay; untouched rows come straight
    /// from the CSR base.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        match self.patched(i) {
            Some(row) => &row.to,
            None => &self.base.targets[self.span(i)],
        }
    }

    /// The weights of `u`'s row, in row order; `None` on a unit-weight
    /// graph, whose every weight is 1.0.
    #[inline]
    fn row_weights(&self, u: NodeId) -> Option<&[f64]> {
        let base = self.base.weights.as_deref()?;
        let i = u.index();
        Some(match self.patched(i) {
            Some(row) => &row.weight,
            None => &base[self.span(i)],
        })
    }

    /// `u`'s row with its weights: one [`Edge`] per entry of
    /// [`Graph::neighbors`], in the same order (every weight 1.0 on a
    /// unit-weight graph). The one way to read a weight off a row.
    #[inline]
    pub fn half_edges(&self, u: NodeId) -> impl ExactSizeIterator<Item = Edge> + '_ {
        let to = self.neighbors(u);
        let weight = self.row_weights(u);
        (0..to.len()).map(move |k| Edge {
            to: to[k],
            weight: weight.map_or(1.0, |w| w[k]),
        })
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
        let k = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.row_weights(u).map_or(1.0, |w| w[k]))
    }

    /// True when `(u, v)` is an edge of `G`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over undirected edges, each reported once with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |a| {
            self.half_edges(a)
                .filter(move |e| a < e.to)
                .map(move |e| (a, e.to, e.weight))
        })
    }

    /// Geographic positions, if the graph carries them.
    pub fn positions(&self) -> Option<&[Point]> {
        self.base.positions.as_deref()
    }

    /// Geographic position of `u`, or an error if the graph has none.
    pub fn position(&self, u: NodeId) -> Result<Point> {
        self.positions()
            .map(|p| p[u.index()])
            .ok_or(NetError::MissingPositions)
    }

    /// Heap bytes this graph holds: the CSR base (offsets, id rows, the
    /// weights a weighted graph stores, positions) plus the patch
    /// overlay of a churned graph. Clones share the base (see the module
    /// docs), so a ledger over several structures that each keep a clone
    /// counts it once: [`Graph::shares_base`] tells which do.
    pub fn heap_bytes(&self) -> usize {
        self.base.heap_bytes() + self.dyn_state.as_ref().map_or(0, |d| d.heap_bytes())
    }

    /// True when `self` and `other` read one CSR base (one is a clone of
    /// the other, or of a common graph, and neither has written its base
    /// since).
    pub fn shares_base(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
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
    /// grids, and every torus, ring, line and random tree. Such a graph
    /// stores no weights at all (see the module docs), and shortest-path
    /// runs on it take the layered inner loop of
    /// [`crate::DijkstraWorkspace`] instead of the heap; results are
    /// bit-identical either way, so the flag only ever buys speed and
    /// memory.
    ///
    /// It is a property of the input, fixed where the weights are
    /// written: generators and [`crate::GraphBuilder`] set it,
    /// [`Graph::normalized`] re-derives it from the rescaled weights, and
    /// [`Graph::restore_node`] clears it for good on the first star with
    /// a non-1.0 edge, writing out a weight of 1.0 for every half-edge
    /// already there. [`Graph::remove_node`] leaves it alone, so under
    /// churn it is conservative: a graph whose only weighted edges have
    /// all left again still reads `false` and merely runs the heap.
    #[inline]
    pub fn is_unit_weight(&self) -> bool {
        self.base.weights.is_none()
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
        // A unit-weight graph's minimum is 1: this one stores weights.
        let mut g = self.clone();
        // Shadowed CSR rows are rescaled (and counted) with the live ones:
        // at worst a conservative `false`.
        let mut unit = true;
        let mut rescale = |w: &mut f64| {
            *w /= min_w;
            unit &= *w == 1.0;
        };
        let base = Arc::make_mut(&mut g.base);
        base.weights.iter_mut().flatten().for_each(&mut rescale);
        if let Some(d) = &mut g.dyn_state {
            let rows = d.patch.iter_mut().flatten();
            rows.flat_map(|row| &mut row.weight).for_each(&mut rescale);
        }
        if unit {
            base.weights = None;
            if let Some(d) = &mut g.dyn_state {
                d.patch
                    .iter_mut()
                    .flatten()
                    .for_each(|row| row.weight = Vec::new());
            }
        }
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
            for &v in self.neighbors(NodeId::from_index(u)) {
                let v = v.index();
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

    /// An owned copy of `v`'s row, for the overlay to change and keep.
    fn owned_row(&self, v: NodeId) -> Row {
        Row {
            to: self.neighbors(v).to_vec(),
            weight: self.row_weights(v).map_or_else(Vec::new, <[f64]>::to_vec),
        }
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
        let star: Vec<Edge> = self.half_edges(u).collect();
        let d = self.dyn_state_mut();
        d.generation += 1;
        let gen = d.generation;
        d.touched[u.index()] = gen;
        d.patch[u.index()] = Some(Row::default());
        d.inactive[u.index()] = true;
        d.inactive_count += 1;
        self.edge_count -= star.len();
        for e in &star {
            let v = e.to;
            let mut row = self.owned_row(v);
            let pos = row.to.binary_search(&u).expect("edges are symmetric");
            row.to.remove(pos);
            if !row.weight.is_empty() {
                row.weight.remove(pos);
            }
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
    /// [`Graph::is_unit_weight`] for the rest of the graph's life, and
    /// writes out the weights the graph did not store until then, once.
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
        if !unit && self.is_unit_weight() {
            self.store_weights();
        }
        let weighted = !self.is_unit_weight();
        let added = star.len();
        let d = self.dyn_state_mut();
        d.generation += 1;
        let gen = d.generation;
        d.touched[u.index()] = gen;
        d.inactive[u.index()] = false;
        d.inactive_count -= 1;
        for e in &star {
            let v = e.to;
            let mut row = self.owned_row(v);
            let pos = row.to.partition_point(|&f| f < u);
            debug_assert!(row.to.get(pos) != Some(&u));
            row.to.insert(pos, u);
            if weighted {
                row.weight.insert(pos, e.weight);
            }
            let d = self.dyn_state_mut();
            d.patch[v.index()] = Some(row);
            d.touched[v.index()] = gen;
        }
        let own = Row {
            to: star.iter().map(|e| e.to).collect(),
            weight: if weighted {
                star.iter().map(|e| e.weight).collect()
            } else {
                Vec::new()
            },
        };
        self.dyn_state_mut().patch[u.index()] = Some(own);
        self.edge_count += added;
        Ok(())
    }

    /// Writes out the weight (1.0) of every half-edge of a unit-weight
    /// graph, base and patch rows alike: from here on it is weighted.
    fn store_weights(&mut self) {
        let base = Arc::make_mut(&mut self.base);
        base.weights = Some(vec![1.0; base.targets.len()]);
        if let Some(d) = &mut self.dyn_state {
            for row in d.patch.iter_mut().flatten() {
                row.weight = vec![1.0; row.to.len()];
            }
        }
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
            assert!(row.windows(2).all(|w| w[0] < w[1]));
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

    /// The rows as `Edge` vectors, one per node: the layout the graph
    /// kept before its rows became ids, and the model the tests below
    /// mutate the way that layout was mutated.
    fn edge_rows(g: &Graph) -> Vec<Vec<Edge>> {
        g.nodes().map(|u| g.half_edges(u).collect()).collect()
    }

    /// `g`'s id rows and weights are `want`'s `Edge` rows, bit for bit,
    /// and the graph stores weights exactly when it is not unit-weight.
    fn assert_rows(g: &Graph, want: &[Vec<Edge>], ctx: &str) {
        let bits = |row: &[Edge]| -> Vec<(NodeId, u64)> {
            row.iter().map(|e| (e.to, e.weight.to_bits())).collect()
        };
        for u in g.nodes() {
            let row = &want[u.index()];
            let ids: Vec<NodeId> = row.iter().map(|e| e.to).collect();
            assert_eq!(g.neighbors(u), ids.as_slice(), "{ctx}: ids of {u}");
            let got: Vec<Edge> = g.half_edges(u).collect();
            assert_eq!(bits(&got), bits(row), "{ctx}: weights of {u}");
            for e in row {
                let w = g.edge_weight(u, e.to).map(f64::to_bits);
                assert_eq!(
                    w,
                    Some(e.weight.to_bits()),
                    "{ctx}: edge_weight({u}, {})",
                    e.to
                );
            }
        }
        let unit = g.is_unit_weight();
        assert_eq!(
            g.base.weights.is_none(),
            unit,
            "{ctx}: weights stored on a unit graph"
        );
        if unit {
            assert!(want.iter().flatten().all(|e| e.weight == 1.0), "{ctx}");
        }
        let patched = g.dyn_state.iter().flat_map(|d| d.patch.iter().flatten());
        for row in patched {
            let stored = if unit { 0 } else { row.to.len() };
            assert_eq!(row.weight.len(), stored, "{ctx}: a patch row's weights");
        }
        let half_edges: usize = want.iter().map(Vec::len).sum();
        assert_eq!(g.half_edge_count(), half_edges, "{ctx}");
    }

    /// `remove_node` on the model, as it ran on `Edge` rows.
    fn model_remove(rows: &mut [Vec<Edge>], u: NodeId) -> Vec<Edge> {
        let star = std::mem::take(&mut rows[u.index()]);
        for e in &star {
            rows[e.to.index()].retain(|f| f.to != u);
        }
        star
    }

    /// `restore_node` on the model, as it ran on `Edge` rows.
    fn model_restore(rows: &mut [Vec<Edge>], u: NodeId, star: &[Edge]) {
        let mut star = star.to_vec();
        star.sort_by_key(|e| e.to);
        for e in &star {
            let row = &mut rows[e.to.index()];
            let pos = row.partition_point(|f| f.to < u);
            row.insert(
                pos,
                Edge {
                    to: u,
                    weight: e.weight,
                },
            );
        }
        rows[u.index()] = star;
    }

    #[test]
    fn rows_are_ids_with_the_weights_beside_them() {
        use crate::generators;
        let beds = [
            (generators::grid(7, 9).unwrap(), "grid"),
            (generators::torus(5, 6).unwrap(), "torus"),
            (generators::ring(12).unwrap(), "ring"),
            (generators::line(9).unwrap(), "line"),
            (generators::random_tree(40, 3).unwrap(), "tree"),
            (
                generators::random_geometric(60, 8.0, 2.5, 4).unwrap(),
                "geometric",
            ),
            (
                generators::perturbed_grid(6, 6, 0.3, 2).unwrap(),
                "perturbed",
            ),
            (
                generators::clustered(40, 3, 10.0, 3.0, 6).unwrap(),
                "clustered",
            ),
            (triangle(), "triangle"),
        ];
        for (g, name) in beds {
            let rows = edge_rows(&g);
            assert_rows(&g, &rows, name);
            // Each half-edge has its twin, with the same weight bits,
            // and a builder fed the edges stores the same rows.
            let mut b = GraphBuilder::new(g.node_count());
            for (u, row) in rows.iter().enumerate() {
                let u = NodeId::from_index(u);
                for e in row {
                    let twin = rows[e.to.index()].iter().find(|f| f.to == u);
                    let twin = twin.map(|f| f.weight.to_bits());
                    assert_eq!(twin, Some(e.weight.to_bits()), "{name}: {u} - {}", e.to);
                    b.add_edge(u, e.to, e.weight).unwrap();
                }
            }
            assert_rows(&b.build_unchecked(), &rows, &format!("{name} rebuilt"));

            // Remove and restore: patched rows, against the model.
            let (mut g, mut model) = (g, rows);
            let n = g.node_count();
            let mut gone = Vec::new();
            for step in 0..3 * n {
                let u = NodeId::from_index(step * 7 % n);
                let ctx = format!("{name} step {step}");
                if g.is_active(u) && gone.len() < n / 3 {
                    let star = g.remove_node(u).unwrap();
                    assert_eq!(star, model_remove(&mut model, u), "{ctx}: star");
                    gone.push((u, star));
                } else if let Some((v, star)) = gone.pop() {
                    // Back with the edges to nodes still there.
                    let star: Vec<Edge> = star.into_iter().filter(|e| g.is_active(e.to)).collect();
                    g.restore_node(v, &star).unwrap();
                    model_restore(&mut model, v, &star);
                }
                assert_rows(&g, &model, &ctx);
            }
        }
    }

    #[test]
    fn a_heavy_star_writes_out_the_weights_of_a_unit_graph_once() {
        let mut g = crate::generators::grid(5, 5).unwrap();
        let mut model = edge_rows(&g);
        // Unit churn first, so some rows are patched before the weights
        // exist.
        for u in [6, 12, 18] {
            let star = g.remove_node(NodeId(u)).unwrap();
            model_remove(&mut model, NodeId(u));
            if u != 12 {
                g.restore_node(NodeId(u), &star).unwrap();
                model_restore(&mut model, NodeId(u), &star);
            }
        }
        assert!(g.is_unit_weight());
        assert_rows(&g, &model, "unit churn");
        let star = [
            Edge {
                to: NodeId(7),
                weight: 2.5,
            },
            Edge {
                to: NodeId(11),
                weight: 1.0,
            },
            Edge {
                to: NodeId(17),
                weight: 0.5,
            },
        ];
        g.restore_node(NodeId(12), &star).unwrap();
        model_restore(&mut model, NodeId(12), &star);
        assert!(!g.is_unit_weight());
        assert_rows(&g, &model, "heavy star");
        // Weighted from here on, through more churn.
        for u in [7, 12] {
            let star = g.remove_node(NodeId(u)).unwrap();
            assert_eq!(star, model_remove(&mut model, NodeId(u)));
            assert_rows(&g, &model, "weighted leave");
            g.restore_node(NodeId(u), &star).unwrap();
            model_restore(&mut model, NodeId(u), &star);
            assert_rows(&g, &model, "weighted join");
        }
        // Normalizing rescales every stored weight, patch rows included.
        let norm = g.normalized();
        let scaled: Vec<Vec<Edge>> = model
            .iter()
            .map(|row| {
                row.iter()
                    .map(|e| Edge {
                        weight: e.weight / 0.5,
                        ..*e
                    })
                    .collect()
            })
            .collect();
        assert_rows(&norm, &scaled, "normalized");
    }

    #[test]
    fn normalizing_to_unit_weights_drops_the_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 2.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2.5).unwrap();
        let mut heavy = b.build().unwrap();
        let star = heavy.remove_node(NodeId(2)).unwrap();
        heavy.restore_node(NodeId(2), &star).unwrap();
        let unit = heavy.normalized();
        assert!(unit.is_unit_weight());
        let rows: Vec<Vec<Edge>> = edge_rows(&heavy)
            .iter()
            .map(|row| row.iter().map(|e| Edge { weight: 1.0, ..*e }).collect())
            .collect();
        assert_rows(&unit, &rows, "normalized");
    }

    /// A graph's rows, weight bits and unit-weight flag: everything a
    /// write through a clone must leave alone.
    fn fingerprint(g: &Graph) -> (Vec<Vec<(NodeId, u64)>>, bool) {
        let rows = g.nodes().map(|u| {
            let row = g.half_edges(u).map(|e| (e.to, e.weight.to_bits()));
            row.collect()
        });
        (rows.collect(), g.is_unit_weight())
    }

    #[test]
    fn clones_share_one_base_and_write_only_their_own() {
        use crate::{CachedOracle, DistanceOracle};
        let g = crate::generators::grid(6, 6).unwrap();
        let want = fingerprint(&g);
        let (a, b) = (g.clone(), g.clone());
        assert!(a.shares_base(&g) && b.shares_base(&a));
        assert_eq!(Arc::strong_count(&g.base), 3);
        assert_eq!(a.heap_bytes(), g.heap_bytes());
        // An oracle keeps a clone too, and its ledger stops at the graph:
        // the base is counted once, by whoever counts the graph.
        let oracle = CachedOracle::new(&g).unwrap();
        assert!(oracle.graph().shares_base(&g));
        assert_eq!(oracle.heap_bytes(), 0, "nothing solved, nothing owned");
        assert_eq!(oracle.dist(NodeId(0), NodeId(35)), 10.0);
        let pooled = oracle.heap_bytes();
        assert!(pooled >= 12 * 36 && pooled < g.heap_bytes() + 12 * 36);

        // Churn writes the clone's patch overlay, not the base.
        let mut churned = g.clone();
        let mut star = churned.remove_node(NodeId(14)).unwrap();
        assert!(churned.shares_base(&g));
        assert!(churned.heap_bytes() > g.heap_bytes(), "the overlay counts");
        // A heavy star writes weights into the base: the clone copies it.
        star[0].weight = 2.5;
        churned.restore_node(NodeId(14), &star).unwrap();
        assert!(!churned.is_unit_weight());
        assert!(!churned.shares_base(&g));
        assert_eq!(fingerprint(&g), want);
        assert!(a.shares_base(&g), "the other clones keep sharing");

        // Normalizing rescales a copy of a shared weighted base.
        let mut bld = GraphBuilder::new(4);
        bld.add_edge(NodeId(0), NodeId(1), 2.5).unwrap();
        bld.add_edge(NodeId(1), NodeId(2), 5.0).unwrap();
        bld.add_edge(NodeId(2), NodeId(3), 2.5).unwrap();
        let heavy = bld.build().unwrap();
        let want = fingerprint(&heavy);
        let clone = heavy.clone();
        let norm = clone.normalized();
        assert_eq!(norm.edge_weight(NodeId(1), NodeId(2)), Some(2.0));
        assert!(!norm.shares_base(&heavy) && clone.shares_base(&heavy));
        assert_eq!(fingerprint(&heavy), want);
        assert_eq!(fingerprint(&clone), want);
        // Already normalized: the result is one more clone.
        assert!(g.normalized().shares_base(&g));
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
            assert!(g.half_edges(u).eq(base.half_edges(u)));
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
