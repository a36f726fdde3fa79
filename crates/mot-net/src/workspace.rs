//! Reusable shortest-path scratch space: zero allocation per run, and
//! no heap on graphs that do not need one.
//!
//! Every substrate in the suite (oracle rows, hierarchy radii, cost
//! accounting, baselines) bottoms out in repeated shortest-path runs
//! over the same graph. A [`DijkstraWorkspace`] owns the dist/parent/
//! visited buffers and the priority queue, so a run touches no allocator
//! at all once the workspace has grown to the graph's size:
//!
//! * **Generation-stamped clearing** — instead of re-filling the `dist`
//!   array with `INFINITY` (an O(n) write per call), every slot carries a
//!   generation stamp; a slot is live only if its stamp matches the
//!   current run's generation, so "clearing" is a single counter bump.
//! * **Two inner loops, one contract.** `run` picks by a property of the
//!   input, [`Graph::is_unit_weight`]; there is no knob.
//!   * *Heap loop* — the only path for weighted fields and the
//!     executable specification of the other one. A flat implicit 4-ary
//!     heap keyed on the pair `(dist, node)` with ties broken by
//!     ascending node id — the exact total order the seed `BinaryHeap`
//!     implementation used, which makes settle order, relaxation order,
//!     parents, and distances bit-identical to the seed implementation
//!     (DESIGN.md §12/§13 determinism contract). It is the one loop that
//!     reads weights ([`Graph::half_edges`]).
//!   * *Layered loop* — when every edge weighs exactly 1.0 the settle
//!     order is layer by layer, so the heap is dead weight (≈ 115 ns a
//!     node against ≈ 17 on a 256×256 grid), and so are the weights: it
//!     reads the id rows ([`Graph::neighbors`]) alone. The current layer
//!     is the tail of `settled`; a node is stamped, given its distance,
//!     and appended the first time any node of the layer touches it.
//!     For [`DijkstraWorkspace::sssp`] **each new layer is sorted by id
//!     before it is expanded, and parents are written.** In the heap
//!     loop a unit-weight node is pushed exactly once — by its
//!     first-popped, i.e. smallest-id, neighbour in the previous layer —
//!     and a layer pops in id order; expanding a sorted layer and keeping
//!     the first touch reproduces both, so distances, parents, the
//!     `(dist, id)` settle order and the settled count are bit for bit
//!     the heap loop's.
//! * **A ball is distances only.** [`DijkstraWorkspace::bounded_ball`]
//!   promises what its callers read: the nodes within the radius, in
//!   nondecreasing distance, each with its exact distance. On unit
//!   weights it skips the sort and the parents; a layer's set, and
//!   every node's distance, do not depend on the order it is expanded
//!   in. No parent is readable after a ball, and none is written: a
//!   workspace that never ran [`DijkstraWorkspace::sssp`] has no parent
//!   array at all, 12 bytes a node instead of 16.
//! * **An early stop leaves the same state behind.** A bounded ball ends
//!   when the next layer's distance exceeds the radius: that layer is
//!   dropped from `settled` and keeps tentative distances `> radius`,
//!   everything beyond it reads `INFINITY` — so "`dist(v) <= radius`"
//!   means "settled" after either loop, which the hierarchy builder's
//!   `ball_dist` relies on.
//! * **A distance is not a search tree.** [`DijkstraWorkspace::distance`]
//!   answers one pair and leaves nothing readable. On unit-weight fields
//!   it is a bidirectional breadth-first search over the id rows that
//!   returns where the two balls meet: no sort, no `dist`/`parent`
//!   writes, two generation values on the one `stamp` array. Hop counts
//!   are exact integers in f64, so the answer is bit for bit a
//!   source-`u` solve's. Weighted fields run the heap loop from `u`
//!   until `v` settles, because a meet-in-the-middle f64 sum need not
//!   be.
//!
//! The classic entry points [`crate::dijkstra()`] and
//! [`crate::shortest_path_tree()`] are thin wrappers that run a fresh
//! workspace once; hot callers (the oracle backends, the hierarchy
//! builders) hold a workspace and reuse it across thousands of runs.

use crate::graph::Graph;
use crate::node::NodeId;

/// Sentinel in the packed parent array: "no parent recorded".
const NO_PARENT: u32 = u32::MAX;

/// A flat 4-ary min-heap over `(dist, node)` pairs.
///
/// Pops strictly in ascending `(dist, node)` lexicographic order; since
/// that is a total order over the pushed entries (distances are finite
/// and non-NaN by graph construction), the sequence of popped values is
/// independent of heap arity — the property the parity suite relies on.
#[derive(Clone, Debug, Default)]
struct QuadHeap {
    slots: Vec<(f64, u32)>,
}

impl QuadHeap {
    #[inline]
    fn less(a: (f64, u32), b: (f64, u32)) -> bool {
        // Finite, non-NaN distances: `<` and `==` implement a total order.
        a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    #[inline]
    fn clear(&mut self) {
        self.slots.clear();
    }

    /// Hole insertion: walk the hole up moving losing parents down, then
    /// write the element once (the same trick std's BinaryHeap uses —
    /// one move per level instead of a three-move swap).
    #[inline]
    fn push(&mut self, dist: f64, node: u32) {
        let elem = (dist, node);
        let mut hole = self.slots.len();
        self.slots.push(elem);
        while hole > 0 {
            let p = (hole - 1) / 4;
            if Self::less(elem, self.slots[p]) {
                self.slots[hole] = self.slots[p];
                hole = p;
            } else {
                break;
            }
        }
        self.slots[hole] = elem;
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, u32)> {
        let top = *self.slots.first()?;
        let elem = self.slots.pop().expect("non-empty");
        let len = self.slots.len();
        if len == 0 {
            return Some(top);
        }
        // Sift the former last element down from the root with a hole.
        let mut hole = 0usize;
        loop {
            let first = 4 * hole + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let last = (first + 4).min(len);
            for c in (first + 1)..last {
                if Self::less(self.slots[c], self.slots[best]) {
                    best = c;
                }
            }
            if Self::less(self.slots[best], elem) {
                self.slots[hole] = self.slots[best];
                hole = best;
            } else {
                break;
            }
        }
        self.slots[hole] = elem;
        Some(top)
    }
}

/// Reusable scratch buffers for Dijkstra runs on one or more graphs.
///
/// A workspace grows to the largest graph it has seen and never shrinks;
/// after the first run on a given size, [`DijkstraWorkspace::sssp`] and
/// [`DijkstraWorkspace::bounded_ball`] perform **zero heap allocations**.
/// Results are read back through [`DijkstraWorkspace::dist`] /
/// [`DijkstraWorkspace::settled`] (and, after `sssp`,
/// [`DijkstraWorkspace::parent`]) and stay valid until the next run on
/// the same workspace.
/// [`DijkstraWorkspace::distance`] returns its one answer and leaves
/// nothing to read back.
///
/// Workspaces are plain owned values: keep one per thread (they are
/// `Send`), or a small pool behind a mutex, which is all the state
/// [`crate::CachedOracle`] keeps between solves. Reuse is purely a
/// performance optimization — a reused workspace returns bit-identical
/// results to a fresh one, in any interleaving (covered by the
/// `csr_parity` test suite).
///
/// # Example
///
/// ```
/// use mot_net::{generators, DijkstraWorkspace, NodeId};
///
/// let g = generators::grid(4, 4)?; // unit 4×4 grid
/// let mut ws = DijkstraWorkspace::new();
///
/// // Full single-source shortest paths; dist = Manhattan distance here.
/// ws.sssp(&g, NodeId(0));
/// assert_eq!(ws.dist(NodeId(15)), 6.0);
/// assert_eq!(ws.parent(NodeId(0)), None); // the source has no parent
///
/// // The same workspace, reused: a radius-2 ball around the far corner.
/// // `bounded_ball` settles exactly the nodes within the radius and
/// // returns them in nondecreasing distance. Copy the slice out if you
/// // need to query distances afterwards (it borrows the workspace).
/// let ball = ws.bounded_ball(&g, NodeId(15), 2.0).to_vec();
/// assert_eq!(ball.len(), 6); // self + 2 at distance 1 + 3 at distance 2
/// assert_eq!(ball[0], NodeId(15));
/// assert!(ball.windows(2).all(|w| ws.dist(w[0]) <= ws.dist(w[1])));
/// assert_eq!(ws.dist(ball[5]), 2.0);
/// // A ball is distances only: no search tree to read.
/// assert_eq!(ws.parent(ball[5]), None);
///
/// // One pair's distance; it leaves nothing behind to read.
/// assert_eq!(ws.distance(&g, NodeId(0), NodeId(15)), 6.0);
/// assert!(ws.settled().is_empty());
/// # Ok::<(), mot_net::NetError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct DijkstraWorkspace {
    /// Tentative distances; live only where `stamp[v] == generation`.
    dist: Vec<f64>,
    /// Packed parent pointers (`NO_PARENT` = none); same liveness rule.
    parent: Vec<u32>,
    /// Generation stamp per node — the "visited" bitmap without clears.
    stamp: Vec<u32>,
    /// Current run's generation; bumped (not cleared) at every start.
    generation: u32,
    /// Whether the last run was an `sssp`, the one whose parents are
    /// readable.
    tree: bool,
    heap: QuadHeap,
    /// Nodes settled by the last run, in settle order: nondecreasing
    /// distance, ascending `(dist, node id)` for a tree run. A
    /// unit-weight `distance` borrows it as the forward frontier.
    settled: Vec<NodeId>,
    /// The backward frontier of a unit-weight `distance`; empty between
    /// calls.
    back: Vec<NodeId>,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for graphs of up to `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = Self::default();
        ws.reserve(n);
        ws
    }

    /// Grows the buffers to hold `n` nodes without running anything:
    /// 12 bytes a node (a distance and a stamp). The parent array, 4
    /// more, is sized by the first [`DijkstraWorkspace::sssp`] alone,
    /// the one run that writes it.
    pub fn reserve(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.stamp.resize(n, 0);
        }
    }

    /// Heap bytes of the buffers: the per-node arrays, the heap, and the
    /// settled and frontier lists at their current capacities.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dist.capacity() * size_of::<f64>()
            + self.parent.capacity() * size_of::<u32>()
            + self.stamp.capacity() * size_of::<u32>()
            + self.heap.slots.capacity() * size_of::<(f64, u32)>()
            + (self.settled.capacity() + self.back.capacity()) * size_of::<NodeId>()
    }

    /// Number of nodes the buffers currently hold.
    pub fn capacity(&self) -> usize {
        self.dist.len()
    }

    /// Starts a new run: bumps the generation (lazily invalidating every
    /// slot), clears the heap and settled list, makes the source live
    /// at distance 0, and records whether the run's parents are to be
    /// readable.
    fn begin(&mut self, g: &Graph, source: NodeId, tree: bool) {
        let n = g.node_count();
        self.reserve(n);
        self.advance(1);
        self.tree = tree;
        self.heap.clear();
        self.settled.clear();
        let s = source.index();
        self.dist[s] = 0.0;
        self.stamp[s] = self.generation;
        if tree {
            if self.parent.len() < n {
                self.parent.resize(n, NO_PARENT);
            }
            self.parent[s] = NO_PARENT;
        }
    }

    /// Takes `k` fresh generation values, makes the last one current and
    /// returns the first. No slot carries any of them yet: on wrap-around
    /// the one real clear per 2^32 values runs before anything is stamped.
    fn advance(&mut self, k: u32) -> u32 {
        if self.generation > u32::MAX - k {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += k;
        self.generation - (k - 1)
    }

    #[inline]
    fn live_dist(&self, v: usize) -> f64 {
        if self.stamp[v] == self.generation {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    /// The one entry point behind both run flavors: settles nodes in
    /// nondecreasing distance; stops early when the next settle distance
    /// exceeds `radius`. A `tree` run settles in ascending `(dist, node)`
    /// order and leaves parents to read. Which inner loop does it is the
    /// graph's business, not the caller's.
    fn run(&mut self, g: &Graph, source: NodeId, radius: f64, tree: bool) {
        if g.is_unit_weight() {
            self.run_layered(g, source, radius, tree);
        } else {
            self.run_heap(g, source, radius, None, tree);
        }
    }

    /// Dijkstra over the 4-ary heap: any positive weights. Also stops
    /// when `target` settles (a weighted [`DijkstraWorkspace::distance`]).
    /// Only a `tree` run writes parents.
    fn run_heap(
        &mut self,
        g: &Graph,
        source: NodeId,
        radius: f64,
        target: Option<NodeId>,
        tree: bool,
    ) {
        self.begin(g, source, tree);
        self.heap.push(0.0, source.0);
        while let Some((d, u)) = self.heap.pop() {
            let ui = u as usize;
            if d > self.dist[ui] {
                continue; // stale entry superseded by a later relaxation
            }
            if d > radius {
                break; // every remaining node lies outside the ball
            }
            self.settled.push(NodeId(u));
            if target == Some(NodeId(u)) {
                return;
            }
            for e in g.half_edges(NodeId(u)) {
                let nd = d + e.weight;
                let vi = e.to.index();
                if nd < self.live_dist(vi) {
                    self.dist[vi] = nd;
                    if tree {
                        self.parent[vi] = u;
                    }
                    self.stamp[vi] = self.generation;
                    self.heap.push(nd, e.to.0);
                }
            }
        }
    }

    /// The same run on a graph whose every edge weighs exactly 1.0, one
    /// layer at a time. A `tree` run sorts each layer by id and writes
    /// parents (see the module docs for why that is the heap loop's
    /// order and state, bit for bit); any other writes distances alone.
    fn run_layered(&mut self, g: &Graph, source: NodeId, radius: f64, tree: bool) {
        self.begin(g, source, tree);
        self.settled.push(source);
        // `settled[layer..]` is the current layer, every node at `d`.
        let (mut layer, mut d) = (0, 0.0);
        while layer < self.settled.len() {
            if d > radius {
                // The heap loop breaks on this layer's first pop: stamped
                // with `d > radius`, never settled.
                self.settled.truncate(layer);
                return;
            }
            let end = self.settled.len();
            if tree {
                self.settled[layer..end].sort_unstable();
            }
            let nd = d + 1.0;
            for i in layer..end {
                let u = self.settled[i];
                for &v in g.neighbors(u) {
                    let vi = v.index();
                    if self.stamp[vi] != self.generation {
                        self.stamp[vi] = self.generation;
                        self.dist[vi] = nd;
                        if tree {
                            self.parent[vi] = u.0;
                        }
                        self.settled.push(v);
                    }
                }
            }
            (layer, d) = (end, nd);
        }
    }

    /// Single-source shortest paths from `source` to every reachable
    /// node, as a search tree: read results via
    /// [`DijkstraWorkspace::dist`], [`DijkstraWorkspace::parent`] and
    /// [`DijkstraWorkspace::settled`] (ascending `(dist, node id)`, the
    /// seed solver's settle order). A caller that reads distances alone
    /// wants [`DijkstraWorkspace::bounded_ball`] with an infinite radius.
    pub fn sssp(&mut self, g: &Graph, source: NodeId) {
        self.run(g, source, f64::INFINITY, true);
    }

    /// Shortest-path distance from `u` to `v` (`INFINITY` if unreached),
    /// bit for bit what [`DijkstraWorkspace::sssp`] from `u` reads at `v`.
    ///
    /// On a unit-weight graph ([`Graph::is_unit_weight`]) this is a
    /// bidirectional breadth-first search; on any other it is the heap
    /// loop from `u`, stopped when `v` settles.
    ///
    /// **Nothing is readable afterwards:** the generation is bumped past
    /// every stamp the call wrote, so [`DijkstraWorkspace::dist`] reads
    /// `INFINITY`, [`DijkstraWorkspace::parent`] `None` and
    /// [`DijkstraWorkspace::settled`] is empty until the next run.
    pub fn distance(&mut self, g: &Graph, u: NodeId, v: NodeId) -> f64 {
        let d = if g.is_unit_weight() {
            self.meet(g, u, v)
        } else {
            self.run_heap(g, u, f64::INFINITY, Some(v), false);
            self.live_dist(v.index())
        };
        self.advance(1);
        self.settled.clear();
        self.back.clear();
        d
    }

    /// The unit-weight `distance`: `settled` grows the ball around `u`
    /// and `back` the ball around `v`, each with its current layer at the
    /// tail, stamped `fwd` and `bwd`. Each step expands one full layer of
    /// the smaller frontier. The balls were disjoint before the step, so
    /// the path through the first node the other side already stamped is
    /// a shortest one and its length is the layers expanded so far plus
    /// one.
    fn meet(&mut self, g: &Graph, u: NodeId, v: NodeId) -> f64 {
        self.reserve(g.node_count());
        if u == v {
            return 0.0;
        }
        let fwd = self.advance(2);
        let bwd = fwd + 1;
        self.settled.clear();
        self.stamp[u.index()] = fwd;
        self.settled.push(u);
        self.stamp[v.index()] = bwd;
        self.back.push(v);
        // Where each side's current layer starts, and the layers expanded
        // on both sides together (df + db).
        let (mut f_at, mut b_at, mut depth) = (0, 0, 0u32);
        loop {
            let (f_len, b_len) = (self.settled.len() - f_at, self.back.len() - b_at);
            if f_len.min(b_len) == 0 {
                return f64::INFINITY; // one side's component is exhausted
            }
            let met = if f_len <= b_len {
                expand_layer(g, &mut self.stamp, &mut self.settled, &mut f_at, fwd, bwd)
            } else {
                expand_layer(g, &mut self.stamp, &mut self.back, &mut b_at, bwd, fwd)
            };
            if met {
                return f64::from(depth + 1);
            }
            depth += 1;
        }
    }

    /// Dijkstra truncated at `radius`: settles exactly the nodes `v` with
    /// `d(source, v) <= radius` and returns them in nondecreasing
    /// distance — the paper's neighborhood `N(v, r)`. Nodes at one
    /// distance come in no promised order (by id on weighted graphs,
    /// in discovery order on unit-weight ones).
    ///
    /// After this call, [`DijkstraWorkspace::dist`] is exact for the
    /// returned nodes; nodes outside the ball hold tentative distances
    /// above `radius` or `INFINITY`, so `dist(v) <= radius` means "in the
    /// ball". A ball is distances only:
    /// [`DijkstraWorkspace::parent`] reads `None` after it.
    pub fn bounded_ball(&mut self, g: &Graph, source: NodeId, radius: f64) -> &[NodeId] {
        self.run(g, source, radius, false);
        &self.settled
    }

    /// Distance computed by the last run (`INFINITY` if `v` was never
    /// reached). Exact for settled nodes; see
    /// [`DijkstraWorkspace::bounded_ball`] for the truncated-run caveat.
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        self.live_dist(v.index())
    }

    /// Parent of `v` in the shortest-path tree of the last run if that
    /// was an [`DijkstraWorkspace::sssp`] (`None` for the source, for
    /// unreached nodes, and after any other run).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let vi = v.index();
        if self.tree && self.stamp[vi] == self.generation && self.parent[vi] != NO_PARENT {
            Some(NodeId(self.parent[vi]))
        } else {
            None
        }
    }

    /// Nodes settled by the last run, in settle order: nondecreasing
    /// distance, and ascending `(dist, node id)` after an
    /// [`DijkstraWorkspace::sssp`]. After a full run on a connected graph
    /// this is every node.
    pub fn settled(&self) -> &[NodeId] {
        &self.settled
    }

    /// Copies the last run's distances for nodes `0..n` into `out`
    /// (clearing it first), with `INFINITY` for unreached nodes.
    pub fn fill_dist(&self, out: &mut Vec<f64>) {
        let n = self.capacity();
        out.clear();
        out.reserve(n);
        for v in 0..n {
            out.push(self.live_dist(v));
        }
    }
}

/// One step of the bidirectional search: expands the current layer
/// `frontier[*at..]` of the side stamped `mine`, appending every
/// neighbour neither side has reached as the next layer, and moves `*at`
/// to it. Returns `true`, at once, on a neighbour stamped `theirs`.
fn expand_layer(
    g: &Graph,
    stamp: &mut [u32],
    frontier: &mut Vec<NodeId>,
    at: &mut usize,
    mine: u32,
    theirs: u32,
) -> bool {
    let end = frontier.len();
    for i in *at..end {
        for &v in g.neighbors(frontier[i]) {
            let s = &mut stamp[v.index()];
            if *s == theirs {
                return true;
            }
            if *s != mine {
                *s = mine;
                frontier.push(v);
            }
        }
    }
    *at = end;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn quad_heap_pops_in_total_order() {
        let mut h = QuadHeap::default();
        let items = [
            (3.0, 7u32),
            (1.0, 9),
            (1.0, 2),
            (0.5, 4),
            (3.0, 1),
            (2.0, 5),
            (0.5, 4),
        ];
        for &(d, v) in &items {
            h.push(d, v);
        }
        let mut popped = Vec::new();
        while let Some(x) = h.pop() {
            popped.push(x);
        }
        let mut expect = items.to_vec();
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(popped, expect);
    }

    /// Everything a caller can read back after a run, settled or not.
    type Readout = (Vec<u64>, Vec<Option<NodeId>>, Vec<NodeId>);

    fn readout(ws: &DijkstraWorkspace, g: &Graph) -> Readout {
        (
            g.nodes().map(|v| ws.dist(v).to_bits()).collect(),
            g.nodes().map(|v| ws.parent(v)).collect(),
            ws.settled().to_vec(),
        )
    }

    /// The readout with the settled list ordered by `(dist, id)`: a
    /// ball promises each distance's set of nodes, not their order.
    fn by_distance(ws: &DijkstraWorkspace, g: &Graph) -> Readout {
        let (dist, parent, mut settled) = readout(ws, g);
        settled.sort_by(|a, b| ws.dist(*a).total_cmp(&ws.dist(*b)).then(a.cmp(b)));
        (dist, parent, settled)
    }

    #[test]
    fn layered_loop_leaves_exactly_the_heap_loops_state() {
        let mut holed = generators::grid(6, 6).unwrap();
        holed.remove_node(NodeId(14)).unwrap();
        let graphs = [
            generators::grid(9, 7).unwrap(),
            generators::torus(5, 6).unwrap(),
            generators::ring(11).unwrap(),
            generators::line(9).unwrap(),
            generators::random_tree(50, 2).unwrap(),
            holed,
        ];
        // One workspace, the two loops and `distance` alternating on it: a
        // stamp or a heap entry left behind by one would surface in the
        // next.
        let mut ws = DijkstraWorkspace::new();
        for g in &graphs {
            assert!(g.is_unit_weight());
            let n = g.node_count();
            let blank: Readout = (vec![f64::INFINITY.to_bits(); n], vec![None; n], vec![]);
            for s in g.nodes() {
                let adjacent = g.neighbors(s).first().copied().unwrap_or(s);
                let targets = [s, adjacent, NodeId::from_index((s.index() * 7 + 3) % n)];
                ws.run_heap(g, s, f64::INFINITY, None, true);
                let full = readout(&ws, g).0;
                for radius in [f64::INFINITY, -1.0, 0.0, 0.5, 1.0, 2.5, 7.0, n as f64] {
                    let ctx = format!("n={n} source={s} radius={radius}");
                    // A search tree: every bit of the heap loop's state.
                    ws.run_heap(g, s, radius, None, true);
                    let want = readout(&ws, g);
                    ws.run_layered(g, s, radius, true);
                    assert_eq!(readout(&ws, g), want, "{ctx}");
                    // A ball: every distance (the early stop's tentative
                    // layer too), each distance's nodes, and no parents.
                    ws.run_heap(g, s, radius, None, false);
                    let want = readout(&ws, g);
                    assert_eq!(want.1, blank.1, "{ctx}: a heap ball left parents");
                    ws.run_layered(g, s, radius, false);
                    assert_eq!(by_distance(&ws, g), want, "{ctx}: ball");
                    for t in targets {
                        let d = ws.distance(g, s, t);
                        assert_eq!(d.to_bits(), full[t.index()], "n={n} {s} -> {t}");
                        assert_eq!(readout(&ws, g), blank, "n={n} {s} -> {t} left state");
                    }
                }
            }
        }
    }

    #[test]
    fn runs_and_distances_survive_the_generation_wrap() {
        let g = generators::grid(5, 4).unwrap();
        let n = g.node_count();
        let mut fresh = DijkstraWorkspace::new();
        let want: Vec<Readout> = g
            .nodes()
            .map(|s| {
                fresh.sssp(&g, s);
                readout(&fresh, &g)
            })
            .collect();
        let blank: Readout = (vec![f64::INFINITY.to_bits(); n], vec![None; n], vec![]);
        let pairs = [(0, 19), (7, 7), (3, 4), (12, 1), (19, 0)];
        // Every start from 8 values short of the wrap to the last one, so
        // the wrap lands inside each of `begin`'s, `meet`'s and the
        // retiring `advance`; the low stamps of the first run must not
        // come back to life after it.
        for short in 0..8 {
            let mut ws = DijkstraWorkspace::new();
            ws.sssp(&g, NodeId(5));
            ws.generation = u32::MAX - short;
            for (u, v) in pairs {
                ws.sssp(&g, NodeId(u));
                assert_eq!(readout(&ws, &g), want[u as usize], "short {short}");
                let d = ws.distance(&g, NodeId(u), NodeId(v));
                assert_eq!(d.to_bits(), want[u as usize].0[v as usize], "short {short}");
                assert_eq!(readout(&ws, &g), blank, "short {short}: {u} -> {v}");
            }
        }
    }

    #[test]
    fn sssp_matches_free_function() {
        let g = generators::grid(6, 5).unwrap();
        let mut ws = DijkstraWorkspace::new();
        for src in g.nodes() {
            ws.sssp(&g, src);
            let reference = crate::dijkstra(&g, src);
            for v in g.nodes() {
                assert_eq!(ws.dist(v), reference[v.index()]);
            }
        }
    }

    #[test]
    fn bounded_ball_matches_filtered_sssp() {
        let g = generators::torus(5, 5).unwrap();
        let mut ws = DijkstraWorkspace::new();
        let mut full = DijkstraWorkspace::new();
        for src in g.nodes() {
            for r in [0.0, 1.0, 2.5, 100.0] {
                ws.bounded_ball(&g, src, r);
                let ball = by_distance(&ws, &g).2;
                assert!(ws
                    .settled()
                    .windows(2)
                    .all(|w| ws.dist(w[0]) <= ws.dist(w[1])));
                full.sssp(&g, src);
                let expect: Vec<NodeId> = full
                    .settled()
                    .iter()
                    .copied()
                    .filter(|&v| full.dist(v) <= r)
                    .collect();
                assert_eq!(ball, expect, "src={src:?} r={r}");
                for &v in &ball {
                    assert_eq!(ws.dist(v), full.dist(v));
                }
            }
        }
    }

    #[test]
    fn targeted_early_exit_matches_full() {
        let g = generators::random_geometric(60, 10.0, 3.0, 13).unwrap();
        let mut ws = DijkstraWorkspace::new();
        let reference = crate::dijkstra(&g, NodeId(0));
        assert!(!g.is_unit_weight(), "the weighted arm: a heap run to `t`");
        for t in g.nodes() {
            assert_eq!(ws.distance(&g, NodeId(0), t), reference[t.index()]);
        }
    }

    #[test]
    fn generation_stamps_isolate_consecutive_runs() {
        let g = generators::line(12).unwrap();
        let mut ws = DijkstraWorkspace::new();
        // A tiny ball first, then a full run: no stale state may leak.
        ws.bounded_ball(&g, NodeId(0), 1.0);
        ws.sssp(&g, NodeId(11));
        for v in g.nodes() {
            assert_eq!(ws.dist(v), (11 - v.index()) as f64);
        }
    }

    #[test]
    fn only_a_search_tree_sizes_the_parent_array() {
        let grid = generators::grid(16, 16).unwrap();
        let weighted = generators::random_geometric(60, 8.0, 2.5, 4).unwrap();
        for g in [&grid, &weighted] {
            let n = g.node_count();
            let mut ws = DijkstraWorkspace::with_capacity(n);
            assert_eq!(ws.heap_bytes(), 12 * n, "a distance and a stamp a node");
            ws.bounded_ball(g, NodeId(3), 4.0);
            ws.bounded_ball(g, NodeId(5), f64::INFINITY);
            ws.distance(g, NodeId(0), NodeId::from_index(n - 1));
            assert!(ws.parent.is_empty(), "a ball or a distance sized parents");
            ws.sssp(g, NodeId(0));
            assert_eq!(ws.parent.len(), n);
            let lists =
                ws.heap.slots.capacity() * 16 + (ws.settled.capacity() + ws.back.capacity()) * 4;
            assert_eq!(ws.heap_bytes(), 16 * n + lists);
        }
    }

    #[test]
    fn workspace_grows_across_graph_sizes() {
        let small = generators::grid(3, 3).unwrap();
        let big = generators::grid(8, 8).unwrap();
        let mut ws = DijkstraWorkspace::new();
        ws.sssp(&small, NodeId(0));
        assert_eq!(ws.capacity(), 9);
        ws.sssp(&big, NodeId(0));
        assert_eq!(ws.capacity(), 64);
        assert_eq!(ws.dist(NodeId(63)), 14.0);
        // And back down: capacity stays, results are for the small graph.
        ws.sssp(&small, NodeId(8));
        assert_eq!(ws.dist(NodeId(0)), 4.0);
        assert_eq!(ws.settled().len(), 9);
    }
}
