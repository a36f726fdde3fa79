//! Byte-budgeted on-demand distance backend: the default at scale.
//!
//! [`DenseOracle`](super::DenseOracle) front-loads an O(n²) all-pairs
//! solve, and a cache of *full* rows would still make a transient query
//! (an object position billed once) cost a whole Dijkstra.
//! [`CachedOracle`] computes only what the query touches:
//!
//! * **`dist(u, v)` misses run a targeted Dijkstra** that stops the
//!   moment `v` settles — a few dozen settled nodes for the locally
//!   bounded pairs the trackers bill, never O(n) work.
//! * **`ball(u, r)` misses run a radius-bounded Dijkstra** (the same
//!   padded-ball + f32-filter discipline as the hierarchy builder), so
//!   neighborhood queries cost the neighborhood, not a row.
//! * **Hot sources get promoted to resident rows.** Every miss charges
//!   its settled-node count against the source; once a source has paid
//!   for a full SSSP's worth of work (≥ n settles), the next miss
//!   computes the complete row and parks it in a byte-budgeted LRU
//!   cache. Hierarchy stations and other structurally hot nodes promote
//!   almost immediately; transient object positions never do.
//!
//! The LRU is bounded by **bytes**, not row count
//! ([`CachedOracle::with_byte_budget`]): eviction walks
//! least-recently-touched rows until the footprint fits, always
//! retaining at least one row so a just-promoted source can be served.
//! [`CachedOracle::ledger`] exposes the hit/miss/eviction/promotion
//! counters; for a single-threaded query stream the ledger is fully
//! deterministic (same stream + same budget → same counters), which the
//! `cached_churn` test suite pins.
//!
//! Every distance this backend returns is the f32 quantization of the
//! exact Dijkstra distance from source `u` — precisely the bits the
//! dense matrix stores — so `dist`/`ball`/cost accounts are
//! bit-identical to the dense backend's (see `oracle_differential` and
//! the cross-crate `backend_parity`/`golden_costs` suites). Only
//! `diameter` is the documented double-sweep estimate.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use super::{CacheLedger, DistRow, DistanceOracle};
use crate::bits::{q32, BALL_PAD};
use crate::delta::{ChurnEvent, TopologyDelta};
use crate::error::NetError;
use crate::graph::{Edge, Graph};
use crate::node::NodeId;
use crate::workspace::DijkstraWorkspace;
use crate::Result;

/// Max pooled Dijkstra workspaces (one per plausibly concurrent miss).
const POOL: usize = 8;

/// Mutable cache state, all behind one lock so the ledger advances in
/// a single total order (what makes single-threaded runs replayable).
struct State {
    /// Source id → (resident row, last-touch stamp).
    rows: HashMap<u32, (Arc<DistRow>, u64)>,
    /// Sum of [`DistRow::bytes`] over resident rows.
    bytes: usize,
    /// Monotonic LRU clock; advanced on every row touch.
    clock: u64,
    /// Settled-node work accumulated by misses, per source; cleared on
    /// promotion so an evicted row has to earn its way back in.
    work: HashMap<u32, u64>,
    ledger: CacheLedger,
}

/// Distance oracle that answers misses with bounded solves and caches
/// full rows only for sources that earn them.
///
/// # Example
///
/// ```
/// use mot_net::{generators, CachedOracle, DistanceOracle, NodeId};
///
/// let g = generators::grid(4, 4)?;
/// let m = CachedOracle::new(&g)?; // O(1) construction
/// assert_eq!(m.dist(NodeId(0), NodeId(15)), 6.0); // targeted solve
/// let ledger = m.ledger();
/// assert_eq!((ledger.hits, ledger.misses), (0, 1));
/// assert_eq!(m.memory_bytes(), 0); // no row was worth caching yet
/// # Ok::<(), mot_net::NetError>(())
/// ```
pub struct CachedOracle {
    g: Graph,
    state: Mutex<State>,
    /// Pool of Dijkstra workspaces reused across misses, so a solve
    /// allocates nothing once the pool has warmed up.
    workspaces: Mutex<Vec<DijkstraWorkspace>>,
    byte_budget: usize,
    diameter: OnceLock<f64>,
}

impl std::fmt::Debug for CachedOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ledger = self.ledger();
        f.debug_struct("CachedOracle")
            .field("node_count", &self.g.node_count())
            .field("byte_budget", &self.byte_budget)
            .field("ledger", &ledger)
            .finish()
    }
}

/// What a miss should do, decided under the state lock.
enum Plan {
    Hit(Arc<DistRow>),
    Promote,
    Solve,
}

/// What [`CachedOracle::apply_delta`] did to the resident rows while
/// absorbing one [`TopologyDelta`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaInvalidation {
    /// Rows kept resident after an in-place patch (the event provably
    /// changed no distance the row reports, except entries for the
    /// departed node itself).
    pub rows_patched: u64,
    /// Rows dropped because a solve that produced them may have routed
    /// through the mutated region.
    pub rows_evicted: u64,
    /// Events absorbed.
    pub events: u64,
}

/// Conservative safety margin for quantized path comparisons: resident
/// rows hold f32-quantized distances (relative error ≤ 2⁻²⁴ per value),
/// so a strict inequality must hold by more than a couple of ulps
/// before it proves anything about the exact distances. 1e-6 relative
/// is ~8 f32 ulps — far above the quantization noise, far below any
/// meaningful path-length difference.
const Q_MARGIN: f64 = 1e-6;

impl CachedOracle {
    /// Heap bytes of one resident [`DistRow`] for an `n`-node graph.
    fn row_bytes(n: usize) -> usize {
        n * (std::mem::size_of::<f32>() + std::mem::size_of::<(f32, u32)>())
    }

    /// Default byte budget for an `n`-node graph: room for
    /// `max(n/16, 128)` rows, capped at 64 MiB — the dense matrix's
    /// footprint at [`super::OracleKind::DENSE_NODE_LIMIT`] — and never
    /// below a single row.
    pub fn default_byte_budget(n: usize) -> usize {
        const CAP: usize = 64 << 20;
        let row = Self::row_bytes(n.max(1));
        let rows = (n / 16).max(128);
        rows.saturating_mul(row).min(CAP).max(row)
    }

    /// Cumulative settled-node work after which a source's next miss
    /// computes and caches its full row: one SSSP's worth (`n`). Below
    /// the threshold misses stay bounded; past it, caching the row is
    /// cheaper than continuing to re-solve.
    pub fn promote_threshold(n: usize) -> u64 {
        n as u64
    }

    /// Validates the graph (connected, non-empty) and creates an oracle
    /// with [`CachedOracle::default_byte_budget`]. No distances are
    /// computed yet.
    pub fn new(g: &Graph) -> Result<Self> {
        Self::with_byte_budget(g, Self::default_byte_budget(g.node_count()))
    }

    /// As [`CachedOracle::new`] with an explicit LRU byte budget. The
    /// budget is honored whenever it admits at least one row; one row
    /// is always retained so promotion can never thrash to empty.
    pub fn with_byte_budget(g: &Graph, bytes: usize) -> Result<Self> {
        if g.node_count() == 0 {
            return Err(NetError::EmptyGraph);
        }
        if !g.is_connected() {
            return Err(NetError::Disconnected);
        }
        Ok(CachedOracle {
            g: g.clone(),
            state: Mutex::new(State {
                rows: HashMap::new(),
                bytes: 0,
                clock: 0,
                work: HashMap::new(),
                ledger: CacheLedger::default(),
            }),
            workspaces: Mutex::new(Vec::new()),
            byte_budget: bytes,
            diameter: OnceLock::new(),
        })
    }

    /// The configured LRU byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// The underlying graph (on-demand backends own a copy).
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Snapshot of the hit/miss/eviction/promotion counters and the
    /// resident-row footprint. Deterministic for a single-threaded
    /// query stream.
    pub fn ledger(&self) -> CacheLedger {
        let s = self.state.lock().expect("cache state poisoned");
        let mut ledger = s.ledger;
        ledger.resident_rows = s.rows.len();
        ledger.resident_bytes = s.bytes;
        ledger
    }

    fn take_ws(&self) -> DijkstraWorkspace {
        let mut pool = self.workspaces.lock().expect("workspace pool poisoned");
        pool.pop().unwrap_or_default()
    }

    fn put_ws(&self, ws: DijkstraWorkspace) {
        let mut pool = self.workspaces.lock().expect("workspace pool poisoned");
        if pool.len() < POOL {
            pool.push(ws);
        }
    }

    /// Ledger-advancing lookup: a resident row is a hit; otherwise the
    /// miss is counted and the caller learns whether `u` has crossed
    /// the promotion threshold.
    fn plan(&self, u: NodeId) -> Plan {
        let mut s = self.state.lock().expect("cache state poisoned");
        let State {
            rows,
            clock,
            work,
            ledger,
            ..
        } = &mut *s;
        if let Some((row, stamp)) = rows.get_mut(&u.0) {
            *clock += 1;
            *stamp = *clock;
            ledger.hits += 1;
            return Plan::Hit(Arc::clone(row));
        }
        ledger.misses += 1;
        if work.get(&u.0).copied().unwrap_or(0) >= Self::promote_threshold(self.g.node_count()) {
            Plan::Promote
        } else {
            Plan::Solve
        }
    }

    /// Charges a bounded solve's settled-node count against `u`.
    fn charge(&self, u: NodeId, settled: usize) {
        let mut s = self.state.lock().expect("cache state poisoned");
        *s.work.entry(u.0).or_insert(0) += settled as u64;
    }

    /// Computes `u`'s full row, inserts it into the LRU (first writer
    /// wins under a race — rows are deterministic, so both are
    /// identical), and evicts least-recently-touched rows until the
    /// byte budget holds again.
    fn promote(&self, u: NodeId) -> Arc<DistRow> {
        let mut ws = self.take_ws();
        ws.sssp(&self.g, u);
        let row = Arc::new(DistRow::from_workspace(&ws, self.g.node_count()));
        self.put_ws(ws);
        let mut s = self.state.lock().expect("cache state poisoned");
        s.ledger.promotions += 1;
        s.work.remove(&u.0);
        let State {
            rows,
            bytes,
            clock,
            ledger,
            ..
        } = &mut *s;
        *clock += 1;
        let entry = rows.entry(u.0).or_insert_with(|| {
            *bytes += row.bytes();
            (Arc::clone(&row), *clock)
        });
        entry.1 = *clock;
        let out = Arc::clone(&entry.0);
        while *bytes > self.byte_budget && rows.len() > 1 {
            // The just-touched row carries the maximum stamp, so the
            // minimum is always some other (evictable) row.
            let victim = rows
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&k, _)| k)
                .expect("non-empty row cache");
            if let Some((gone, _)) = rows.remove(&victim) {
                *bytes -= gone.bytes();
                ledger.evictions += 1;
            }
        }
        out
    }

    /// Bounded-ball miss: padded bounded Dijkstra, exact f32 filter,
    /// re-sorted by `(f32 distance, id)` — the dense row's ball order.
    /// (The bounded run settles by *exact* distance; two distinct exact
    /// distances can quantize onto the same f32, so the re-sort is what
    /// makes the order bit-identical to a row scan.)
    fn solve_ball(&self, u: NodeId, r: f64) -> Vec<(f32, u32)> {
        let mut ws = self.take_ws();
        let padded = if r > 0.0 { r * BALL_PAD } else { r };
        ws.bounded_ball(&self.g, u, padded);
        let mut out: Vec<(f32, u32)> = ws
            .settled()
            .iter()
            .filter_map(|&v| {
                let d = ws.dist(v) as f32;
                ((d as f64) <= r).then_some((d, v.0))
            })
            .collect();
        let settled = ws.settled().len();
        self.put_ws(ws);
        self.charge(u, settled);
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// Absorbs a topology delta: mutates the owned graph copy and
    /// invalidates exactly the resident rows the mutation could have
    /// stale-ed, keeping the rest (DESIGN.md §17).
    ///
    /// * **Leave(u)** — a row for source `s` survives (patched: its `u`
    ///   entry becomes `+∞`) iff for every former neighbor `w` of `u`
    ///   the row proves `d(s,w) < d(s,u) + w(u,w)` by a safe margin: no
    ///   shortest path from `s` enters and leaves `u`, so deleting `u`
    ///   changes no other distance the row stores. Rows that cannot
    ///   prove it — and the row for `u` itself — are evicted.
    /// * **Join(u)** — every resident row is evicted. A join changes
    ///   *every* row at slot `u` (from `+∞` to finite), and recomputing
    ///   that entry from already-quantized f32 neighbor distances would
    ///   double-round: the patched bits could disagree with what a
    ///   fresh Dijkstra stores. Bit-identity to a rebuilt oracle is the
    ///   contract, so joins fall back to re-solving on demand.
    ///
    /// Promotion work credits and the cached diameter estimate are
    /// reset (both were measured against the old topology). The dense
    /// backend has no incremental path at all: it stays the
    /// rebuild-only verifier the differential suites compare against.
    ///
    /// Requires exclusive access (`&mut self`) — concurrent queries
    /// observe either the old or the new topology, never a mix.
    pub fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<DeltaInvalidation> {
        let mut report = DeltaInvalidation::default();
        for ev in &delta.events {
            match ev {
                ChurnEvent::Leave(u) => {
                    let star = self.g.remove_node(*u)?;
                    self.invalidate_leave(*u, &star, &mut report);
                }
                ChurnEvent::Join { node, edges } => {
                    self.g.restore_node(*node, edges)?;
                    self.invalidate_join(&mut report);
                }
            }
            report.events += 1;
        }
        let s = self.state.get_mut().expect("cache state poisoned");
        // Work credits were earned against the old topology; promotion
        // decisions must not carry them across the mutation.
        s.work.clear();
        self.diameter = OnceLock::new();
        Ok(report)
    }

    /// Leave-event invalidation: patch provably-safe rows, evict the
    /// rest. `star` is the removed node's pre-removal edge star.
    fn invalidate_leave(&mut self, u: NodeId, star: &[Edge], report: &mut DeltaInvalidation) {
        let s = self.state.get_mut().expect("cache state poisoned");
        let mut evict: Vec<u32> = Vec::new();
        let mut patch: Vec<u32> = Vec::new();
        for (&src, (row, _)) in s.rows.iter() {
            if src == u.0 {
                evict.push(src);
                continue;
            }
            let vals = row.values();
            let du = vals[u.index()] as f64;
            // Any shortest path from `src` through `u` extends `src→u`
            // by one incident edge; if every such extension is beaten
            // outright, no stored distance routed through `u`.
            let safe = star.iter().all(|e| {
                let dw = vals[e.to.index()] as f64;
                dw < (du + e.weight) * (1.0 - Q_MARGIN)
            });
            if safe {
                patch.push(src);
            } else {
                evict.push(src);
            }
        }
        for src in evict {
            if let Some((gone, _)) = s.rows.remove(&src) {
                s.bytes -= gone.bytes();
                s.ledger.evictions += 1;
                report.rows_evicted += 1;
            }
        }
        for src in patch {
            if let Some((row, _)) = s.rows.get_mut(&src) {
                let mut vals = row.values().to_vec();
                vals[u.index()] = f32::INFINITY;
                *row = Arc::new(DistRow::from_f32(vals));
                report.rows_patched += 1;
            }
        }
    }

    /// Join-event invalidation: drop every resident row (see
    /// [`CachedOracle::apply_delta`] for why joins cannot patch).
    fn invalidate_join(&mut self, report: &mut DeltaInvalidation) {
        let s = self.state.get_mut().expect("cache state poisoned");
        let dropped = s.rows.len() as u64;
        s.ledger.evictions += dropped;
        report.rows_evicted += dropped;
        s.rows.clear();
        s.bytes = 0;
    }

    /// Double-sweep diameter estimate: the eccentricity of the node
    /// farthest from the first active node (f32-quantized, farthest
    /// ties to the largest id). A lower bound within 2× of the true
    /// diameter, exact on trees and grids. Runs through pooled
    /// workspaces without caching rows.
    fn double_sweep(&self) -> f64 {
        let n = self.g.node_count();
        // On a churned graph the sweep ranges over the active component.
        let start = self.g.active_nodes().next().unwrap_or(NodeId(0));
        let mut ws = self.take_ws();
        ws.sssp(&self.g, start);
        let mut far = (0.0f32, start.0);
        for v in 0..n {
            let d = ws.dist(NodeId::from_index(v)) as f32;
            if d.is_finite() && (d > far.0 || (d == far.0 && v as u32 > far.1)) {
                far = (d, v as u32);
            }
        }
        ws.sssp(&self.g, NodeId(far.1));
        let mut max = 0.0f32;
        for v in 0..n {
            let d = ws.dist(NodeId::from_index(v)) as f32;
            if d.is_finite() {
                max = max.max(d);
            }
        }
        self.put_ws(ws);
        max as f64
    }
}

impl DistanceOracle for CachedOracle {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        match self.plan(u) {
            Plan::Hit(row) => row.dist(v),
            Plan::Promote => self.promote(u).dist(v),
            Plan::Solve => {
                let mut ws = self.take_ws();
                let d = ws.sssp_targeted(&self.g, u, v);
                let settled = ws.settled().len();
                self.put_ws(ws);
                self.charge(u, settled);
                q32(d)
            }
        }
    }

    fn diameter(&self) -> f64 {
        *self.diameter.get_or_init(|| self.double_sweep())
    }

    fn ball(&self, u: NodeId, r: f64) -> Vec<NodeId> {
        match self.plan(u) {
            Plan::Hit(row) => row.ball(r),
            Plan::Promote => self.promote(u).ball(r),
            Plan::Solve => self
                .solve_ball(u, r)
                .into_iter()
                .map(|(_, i)| NodeId(i))
                .collect(),
        }
    }

    fn ball_size(&self, u: NodeId, r: f64) -> usize {
        match self.plan(u) {
            Plan::Hit(row) => row.ball_size(r),
            Plan::Promote => self.promote(u).ball_size(r),
            Plan::Solve => self.solve_ball(u, r).len(),
        }
    }

    fn ball_into(&self, u: NodeId, r: f64, out: &mut Vec<NodeId>) {
        out.clear();
        match self.plan(u) {
            Plan::Hit(row) => row.ball_into(r, out),
            Plan::Promote => self.promote(u).ball_into(r, out),
            Plan::Solve => out.extend(self.solve_ball(u, r).into_iter().map(|(_, i)| NodeId(i))),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.state.lock().expect("cache state poisoned").bytes
    }

    fn cache_stats(&self) -> Option<CacheLedger> {
        Some(self.ledger())
    }
}

#[cfg(test)]
mod tests {
    use super::super::DenseOracle;
    use super::*;
    use crate::generators;

    #[test]
    fn dist_matches_dense() {
        let g = generators::random_geometric(50, 8.0, 2.5, 17).unwrap();
        let dense = DenseOracle::build(&g).unwrap();
        let cached = CachedOracle::new(&g).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(cached.dist(u, v), dense.dist(u, v), "({u},{v})");
            }
        }
        let ledger = cached.ledger();
        assert!(ledger.promotions > 0, "50 queries/source must promote");
        assert!(ledger.hits > 0 && ledger.misses > 0);
    }

    #[test]
    fn ball_matches_dense_exactly() {
        let g = generators::grid(7, 6).unwrap();
        let dense = DenseOracle::build(&g).unwrap();
        let cached = CachedOracle::new(&g).unwrap();
        for u in g.nodes() {
            for r in [-1.0, 0.0, 1.0, 2.0, 3.5, 20.0] {
                assert_eq!(cached.ball(u, r), dense.ball(u, r), "u = {u}, r = {r}");
                assert_eq!(
                    cached.ball_size(u, r),
                    dense.ball_size(u, r),
                    "u = {u}, r = {r}"
                );
            }
        }
    }

    #[test]
    fn ball_order_matches_dense_on_weighted_graphs() {
        // Weighted topologies are where exact-f64 settle order and
        // f32-quantized row order can disagree on ties.
        for seed in 0..6 {
            let g = generators::random_geometric(60, 9.0, 2.5, seed).unwrap();
            let dense = DenseOracle::build(&g).unwrap();
            let cached = CachedOracle::new(&g).unwrap();
            let d = dense.diameter();
            for u in g.nodes().step_by(3) {
                for r in [1.0, 2.5, d / 2.0, d] {
                    assert_eq!(
                        cached.ball(u, r),
                        dense.ball(u, r),
                        "seed {seed} u {u} r {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn transient_sources_stay_row_free() {
        let g = generators::grid(10, 10).unwrap();
        let cached = CachedOracle::new(&g).unwrap();
        // One locally-bounded query per source: nobody earns a row.
        for u in g.nodes() {
            let v = NodeId::from_index((u.index() + 1) % 100);
            cached.dist(u, v);
        }
        let ledger = cached.ledger();
        assert_eq!(ledger.promotions, 0);
        assert_eq!(ledger.resident_rows, 0);
        assert_eq!(cached.memory_bytes(), 0);
    }

    #[test]
    fn hot_sources_promote_and_then_hit() {
        let g = generators::grid(10, 10).unwrap();
        let cached = CachedOracle::new(&g).unwrap();
        // Far targeted solves settle ~n nodes each: the second miss
        // crosses the threshold and promotes.
        cached.dist(NodeId(0), NodeId(99));
        cached.dist(NodeId(0), NodeId(98));
        let ledger = cached.ledger();
        assert_eq!(ledger.promotions, 1);
        assert_eq!(ledger.resident_rows, 1);
        cached.dist(NodeId(0), NodeId(55));
        assert_eq!(cached.ledger().hits, 1, "resident row must serve hits");
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let g = generators::grid(10, 10).unwrap();
        let budget = 2 * CachedOracle::row_bytes(100);
        let cached = CachedOracle::with_byte_budget(&g, budget).unwrap();
        for u in [0u32, 13, 37, 55, 99] {
            // Two far solves promote each source in turn.
            cached.dist(NodeId(u), NodeId(99 - u));
            cached.dist(NodeId(u), NodeId((u + 50) % 100));
            cached.dist(NodeId(u), NodeId((u + 1) % 100));
        }
        let ledger = cached.ledger();
        assert!(ledger.evictions > 0, "{ledger:?}");
        assert!(ledger.resident_rows <= 2, "{ledger:?}");
        assert!(cached.memory_bytes() <= budget, "{ledger:?}");
        // Evicted rows recompute transparently and exactly.
        assert_eq!(cached.dist(NodeId(0), NodeId(99)), 18.0);
    }

    #[test]
    fn diameter_is_exact_on_grids_and_trees_and_within_2x_elsewhere() {
        for seed in 0..6 {
            let g = generators::random_geometric(40, 8.0, 2.5, seed).unwrap();
            let exact = DenseOracle::build(&g).unwrap().diameter();
            let est = CachedOracle::new(&g).unwrap().diameter();
            assert!(
                est <= exact && est >= exact / 2.0,
                "seed {seed}: est {est} vs exact {exact}"
            );
        }
        for g in [
            generators::grid(8, 8).unwrap(),
            generators::random_tree(60, 4).unwrap(),
        ] {
            let exact = DenseOracle::build(&g).unwrap().diameter();
            assert_eq!(CachedOracle::new(&g).unwrap().diameter(), exact);
        }
    }

    #[test]
    fn concurrent_queries_agree() {
        let g = generators::grid(12, 12).unwrap();
        let dense = DenseOracle::build(&g).unwrap();
        let cached = CachedOracle::with_byte_budget(&g, CachedOracle::row_bytes(144) * 3).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (cached, dense, g) = (&cached, &dense, &g);
                s.spawn(move || {
                    for u in g.nodes().skip(t).step_by(4) {
                        for v in g.nodes().step_by(7) {
                            assert_eq!(cached.dist(u, v), dense.dist(u, v));
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn rejects_bad_graphs() {
        let mut b = crate::builder::GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build_unchecked();
        assert!(matches!(CachedOracle::new(&g), Err(NetError::Disconnected)));
    }

    #[test]
    fn default_budget_is_bounded_and_row_sized() {
        assert!(CachedOracle::default_byte_budget(4096) <= 64 << 20);
        assert!(CachedOracle::default_byte_budget(1 << 20) >= CachedOracle::row_bytes(1 << 20));
        assert!(CachedOracle::default_byte_budget(1) >= CachedOracle::row_bytes(1));
    }
}
