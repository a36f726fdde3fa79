//! On-demand distance backend: the default at scale.
//!
//! [`DenseOracle`](super::DenseOracle) front-loads an O(n²) all-pairs
//! solve. [`CachedOracle`] stores no distances and computes only what
//! each call touches: `dist(u, v)` runs [`DijkstraWorkspace::distance`]
//! — on unit-weight fields a bidirectional BFS that stops where the
//! balls around `u` and `v` meet, elsewhere a Dijkstra from `u` that
//! stops the moment `v` settles (a few dozen nodes for the locally
//! bounded pairs the trackers bill) — and `ball(u, r)` a radius-bounded
//! Dijkstra (the hierarchy builder's padded-ball + f32-filter
//! discipline). Solves run in pooled [`DijkstraWorkspace`]s; concurrent
//! callers share nothing but the pool's lock and one solve counter
//! ([`CachedOracle::solves`]). The oracle keeps a clone of the graph it
//! was built on, which shares the caller's CSR base (see
//! [`crate::Graph`]): it holds no second copy of the rows, and only a
//! delta it absorbs writes graph state of its own.
//!
//! Every distance returned is the f32 quantization of the exact
//! distance a Dijkstra from `u` reads — the bits the dense matrix stores
//! — so cost accounts are bit-identical to the dense backend's (see
//! `oracle_differential`, `backend_parity` and `golden_costs`). Only
//! `diameter` is the documented double-sweep estimate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use super::{CacheLedger, DistanceOracle};
use crate::bits::{q32, BALL_PAD};
use crate::delta::TopologyDelta;
use crate::error::NetError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::workspace::DijkstraWorkspace;
use crate::Result;

/// Max pooled Dijkstra workspaces (one per plausibly concurrent solve).
const POOL: usize = 8;

/// Distance oracle that answers every `dist` and `ball` with a bounded
/// solve over its own clone of the graph (sharing the caller's rows).
///
/// # Example
///
/// ```
/// use mot_net::{generators, CachedOracle, DistanceOracle, NodeId};
///
/// let g = generators::grid(4, 4)?;
/// let m = CachedOracle::new(&g)?; // O(1) construction
/// assert_eq!(m.dist(NodeId(0), NodeId(15)), 6.0); // one search
/// assert_eq!(m.solves(), 1);
/// assert_eq!(m.memory_bytes(), 0); // no distance is stored
/// assert!(m.graph().shares_base(&g)); // nor a second copy of the rows
/// # Ok::<(), mot_net::NetError>(())
/// ```
pub struct CachedOracle {
    g: Graph,
    /// Pool of Dijkstra workspaces reused across solves.
    workspaces: Mutex<Vec<DijkstraWorkspace>>,
    /// `dist` / `ball` / `ball_size` / `ball_into` calls answered.
    solves: AtomicU64,
    diameter: OnceLock<f64>,
}

impl std::fmt::Debug for CachedOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedOracle")
            .field("node_count", &self.g.node_count())
            .field("solves", &self.solves())
            .finish()
    }
}

impl CachedOracle {
    /// Validates the graph (connected, non-empty) and creates an oracle.
    /// No distances are computed yet.
    pub fn new(g: &Graph) -> Result<Self> {
        if g.node_count() == 0 {
            return Err(NetError::EmptyGraph);
        }
        if !g.is_connected() {
            return Err(NetError::Disconnected);
        }
        Ok(CachedOracle {
            g: g.clone(),
            workspaces: Mutex::new(Vec::new()),
            solves: AtomicU64::new(0),
            diameter: OnceLock::new(),
        })
    }

    /// The graph the oracle solves on: a clone of the one it was built
    /// on, sharing its CSR base until a delta applied here writes it.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Bounded solves run so far: one per `dist` / `ball` / `ball_size`
    /// / `ball_into` call (the diameter's double sweep is not counted).
    pub fn solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// Runs `f` on a pooled workspace. The lock is held only to pop or
    /// push, which leave the pool valid at every step, so a poisoned
    /// lock is recovered rather than propagated.
    fn with_ws<T>(&self, f: impl FnOnce(&mut DijkstraWorkspace) -> T) -> T {
        let lock = || self.workspaces.lock().unwrap_or_else(|e| e.into_inner());
        let mut ws = lock().pop().unwrap_or_default();
        let out = f(&mut ws);
        let mut pool = lock();
        if pool.len() < POOL {
            pool.push(ws);
        }
        out
    }

    /// Absorbs a topology delta: mutates the oracle's graph and resets
    /// the diameter estimate. The oracle holds no distances, so nothing
    /// else can go stale; the next solve runs on the new topology.
    ///
    /// Requires exclusive access (`&mut self`) — concurrent queries
    /// observe either the old or the new topology, never a mix.
    pub fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<()> {
        // Reset first: on error the graph keeps the events applied so far.
        self.diameter = OnceLock::new();
        delta.apply(&mut self.g)?;
        Ok(())
    }

    /// Double-sweep diameter estimate: the eccentricity of the node
    /// farthest from the first active node (f32-quantized, farthest
    /// ties to the largest id). A lower bound within 2× of the true
    /// diameter, exact on trees and grids.
    fn double_sweep(&self) -> f64 {
        let n = self.g.node_count();
        // On a churned graph the sweep ranges over the active component.
        let start = self.g.active_nodes().next().unwrap_or(NodeId(0));
        self.with_ws(|ws| {
            ws.bounded_ball(&self.g, start, f64::INFINITY);
            let far = (0..n as u32)
                .map(|v| (ws.dist(NodeId(v)) as f32, v))
                .filter(|(d, _)| d.is_finite())
                .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map_or(start, |(_, v)| NodeId(v));
            ws.bounded_ball(&self.g, far, f64::INFINITY);
            (0..n as u32)
                .map(|v| ws.dist(NodeId(v)) as f32)
                .filter(|d| d.is_finite())
                .fold(0f32, f32::max) as f64
        })
    }
}

impl DistanceOracle for CachedOracle {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        self.solves.fetch_add(1, Ordering::Relaxed);
        q32(self.with_ws(|ws| ws.distance(&self.g, u, v)))
    }

    fn diameter(&self) -> f64 {
        *self.diameter.get_or_init(|| self.double_sweep())
    }

    /// Padded bounded Dijkstra, exact f32 filter, re-sorted by
    /// `(f32 distance, id)` — the dense row's ball order. (The bounded
    /// run settles by *exact* distance; two distinct exact distances can
    /// quantize onto the same f32, so the re-sort is what makes the
    /// order bit-identical to a row scan.) `ball_size` and `ball_into`
    /// are the trait's defaults over this.
    fn ball(&self, u: NodeId, r: f64) -> Vec<NodeId> {
        self.solves.fetch_add(1, Ordering::Relaxed);
        let padded = if r > 0.0 { r * BALL_PAD } else { r };
        let mut out: Vec<(f32, u32)> = self.with_ws(|ws| {
            ws.bounded_ball(&self.g, u, padded);
            ws.settled()
                .iter()
                .filter_map(|&v| {
                    let d = ws.dist(v) as f32;
                    ((d as f64) <= r).then_some((d, v.0))
                })
                .collect()
        });
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.into_iter().map(|(_, i)| NodeId(i)).collect()
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    /// The pooled workspaces; the graph is shared with the caller (see
    /// the module docs).
    fn heap_bytes(&self) -> usize {
        let pool = self.workspaces.lock().unwrap_or_else(|e| e.into_inner());
        let buffers: usize = pool.iter().map(DijkstraWorkspace::heap_bytes).sum();
        buffers + pool.capacity() * std::mem::size_of::<DijkstraWorkspace>()
    }

    fn cache_stats(&self) -> Option<CacheLedger> {
        Some(CacheLedger {
            misses: self.solves(),
            ..Default::default()
        })
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
        assert_eq!(cached.solves(), 50 * 50);
    }

    #[test]
    fn nearest_in_solves_each_candidate_once() {
        let g = generators::grid(9, 9).unwrap();
        let dense = DenseOracle::build(&g).unwrap();
        let cached = CachedOracle::new(&g).unwrap();
        // Five ties at distance 4 from the centre, listed out of id order.
        let candidates = [76, 4, 36, 44, 80, 0, 20].map(NodeId);
        let u = NodeId(40);
        let nearest = cached.nearest_in(u, &candidates);
        assert_eq!(cached.solves(), candidates.len() as u64);
        assert_eq!(nearest, Some(NodeId(4)));
        assert_eq!(nearest, dense.nearest_in(u, &candidates));
        assert_eq!(cached.nearest_in(u, &[]), None);
        assert_eq!(cached.solves(), candidates.len() as u64);
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
        let cached = CachedOracle::new(&g).unwrap();
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
        // Each source once across the threads, 21 targets each.
        assert_eq!(cached.solves(), 144 * 21, "a call went uncounted");
    }

    #[test]
    fn rejects_bad_graphs() {
        let mut b = crate::builder::GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build_unchecked();
        assert!(matches!(CachedOracle::new(&g), Err(NetError::Disconnected)));
    }
}
