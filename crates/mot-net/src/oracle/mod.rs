//! Pluggable distance oracles.
//!
//! Every cost account and hierarchy radius query in the suite goes
//! through the [`DistanceOracle`] trait: "how far apart are `u` and
//! `v`?", "which nodes lie within `r` of `u`?", "what is the network
//! diameter?". Two backends implement it:
//!
//! * [`DenseOracle`] — the precomputed all-pairs matrix (parallel
//!   Dijkstra, O(n²) f32 storage). Exact everything; the right choice
//!   up to a few thousand nodes ([`OracleKind::DENSE_NODE_LIMIT`]),
//!   and the parity verifier the other backend is tested against.
//! * [`CachedOracle`] — a stateless solver: every call runs a bounded
//!   solve (a point-to-point search for `dist` — bidirectional BFS on
//!   unit-weight fields — and a radius-bounded one for `ball`) and
//!   nothing is stored. The default at scale: no query ever costs
//!   more than what it touches, and memory does not grow with n². Its
//!   diameter is a double-sweep estimate (a lower bound within 2× of
//!   the true diameter, exact on trees and grids).
//!
//! Both quantize distances through `f32` ([`q32`](crate::q32)), so
//! switching backends never changes a cost account (see the
//! `oracle_differential` integration tests).
//!
//! [`OracleKind`] is the configuration-level selector; consumers take
//! `&dyn DistanceOracle` and never name a concrete backend.

mod cached;
mod dense;

pub use cached::CachedOracle;
pub use dense::DenseOracle;

use crate::graph::Graph;
use crate::node::NodeId;
use crate::Result;

/// Shortest-path distance queries over a fixed connected graph.
///
/// Implementations are thread-safe (`Send + Sync`) so one oracle can
/// back parallel construction and concurrent replay. Distances are
/// quantized through `f32` by every backend, which keeps cost accounts
/// bit-identical when backends are swapped.
///
/// # Example
///
/// ```
/// use mot_net::{generators, DenseOracle, DistanceOracle, NodeId};
///
/// let g = generators::grid(3, 3)?; // unit-weight 3×3 grid
/// let m = DenseOracle::build(&g)?;
/// assert_eq!(m.dist(NodeId(0), NodeId(8)), 4.0); // corner to corner
/// assert_eq!(m.diameter(), 4.0);
/// // N(u, r): nodes within distance 1 of the center, itself included
/// assert_eq!(m.ball(NodeId(4), 1.0).len(), 5);
/// # Ok::<(), mot_net::NetError>(())
/// ```
pub trait DistanceOracle: Send + Sync {
    /// Number of nodes covered by the oracle.
    fn node_count(&self) -> usize;

    /// Shortest-path distance between `u` and `v`.
    fn dist(&self, u: NodeId, v: NodeId) -> f64;

    /// Network diameter `D = max_{u,v} dist(u, v)` — or, on the
    /// on-demand backend, a double-sweep estimate `est` with
    /// `D/2 ≤ est ≤ D` (exact on trees and grids).
    fn diameter(&self) -> f64;

    /// All nodes within distance `r` of `u` (inclusive; includes `u`) —
    /// the paper's neighborhood `N(u, r)` — sorted by distance from
    /// `u`, ties by node id.
    fn ball(&self, u: NodeId, r: f64) -> Vec<NodeId>;

    /// Number of nodes within distance `r` of `u` (inclusive).
    fn ball_size(&self, u: NodeId, r: f64) -> usize {
        self.ball(u, r).len()
    }

    /// [`ball`](Self::ball) into a caller-owned buffer (cleared first),
    /// so tight query loops can reuse one allocation. The default
    /// delegates to `ball`; backends with a sorted row override it to
    /// copy the prefix directly.
    fn ball_into(&self, u: NodeId, r: f64, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.ball(u, r));
    }

    /// The member of `candidates` nearest to `u`, ties broken by
    /// smallest node id (the paper breaks parent ties arbitrarily; ID
    /// order keeps runs reproducible). `None` on an empty list. Reads
    /// each candidate's distance once.
    fn nearest_in(&self, u: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        candidates
            .iter()
            .map(|&c| (self.dist(u, c), c))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            })
            .map(|(_, c)| c)
    }

    /// Total length of a node walk `p_0 → p_1 → … → p_k` where
    /// consecutive hops travel along shortest physical paths (the cost
    /// model for all overlay messages).
    fn walk_length(&self, walk: &[NodeId]) -> f64 {
        walk.windows(2).map(|w| self.dist(w[0], w[1])).sum()
    }

    /// Approximate heap footprint of the backend's distance storage at
    /// call time, in bytes: the full matrix for dense, 0 for cached
    /// (it stores no distances). Experiment reports use this to compare
    /// backends at scale.
    fn memory_bytes(&self) -> usize;

    /// Heap bytes the backend owns beyond the graph it answers on: its
    /// stored distances and whatever it keeps to compute them (the
    /// dense backend's sorted ball rows, the on-demand backend's pooled
    /// workspaces). The graph is the caller's, counted by
    /// [`Graph::heap_bytes`] once. Defaults to
    /// [`memory_bytes`](Self::memory_bytes), which a backend that keeps
    /// nothing else need not override.
    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Solve counters for backends that solve on demand
    /// ([`CachedOracle`]); `None` for backends without a ledger.
    /// Experiment reports surface these to show how much distance work
    /// a replay actually performed.
    fn cache_stats(&self) -> Option<CacheLedger> {
        None
    }
}

/// Snapshot of an on-demand backend's distance work (see
/// [`DistanceOracle::cache_stats`]). [`CachedOracle`] reports every
/// call as a miss — its [`solves`](CachedOracle::solves) — and leaves
/// the other fields 0; they remain because reports serialise them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLedger {
    /// Queries answered from stored distances.
    pub hits: u64,
    /// Queries that ran a bounded Dijkstra solve.
    pub misses: u64,
    /// Stored rows dropped.
    pub evictions: u64,
    /// Full rows computed and stored.
    pub promotions: u64,
    /// Rows stored when the snapshot was taken.
    pub resident_rows: usize,
    /// Bytes held by stored rows (equals `memory_bytes()`).
    pub resident_bytes: usize,
}

/// The node nearest to `u`, other than `u` itself, that `accept` takes;
/// ties broken by smallest node id — what
/// [`DistanceOracle::nearest_in`] would pick from every accepted node.
/// Searches balls of doubling radius around `u`, which come sorted by
/// `(distance, id)`, so the cost is the neighbourhood that had to be
/// looked at, not a distance read per node of the network. `None` when
/// no node qualifies. Both trackers' crash handoff asks this.
pub fn nearest_where(
    oracle: &dyn DistanceOracle,
    u: NodeId,
    mut accept: impl FnMut(NodeId) -> bool,
) -> Option<NodeId> {
    let mut ball = Vec::new();
    let mut r = 1.0;
    loop {
        oracle.ball_into(u, r, &mut ball);
        let found = ball.iter().copied().find(|&v| v != u && accept(v));
        if found.is_some() || ball.len() >= oracle.node_count() || r == f64::INFINITY {
            return found;
        }
        r *= 2.0;
    }
}

/// Boxed oracles are oracles, so owners of a `Box<dyn DistanceOracle>`
/// can hand out `&self.oracle` wherever `&dyn DistanceOracle` is asked
/// for.
impl<T: DistanceOracle + ?Sized> DistanceOracle for Box<T> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        (**self).dist(u, v)
    }

    fn diameter(&self) -> f64 {
        (**self).diameter()
    }

    fn ball(&self, u: NodeId, r: f64) -> Vec<NodeId> {
        (**self).ball(u, r)
    }

    fn ball_size(&self, u: NodeId, r: f64) -> usize {
        (**self).ball_size(u, r)
    }

    fn ball_into(&self, u: NodeId, r: f64, out: &mut Vec<NodeId>) {
        (**self).ball_into(u, r, out)
    }

    fn nearest_in(&self, u: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        (**self).nearest_in(u, candidates)
    }

    fn walk_length(&self, walk: &[NodeId]) -> f64 {
        (**self).walk_length(walk)
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }

    fn cache_stats(&self) -> Option<CacheLedger> {
        (**self).cache_stats()
    }
}

impl std::fmt::Debug for dyn DistanceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceOracle")
            .field("node_count", &self.node_count())
            .finish()
    }
}

/// Which distance backend to run an experiment on.
///
/// # Selection rule (`Auto`)
///
/// `Auto` picks [`DenseOracle`] up to [`OracleKind::DENSE_NODE_LIMIT`]
/// nodes — the n² matrix is cheap there, exact, and the fastest thing
/// to query — and [`CachedOracle`] beyond it: a bounded Dijkstra solve
/// per call and no stored distances, so neither query time nor memory
/// grows with n². Either backend stays available as an explicit opt-in
/// at any size, dense chiefly as the parity verifier (`--oracle
/// dense`).
///
/// Re-exported through `mot_core::config` for experiment
/// configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleKind {
    /// Dense for small deployments, cached past the node limit.
    #[default]
    Auto,
    /// Full n² matrix of exact distances ([`DenseOracle`]).
    Dense,
    /// A bounded solve per call, nothing stored ([`CachedOracle`]).
    Cached,
}

impl OracleKind {
    /// Largest node count `Auto` still solves densely: a 64×64 grid,
    /// 4096² f32 entries = 64 MiB. A 128×128 grid would already need
    /// 1 GiB — that is what the cached backend exists for.
    pub const DENSE_NODE_LIMIT: usize = 4096;

    /// The concrete backend `Auto` resolves to for an `n`-node graph:
    /// [`OracleKind::Dense`] up to [`OracleKind::DENSE_NODE_LIMIT`],
    /// [`OracleKind::Cached`] beyond (see the type-level docs for why).
    pub fn resolve(self, n: usize) -> OracleKind {
        match self {
            OracleKind::Auto => {
                if n <= Self::DENSE_NODE_LIMIT {
                    OracleKind::Dense
                } else {
                    OracleKind::Cached
                }
            }
            other => other,
        }
    }

    /// Builds the selected backend for `g`.
    pub fn build(self, g: &Graph) -> Result<Box<dyn DistanceOracle>> {
        Ok(match self.resolve(g.node_count()) {
            OracleKind::Dense => Box::new(DenseOracle::build(g)?),
            OracleKind::Cached => Box::new(CachedOracle::new(g)?),
            OracleKind::Auto => unreachable!("resolve never returns Auto"),
        })
    }

    /// CLI / config spelling.
    pub fn parse(s: &str) -> Option<OracleKind> {
        match s {
            "auto" => Some(OracleKind::Auto),
            "dense" => Some(OracleKind::Dense),
            "cached" => Some(OracleKind::Cached),
            _ => None,
        }
    }

    /// Stable lowercase name (the inverse of [`OracleKind::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::Auto => "auto",
            OracleKind::Dense => "dense",
            OracleKind::Cached => "cached",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn auto_resolves_by_node_count() {
        assert_eq!(OracleKind::Auto.resolve(4096), OracleKind::Dense);
        assert_eq!(OracleKind::Auto.resolve(4097), OracleKind::Cached);
        assert_eq!(OracleKind::Cached.resolve(10), OracleKind::Cached);
        assert_eq!(OracleKind::Dense.resolve(10_000), OracleKind::Dense);
    }

    #[test]
    fn kind_parse_and_label_roundtrip() {
        for kind in [OracleKind::Auto, OracleKind::Dense, OracleKind::Cached] {
            assert_eq!(OracleKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(OracleKind::parse("sparse"), None);
    }

    #[test]
    fn factory_builds_every_backend() {
        let g = generators::grid(4, 4).unwrap();
        for kind in [OracleKind::Auto, OracleKind::Dense, OracleKind::Cached] {
            let o = kind.build(&g).unwrap();
            assert_eq!(o.node_count(), 16);
            assert_eq!(o.dist(NodeId(0), NodeId(15)), 6.0);
        }
    }

    #[test]
    fn cache_stats_default_is_none_and_forwards_through_box() {
        let g = generators::grid(4, 4).unwrap();
        assert!(OracleKind::Dense.build(&g).unwrap().cache_stats().is_none());
        let cached = OracleKind::Cached.build(&g).unwrap();
        cached.dist(NodeId(0), NodeId(15));
        let ledger = cached.cache_stats().expect("cached keeps a ledger");
        assert_eq!(ledger.misses, 1);
    }

    #[test]
    fn nearest_where_picks_what_nearest_in_picks_from_every_accepted_node() {
        let g = generators::random_geometric(60, 8.0, 2.5, 3).unwrap();
        let m = OracleKind::Dense.build(&g).unwrap();
        let accept = |v: NodeId| !v.index().is_multiple_of(3);
        for u in g.nodes() {
            let accepted: Vec<NodeId> = g.nodes().filter(|&v| v != u && accept(v)).collect();
            assert_eq!(
                nearest_where(&*m, u, accept),
                m.nearest_in(u, &accepted),
                "from {u}"
            );
        }
        assert_eq!(nearest_where(&*m, NodeId(0), |_| false), None);
    }

    #[test]
    fn trait_object_debug_is_printable() {
        let g = generators::grid(3, 3).unwrap();
        let o = OracleKind::Dense.build(&g).unwrap();
        assert!(format!("{o:?}").contains("node_count"));
    }
}
