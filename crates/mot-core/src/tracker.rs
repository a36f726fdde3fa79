//! The uniform tracker interface driven by the simulator.
//!
//! Corresponds to the operation triple of the paper's §3 problem
//! statement — `publish` / `move` / `query` — with every operation
//! returning the message distance it spent, so cost ratios against the
//! optimal offline algorithm can be accounted per operation
//! (DESIGN.md §2).
//!
//! Trackers themselves are idempotency-oblivious: `publish` upserts and
//! `move_object` rebinds to an absolute target, so replaying an entry
//! point twice is harmless but *billed* twice. Drivers that deliver
//! operations at-least-once (service mode, DESIGN.md §15) therefore
//! assign every call an [`crate::OpId`] and gate it through an
//! [`crate::OpLedger`] — effects and billing happen exactly once per id,
//! and a stale retry is fenced before it reaches the entry point.

use crate::object::ObjectId;
use crate::Result;
use mot_net::NodeId;

/// Result of a query operation.
///
/// ```
/// use mot_core::{QueryResult};
/// use mot_net::NodeId;
///
/// let q = QueryResult { proxy: NodeId(3), cost: 2.5 };
/// assert_eq!(q.proxy, NodeId(3)); // where the object is detected
/// assert!(q.cost > 0.0); // message distance billed to the querier
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryResult {
    /// The proxy node the query located.
    pub proxy: NodeId,
    /// Total message distance spent serving the query.
    pub cost: f64,
}

/// Result of a maintenance (move) operation.
///
/// ```
/// use mot_core::MoveOutcome;
/// use mot_net::NodeId;
///
/// let m = MoveOutcome { from: NodeId(1), cost: 4.0, climb: 3.0 };
/// // `from` is the structure's own record of the old proxy — the
/// // simulator cross-checks it against the workload's ground truth.
/// assert_eq!(m.from, NodeId(1));
/// // The climb to the meet is part of the cost; the rest went on
/// // pruning the stale branch.
/// assert!(m.climb <= m.cost);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveOutcome {
    /// The proxy the object moved away from (the structure's own record —
    /// the simulator checks it against ground truth).
    pub from: NodeId,
    /// Total message distance spent updating the structure.
    pub cost: f64,
    /// The share of `cost` billed by the climb from the new proxy to the
    /// meet: its hops' stored lengths, added bottom-up from 0.0 (0 when
    /// the object did not move). The concurrent engine bills a racing
    /// request's wasted distance against it.
    pub climb: f64,
}

/// A location-tracking structure: publish / maintenance / query with
/// message-distance cost accounting and a per-node load snapshot.
///
/// Implemented by [`crate::MotTracker`] (plain and load-balanced) and by
/// the STUN / DAT / Z-DAT baselines in `mot-baselines`, so experiments
/// treat every algorithm identically.
///
/// # Observability contract
///
/// Instrumented implementations accept a [`crate::TraceSink`] at
/// construction (`with_sink`) and then emit one [`crate::TraceEvent`]
/// per billed message hop plus a `TraceSink::op_complete` per finished
/// operation, such that the event distances of an operation sum to the
/// cost it returned. Hypothetical cost probes (e.g. the concurrent
/// engine's planning reads) must stay silent. Without a sink no event
/// is constructed: a traced-off run is bit-identical to one on an
/// uninstrumented build.
///
/// # Example
///
/// Publish an object, move it, and query it on a small grid:
///
/// ```
/// use mot_core::{MotConfig, MotTracker, ObjectId, Tracker};
/// use mot_hierarchy::{build_doubling, OverlayConfig};
/// use mot_net::{generators, DenseOracle, NodeId};
///
/// let g = generators::grid(4, 4)?;
/// let oracle = DenseOracle::build(&g)?;
/// let overlay = build_doubling(&g, &oracle, &OverlayConfig::practical(), 7);
/// let mut t = MotTracker::new(&overlay, &oracle, MotConfig::plain());
///
/// let o = ObjectId(0);
/// t.publish(o, NodeId(0))?;
/// let moved = t.move_object(o, NodeId(1))?;
/// assert_eq!(moved.from, NodeId(0));
/// let q = t.query(NodeId(15), o)?;
/// assert_eq!(q.proxy, NodeId(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait Tracker {
    /// Human-readable algorithm name used in reports.
    fn name(&self) -> String;

    /// One-time insertion of `o` at proxy `v`. Returns the message cost.
    fn publish(&mut self, o: ObjectId, proxy: NodeId) -> Result<f64>;

    /// Object `o` moved to proxy `to`; update the structure. Returns the
    /// old proxy, the maintenance cost and its climb share.
    fn move_object(&mut self, o: ObjectId, to: NodeId) -> Result<MoveOutcome>;

    /// Locate `o` from node `from`. Pure read: must not mutate lists.
    fn query(&self, from: NodeId, o: ObjectId) -> Result<QueryResult>;

    /// The structure's current proxy record for `o`.
    fn proxy_of(&self, o: ObjectId) -> Option<NodeId>;

    /// Per-node count of stored object/bookkeeping entries — the
    /// load metric of Figs. 8–11.
    fn node_loads(&self) -> Vec<usize>;

    // ---- fault model (optional) ---------------------------------------
    //
    // Trackers with a failure model override these; the defaults make
    // crashes invisible so baselines without one keep compiling and a
    // zero-fault run is bit-identical to a run without the fault layer.

    /// Marks sensor `u` as crashed: every tracking entry it stored is
    /// lost. Trackers with a failure model may eagerly hand objects
    /// proxied at `u` to a live neighbor (billing the handoff to the
    /// repair account); orphaned directory entries elsewhere are repaired
    /// lazily by the next operation that hits them.
    fn crash_node(&mut self, _u: NodeId) {}

    /// Marks sensor `u` as rebooted: alive again, with empty memory.
    fn recover_node(&mut self, _u: NodeId) {}

    /// Re-publishes the pointer path of `o` if crash damage is detected,
    /// billing the cost to the repair account. Returns the cost of this
    /// repair (0.0 when nothing was damaged).
    fn repair_object(&mut self, _o: ObjectId) -> Result<f64> {
        Ok(0.0)
    }

    /// Total message distance spent on crash repair so far (handoffs and
    /// path re-publications) — the degradation account reported by the
    /// fault experiments.
    fn repair_cost(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_types_are_value_like() {
        let q = QueryResult {
            proxy: NodeId(3),
            cost: 2.5,
        };
        let q2 = q;
        assert_eq!(q, q2);
        let m = MoveOutcome {
            from: NodeId(1),
            cost: 2.0,
            climb: 1.5,
        };
        let m2 = m;
        assert_eq!(m, m2);
        assert_eq!(m.from, NodeId(1));
        assert!(m.climb <= m.cost);
    }
}
