//! Structured operation traces — the observability layer's event schema.
//!
//! Every billed message hop in the suite (MOT climbs and descents, tree
//! climbs and prunes, protocol transmissions, crash handoffs, retries)
//! can emit one [`TraceEvent`] into a [`TraceSink`]. Sinks are attached
//! at tracker construction (`with_sink`); a tracker without a sink pays
//! nothing — the emit helpers branch on `Option<&dyn TraceSink>` and
//! never even construct the event, so a run with tracing disabled is
//! bit-identical to a run of the uninstrumented code.
//!
//! The schema tags each hop with:
//!
//! * the **operation** in progress ([`OpKind`]: publish / move / query /
//!   repair / raw transport),
//! * the **phase** within the operation ([`TracePhase`]: climb, descend,
//!   rollback, prune, SP install/remove, de Bruijn route, SDL jump,
//!   crash handoff, retransmission),
//! * the **ledger** the distance is billed to ([`LedgerKind`]; the
//!   `Repair` and `Retry` accounts are the fault-layer overheads),
//! * the **hierarchy level** touched (tree depth for the baselines),
//! * src/dst node and the billed distance.
//!
//! Aggregators (per-level cost ledgers, hop histograms) live in
//! `mot_sim::metrics`; NDJSON streaming lives behind the `experiments
//! --trace` flag. [`TraceEvent`]'s [`ToJson`] impl is the one canonical
//! JSON rendering, so every consumer writes the same schema.

use crate::json::{JsonWriter, ToJson};
use crate::object::ObjectId;
use mot_net::NodeId;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The operation a traced hop belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// One-time object publication.
    Publish,
    /// A maintenance (move) operation.
    Move,
    /// A location query.
    Query,
    /// Crash repair: proxy handoffs and pointer-path re-publishes.
    Repair,
    /// A raw protocol transmission (message-passing rendering) whose
    /// operation context lives in the payload, not the tracker.
    Transport,
}

impl OpKind {
    /// Stable lowercase label used by NDJSON/JSON exports.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Publish => "publish",
            OpKind::Move => "move",
            OpKind::Query => "query",
            OpKind::Repair => "repair",
            OpKind::Transport => "transport",
        }
    }
}

/// The cost account a traced hop is billed under.
///
/// `Maintenance`, `Query`, and `Publish` partition the charged traffic
/// of the paper's analysis; `Repair` and `Retry` are the fault-layer
/// overhead accounts (crash handoffs / path re-publishes, and wasted
/// transmissions under the ack/retry transport, respectively).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LedgerKind {
    /// One-time publish traffic (Thm 4.1's `O(D)` account).
    Publish,
    /// Move-driven trail updates (the maintenance cost ratio's account).
    Maintenance,
    /// Query climbs and descents (the query cost ratio's account).
    Query,
    /// Crash handoffs and pointer-path re-publishes.
    Repair,
    /// Wasted transmissions under the ack/retry transport.
    Retry,
    /// Uncharged protocol bookkeeping (special-parent updates, repoints,
    /// query replies) — traffic the paper's ratios exclude.
    Bookkeeping,
}

impl LedgerKind {
    /// Stable lowercase label used by NDJSON/JSON exports.
    pub fn label(&self) -> &'static str {
        match self {
            LedgerKind::Publish => "publish",
            LedgerKind::Maintenance => "maintenance",
            LedgerKind::Query => "query",
            LedgerKind::Repair => "repair",
            LedgerKind::Retry => "retry",
            LedgerKind::Bookkeeping => "bookkeeping",
        }
    }

    /// All ledger kinds, in export order.
    pub fn all() -> [LedgerKind; 6] {
        [
            LedgerKind::Publish,
            LedgerKind::Maintenance,
            LedgerKind::Query,
            LedgerKind::Repair,
            LedgerKind::Retry,
            LedgerKind::Bookkeeping,
        ]
    }
}

/// What a traced hop was doing within its operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    /// Upward hop along a detection path (station to station).
    Climb,
    /// Downward hop following detection-list holders toward the proxy.
    Descend,
    /// Reverse walk undoing a meet level's partial additions.
    Rollback,
    /// Downward deletion of a stale trail / tree branch.
    Prune,
    /// Special-parent SDL installation.
    SpInstall,
    /// Special-parent SDL removal.
    SpRemove,
    /// Intra-cluster de Bruijn routing under §5 load balancing.
    LbRoute,
    /// Query jump from a special parent to its guarded child.
    SdlJump,
    /// Crash handoff of a proxied object to the nearest live sensor.
    Handoff,
    /// A wasted transmission (drop, retransmission, duplicate arrival).
    Retransmit,
    /// A protocol message delivery (message-passing rendering).
    Deliver,
    /// A message whose retry budget ran out: recorded lost, never silent.
    Exhausted,
}

impl TracePhase {
    /// Stable lowercase label used by NDJSON/JSON exports.
    pub fn label(&self) -> &'static str {
        match self {
            TracePhase::Climb => "climb",
            TracePhase::Descend => "descend",
            TracePhase::Rollback => "rollback",
            TracePhase::Prune => "prune",
            TracePhase::SpInstall => "sp_install",
            TracePhase::SpRemove => "sp_remove",
            TracePhase::LbRoute => "lb_route",
            TracePhase::SdlJump => "sdl_jump",
            TracePhase::Handoff => "handoff",
            TracePhase::Retransmit => "retransmit",
            TracePhase::Deliver => "deliver",
            TracePhase::Exhausted => "exhausted",
        }
    }
}

/// One billed message hop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// The tracker operation the hop belongs to.
    pub op: OpKind,
    /// What the hop was doing within that operation.
    pub phase: TracePhase,
    /// The cost account the hop is billed under.
    pub ledger: LedgerKind,
    /// The tracked object the operation concerns.
    pub object: ObjectId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Hierarchy level touched (tree depth for the tree baselines; the
    /// level of the payload for protocol transmissions).
    pub level: u32,
    /// Message distance billed for this hop. The sum of a completed
    /// operation's event distances equals the cost the tracker returned
    /// for it — the invariant the per-level decompositions rest on.
    pub distance: f64,
}

/// One line of the `--trace` NDJSON schema.
impl ToJson for TraceEvent {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("op", self.op.label())
                .field("phase", self.phase.label())
                .field("ledger", self.ledger.label())
                .field("object", self.object.0)
                .field("src", self.src.0)
                .field("dst", self.dst.0)
                .field("level", self.level)
                .field("dist", self.distance);
        });
    }
}

/// A consumer of structured operation traces.
///
/// Methods take `&self` (queries are `&self` on trackers), so sinks use
/// interior mutability, and a sink is `Sync` so that a tracker holding
/// one can move between threads (the service hands a shard's tracker to
/// whichever thread runs its next tick). Implementations must not assume
/// events arrive from a single operation at a time in concurrent
/// executions; the one-by-one executors do guarantee it.
pub trait TraceSink: Sync {
    /// One billed message hop.
    fn event(&self, ev: &TraceEvent);

    /// An operation ran to completion with total billed cost `cost`
    /// (the sum of the distances of the events emitted since the
    /// previous `op_complete`). Default: ignored.
    fn op_complete(&self, _op: OpKind, _object: ObjectId, _cost: f64) {}
}

/// A sink that keeps every event in memory — the reference consumer for
/// determinism and sum-to-cost tests.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
    ops: Mutex<Vec<(OpKind, ObjectId, f64)>>,
}

/// Locks a sink's buffer. A panic elsewhere cannot leave a half-pushed
/// entry behind, so a poisoned lock still holds whole values.
fn held<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events seen so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        held(&self.events).clone()
    }

    /// All completed operations `(op, object, cost)`, in order.
    pub fn ops(&self) -> Vec<(OpKind, ObjectId, f64)> {
        held(&self.ops).clone()
    }

    /// Sum of event distances billed under `ledger`.
    pub fn ledger_total(&self, ledger: LedgerKind) -> f64 {
        held(&self.events)
            .iter()
            .filter(|e| e.ledger == ledger)
            .map(|e| e.distance)
            .sum()
    }
}

impl TraceSink for MemorySink {
    fn event(&self, ev: &TraceEvent) {
        held(&self.events).push(*ev);
    }

    fn op_complete(&self, op: OpKind, object: ObjectId, cost: f64) {
        held(&self.ops).push((op, object, cost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_schema_is_stable() {
        let ev = TraceEvent {
            op: OpKind::Move,
            phase: TracePhase::Climb,
            ledger: LedgerKind::Maintenance,
            object: ObjectId(3),
            src: NodeId(5),
            dst: NodeId(9),
            level: 2,
            distance: 4.0,
        };
        assert_eq!(
            JsonWriter::render(&ev),
            "{\"op\":\"move\",\"phase\":\"climb\",\"ledger\":\"maintenance\",\
             \"object\":3,\"src\":5,\"dst\":9,\"level\":2,\"dist\":4.0}"
        );
    }

    #[test]
    fn fractional_distances_round_trip() {
        let ev = TraceEvent {
            op: OpKind::Query,
            phase: TracePhase::Descend,
            ledger: LedgerKind::Query,
            object: ObjectId(0),
            src: NodeId(0),
            dst: NodeId(1),
            level: 0,
            distance: 2.5,
        };
        assert!(JsonWriter::render(&ev).contains("\"dist\":2.5"));
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let s = MemorySink::new();
        for i in 0..3 {
            s.event(&TraceEvent {
                op: OpKind::Publish,
                phase: TracePhase::Climb,
                ledger: LedgerKind::Publish,
                object: ObjectId(0),
                src: NodeId(i),
                dst: NodeId(i + 1),
                level: i,
                distance: 1.0,
            });
        }
        s.op_complete(OpKind::Publish, ObjectId(0), 3.0);
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.events()[2].src, NodeId(2));
        assert_eq!(s.ops(), vec![(OpKind::Publish, ObjectId(0), 3.0)]);
        assert_eq!(s.ledger_total(LedgerKind::Publish), 3.0);
        assert_eq!(s.ledger_total(LedgerKind::Query), 0.0);
    }

    #[test]
    fn labels_are_lowercase_and_distinct() {
        let labels = [
            OpKind::Publish.label(),
            OpKind::Move.label(),
            OpKind::Query.label(),
            OpKind::Repair.label(),
            OpKind::Transport.label(),
        ];
        let mut uniq = labels.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), labels.len());
        for l in LedgerKind::all() {
            assert_eq!(l.label(), l.label().to_lowercase());
        }
    }
}
