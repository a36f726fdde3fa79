//! Deterministic message transport with a distance-based cost ledger.
//!
//! The one-by-one case needs no timing model — a single operation's
//! messages are causally chained — so delivery is FIFO. Every delivered
//! message is billed its shortest-path distance under its payload kind;
//! the ledger separates charged protocol traffic from uncharged
//! bookkeeping (special-parent updates, repoints) and from query replies.

use crate::message::{Message, Payload, KIND_COUNT, KIND_LABELS};
use mot_core::{OpKind, TraceEvent, TracePhase, TraceSink};
use mot_net::DistanceOracle;
use std::collections::VecDeque;
use std::rc::Rc;

/// Emits one transport-level trace event for a billed delivery (free
/// when no sink is attached).
fn emit_msg(sink: &Option<Rc<dyn TraceSink>>, msg: &Message, dist: f64) {
    if let Some(s) = sink {
        s.event(&TraceEvent {
            op: OpKind::Transport,
            phase: TracePhase::Deliver,
            ledger: msg.payload.trace_ledger(),
            object: msg.payload.object(),
            src: msg.src,
            dst: msg.dst,
            level: msg.payload.trace_level() as u32,
            distance: dist,
        });
    }
}

/// Capped exponential backoff schedule for retry scheduling.
///
/// The delay before retry `attempt` is `base · 2^attempt`, saturated
/// against both 64-bit overflow and the configured `cap` — unbounded
/// doubling would overflow (and effectively park a message forever) past
/// attempt 63, and even below that an uncapped delay explodes far beyond
/// any useful retry horizon. Time units are whatever the caller ticks
/// in: the mot-sim service loop ticks in batches.
///
/// ```
/// use mot_proto::Backoff;
///
/// let b = Backoff::new(2, 100);
/// assert_eq!(b.delay(0), 2);
/// assert_eq!(b.delay(3), 16);
/// assert_eq!(b.delay(9), 100); // capped, not 1024
/// assert_eq!(b.delay(200), 100); // no overflow at absurd attempts
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// Delay of the first retry (must be ≥ 1).
    pub base: u64,
    /// Hard ceiling every delay saturates to (must be ≥ `base`).
    pub cap: u64,
}

impl Backoff {
    /// A schedule doubling from `base` up to `cap`.
    pub fn new(base: u64, cap: u64) -> Self {
        assert!(base >= 1, "zero base would retry without waiting");
        assert!(cap >= base, "cap below base would invert the schedule");
        Backoff { base, cap }
    }

    /// The delay before retry number `attempt` (0-based), capped and
    /// overflow-guarded.
    pub fn delay(&self, attempt: u32) -> u64 {
        if attempt >= u64::BITS {
            return self.cap;
        }
        self.base.saturating_mul(1u64 << attempt).min(self.cap)
    }
}

impl Default for Backoff {
    /// Doubling from 1, capped at 64 — a horizon past any realistic
    /// `max_attempts` budget while staying far from overflow.
    fn default() -> Self {
        Backoff { base: 1, cap: 64 }
    }
}

/// Per-kind accumulated message distance. Kinds live in a flat array
/// indexed by [`Payload::kind_index`] — billing happens once per
/// delivered message on the replay hot path, so it must not hash.
#[derive(Clone, Debug, Default)]
pub struct CostLedger {
    by_kind: [f64; KIND_COUNT],
    /// Total distance of charged messages since the last reset.
    pub charged: f64,
    /// Number of messages delivered since the last reset.
    pub messages: usize,
}

impl CostLedger {
    /// Distance accumulated under a payload kind (an unknown label
    /// reads as zero, matching the old map-backed behavior).
    pub fn of_kind(&self, kind: &str) -> f64 {
        KIND_LABELS
            .iter()
            .position(|&l| l == kind)
            .map_or(0.0, |i| self.by_kind[i])
    }

    fn bill(&mut self, payload: &Payload, dist: f64) {
        self.by_kind[payload.kind_index()] += dist;
        if payload.charged() {
            self.charged += dist;
        }
        self.messages += 1;
    }

    /// Clears the per-operation counters.
    pub fn reset(&mut self) {
        self.by_kind = [0.0; KIND_COUNT];
        self.charged = 0.0;
        self.messages = 0;
    }
}

/// FIFO message queue between sensor nodes.
#[derive(Default)]
pub struct Transport {
    queue: VecDeque<Message>,
    /// Cost accounting for every delivery.
    pub ledger: CostLedger,
    sink: Option<Rc<dyn TraceSink>>,
}

impl Transport {
    /// An empty reliable transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a structured-trace sink: every billed delivery emits a
    /// transport-level [`TraceEvent`]. Without one nothing is built.
    pub fn set_sink(&mut self, sink: Rc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Enqueues a message.
    pub fn send(&mut self, msg: Message) {
        self.queue.push_back(msg);
    }

    /// Enqueues a batch.
    pub fn send_all(&mut self, msgs: impl IntoIterator<Item = Message>) {
        for m in msgs {
            self.send(m);
        }
    }

    /// Pops the next message, billing its travel distance.
    pub fn deliver(&mut self, oracle: &dyn DistanceOracle) -> Option<Message> {
        let msg = self.queue.pop_front()?;
        let dist = oracle.dist(msg.src, msg.dst);
        self.ledger.bill(&msg.payload, dist);
        emit_msg(&self.sink, &msg, dist);
        Some(msg)
    }

    /// True when no messages remain in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_core::ObjectId;
    use mot_net::DenseOracle;
    use mot_net::{generators, NodeId};

    fn msg(src: u32, dst: u32, payload: Payload) -> Message {
        Message {
            src: NodeId(src),
            dst: NodeId(dst),
            payload,
        }
    }

    #[test]
    fn deliveries_are_fifo_and_billed_by_distance() {
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let mut t = Transport::new();
        t.send(msg(
            0,
            4,
            Payload::Delete {
                object: ObjectId(0),
                level: 1,
                members_remaining: vec![],
                continue_down: true,
            },
        ));
        t.send(msg(
            4,
            2,
            Payload::Reply {
                object: ObjectId(0),
                proxy: NodeId(2),
            },
        ));
        let first = t.deliver(&m).unwrap();
        assert_eq!(first.dst, NodeId(4));
        assert_eq!(t.ledger.charged, 4.0); // delete is charged
        let _second = t.deliver(&m).unwrap();
        assert_eq!(t.ledger.charged, 4.0); // reply is not
        assert_eq!(t.ledger.of_kind("reply"), 2.0);
        assert_eq!(t.ledger.messages, 2);
        assert!(t.is_idle());
        assert!(t.deliver(&m).is_none());
    }

    #[test]
    fn reliable_transport_sink_mirrors_the_ledger() {
        use mot_core::{LedgerKind, MemorySink};
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let sink = Rc::new(MemorySink::new());
        let mut t = Transport::new();
        t.set_sink(sink.clone());
        t.send(msg(
            0,
            4,
            Payload::Reply {
                object: ObjectId(0),
                proxy: NodeId(4),
            },
        ));
        t.deliver(&m).unwrap();
        assert_eq!(
            sink.ledger_total(LedgerKind::Bookkeeping),
            t.ledger.of_kind("reply")
        );
    }

    #[test]
    fn backoff_doubles_until_the_cap() {
        let b = Backoff::new(1, 16);
        let delays: Vec<u64> = (0..8).map(|a| b.delay(a)).collect();
        assert_eq!(delays, vec![1, 2, 4, 8, 16, 16, 16, 16]);
    }

    #[test]
    fn backoff_never_overflows_at_high_attempt_counts() {
        // Unbounded doubling overflows u64 past attempt 63; the schedule
        // must saturate to the cap instead of wrapping to tiny delays.
        let b = Backoff::new(u64::MAX / 2, u64::MAX);
        assert_eq!(b.delay(1), u64::MAX - 1);
        assert_eq!(b.delay(2), u64::MAX, "saturates, does not wrap");
        assert_eq!(b.delay(63), u64::MAX);
        assert_eq!(b.delay(64), u64::MAX, "shift ≥ 64 is guarded");
        assert_eq!(b.delay(u32::MAX), u64::MAX);
        let capped = Backoff::new(3, 1000);
        assert_eq!(capped.delay(200), 1000);
    }

    #[test]
    #[should_panic(expected = "cap below base")]
    fn backoff_rejects_inverted_bounds() {
        let _ = Backoff::new(8, 4);
    }

    #[test]
    fn reset_clears_operation_counters() {
        let g = generators::line(3).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let mut t = Transport::new();
        t.send(msg(
            0,
            2,
            Payload::Query {
                object: ObjectId(1),
                origin: NodeId(0),
                level: 0,
                index: 0,
            },
        ));
        t.deliver(&m).unwrap();
        assert!(t.ledger.charged > 0.0);
        t.ledger.reset();
        assert_eq!(t.ledger.charged, 0.0);
        assert_eq!(t.ledger.messages, 0);
        assert_eq!(t.ledger.of_kind("query"), 0.0);
    }
}
