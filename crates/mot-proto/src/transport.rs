//! Deterministic message transport with a distance-based cost ledger.
//!
//! The one-by-one case needs no timing model — a single operation's
//! messages are causally chained — so delivery is FIFO. Every delivered
//! message is billed its shortest-path distance under its payload kind;
//! the ledger separates charged protocol traffic from uncharged
//! bookkeeping (special-parent updates, repoints) and from query replies.

use crate::faults::FaultModel;
use crate::message::{Message, Payload, KIND_COUNT, KIND_LABELS};
use mot_core::{LedgerKind, OpId, OpKind, OpLedger, TraceEvent, TracePhase, TraceSink};
use mot_net::DistanceOracle;
use std::collections::VecDeque;
use std::rc::Rc;

/// Emits one transport-level trace event for a billed transmission
/// (free when no sink is attached). `retry` bills the hop to the retry
/// ledger with a `Retransmit` phase regardless of the payload.
fn emit_msg(sink: &Option<Rc<dyn TraceSink>>, msg: &Message, dist: f64, retry: bool) {
    if let Some(s) = sink {
        s.event(&TraceEvent {
            op: OpKind::Transport,
            phase: if retry {
                TracePhase::Retransmit
            } else {
                TracePhase::Deliver
            },
            ledger: if retry {
                LedgerKind::Retry
            } else {
                msg.payload.trace_ledger()
            },
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
/// in: queue slots for [`LossyTransport`]'s implicit timeout, service
/// batches for the mot-sim service loop.
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

/// Ledger kind under which fault overhead is billed: lost transmissions,
/// retransmissions, and redundant duplicate arrivals. Never charged —
/// each operation's charged cost stays "one bill per effective delivery"
/// so zero-fault runs are bit-identical to the reliable transport.
pub const RETRIES_KIND: &str = "retries";

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
    /// Messages whose retry budget was exhausted since the last reset —
    /// recorded loss, never silent. Every message a lossy transport
    /// accepts ends as a delivery or here.
    pub lost_messages: usize,
    /// Distance of the undeliverable hop of each lost message (the
    /// wasted attempts themselves accrue under [`RETRIES_KIND`]).
    pub lost_distance: f64,
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

    /// Bills a wasted transmission (drop, retransmission, or duplicate
    /// arrival) to the [`RETRIES_KIND`] account without charging it.
    fn bill_retry(&mut self, dist: f64) {
        self.by_kind[KIND_COUNT - 1] += dist;
        self.messages += 1;
    }

    /// Records a message that exhausted its retry budget.
    fn record_lost(&mut self, dist: f64) {
        self.lost_messages += 1;
        self.lost_distance += dist;
    }

    /// Total fault overhead (lost + duplicate transmission distance)
    /// since the last reset.
    pub fn retries(&self) -> f64 {
        self.of_kind(RETRIES_KIND)
    }

    /// Clears the per-operation counters.
    pub fn reset(&mut self) {
        self.by_kind = [0.0; KIND_COUNT];
        self.charged = 0.0;
        self.messages = 0;
        self.lost_messages = 0;
        self.lost_distance = 0.0;
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
        emit_msg(&self.sink, &msg, dist, false);
        Some(msg)
    }

    /// True when no messages remain in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

/// What a [`LossyTransport::deliver`] call produced.
#[derive(Debug)]
pub enum Delivery {
    /// First successful arrival of this message: apply its effects.
    Apply(Message),
    /// A redundant duplicate of an already-applied message; billed as
    /// retry overhead. The handler must NOT run again.
    Duplicate(Message),
    /// The retry budget is exhausted; the operation cannot complete.
    Failed {
        /// The undeliverable message.
        msg: Message,
        /// Transmission attempts consumed.
        attempts: u32,
    },
}

/// A message with its ack/retry bookkeeping.
#[derive(Debug)]
struct InFlight {
    /// Per-message sequence number: the dedup key that makes redelivery
    /// idempotent (effects are applied exactly once per sequence number).
    seq: u64,
    /// Transmission attempts made so far.
    attempt: u32,
    msg: Message,
}

/// A lossy FIFO transport: every transmission consults a [`FaultModel`]
/// (drop? duplicate? receiver crashed?) and charged traffic is protected
/// by an ack/retry protocol — a lost transmission is retransmitted from
/// the back of the queue (the implicit ack timeout is one queue pass;
/// drivers that schedule retries in real or simulated time use the
/// explicit capped [`Backoff`] schedule instead) until `max_attempts`
/// is reached, at which point delivery fails *loudly*: the sequence
/// number is recorded in [`LossyTransport::ops`], the cost ledger's
/// `lost_messages` counter, and a [`TracePhase::Exhausted`] event.
///
/// Billing: each effective delivery is billed once, exactly like the
/// reliable [`Transport`]; all wasted distance (drops, retransmissions
/// that were themselves dropped, duplicate arrivals) accrues under the
/// uncharged [`RETRIES_KIND`]. Over a clean fault model the ledger is
/// therefore bit-identical to the reliable transport's.
pub struct LossyTransport {
    queue: VecDeque<InFlight>,
    /// Cost accounting; wasted distance accrues under [`RETRIES_KIND`].
    pub ledger: CostLedger,
    faults: Box<dyn FaultModel>,
    /// Transmission attempts per message before giving up.
    pub max_attempts: u32,
    next_seq: u64,
    /// Exactly-once admission: sequence numbers whose effects were
    /// already applied (redeliveries fenced), plus the recorded-lost ids
    /// of every message that exhausted its budget.
    pub ops: OpLedger,
    sink: Option<Rc<dyn TraceSink>>,
}

impl LossyTransport {
    /// Wraps a fault model; `max_attempts` bounds the retry budget
    /// (must be ≥ 1).
    pub fn new(faults: Box<dyn FaultModel>, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        LossyTransport {
            queue: VecDeque::new(),
            ledger: CostLedger::default(),
            faults,
            max_attempts,
            next_seq: 0,
            ops: OpLedger::new(),
            sink: None,
        }
    }

    /// Attaches a structured-trace sink. Wasted transmissions (drops,
    /// duplicates) emit `Retransmit` events under the retry ledger.
    pub fn set_sink(&mut self, sink: Rc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Enqueues a message with a fresh sequence number.
    pub fn send(&mut self, msg: Message) {
        self.queue.push_back(InFlight {
            seq: self.next_seq,
            attempt: 0,
            msg,
        });
        self.next_seq += 1;
    }

    /// Enqueues a batch.
    pub fn send_all(&mut self, msgs: impl IntoIterator<Item = Message>) {
        for m in msgs {
            self.send(m);
        }
    }

    /// Runs the loss process until a message arrives (or the queue
    /// drains): dropped attempts are billed as retries and retransmitted;
    /// arrivals are deduplicated by sequence number.
    pub fn deliver(&mut self, oracle: &dyn DistanceOracle) -> Option<Delivery> {
        while let Some(mut inflight) = self.queue.pop_front() {
            if self
                .faults
                .delay_message(inflight.msg.src, inflight.msg.dst)
            {
                // Timeout-induced reordering: the message falls behind the
                // rest of the queue at no cost and with no attempt spent.
                self.queue.push_back(inflight);
                continue;
            }
            let dist = oracle.dist(inflight.msg.src, inflight.msg.dst);
            inflight.attempt += 1;
            let lost = self.faults.node_down(inflight.msg.dst)
                || self.faults.drop_message(inflight.msg.src, inflight.msg.dst);
            if lost {
                self.ledger.bill_retry(dist);
                emit_msg(&self.sink, &inflight.msg, dist, true);
                if inflight.attempt >= self.max_attempts {
                    // Exhaustion is recorded, never silent: the seq lands
                    // in the op ledger's lost list, the cost ledger
                    // counts it, and a zero-distance marker event (the
                    // attempts were already billed above) flags it to any
                    // attached sink.
                    self.ops.record_lost(OpId(inflight.seq));
                    self.ledger.record_lost(dist);
                    if let Some(s) = &self.sink {
                        s.event(&TraceEvent {
                            op: OpKind::Transport,
                            phase: TracePhase::Exhausted,
                            ledger: LedgerKind::Retry,
                            object: inflight.msg.payload.object(),
                            src: inflight.msg.src,
                            dst: inflight.msg.dst,
                            level: inflight.msg.payload.trace_level() as u32,
                            distance: 0.0,
                        });
                    }
                    return Some(Delivery::Failed {
                        attempts: inflight.attempt,
                        msg: inflight.msg,
                    });
                }
                self.queue.push_back(inflight);
                continue;
            }
            if !self.ops.admit(OpId(inflight.seq), inflight.attempt) {
                self.ledger.bill_retry(dist);
                emit_msg(&self.sink, &inflight.msg, dist, true);
                return Some(Delivery::Duplicate(inflight.msg));
            }
            self.ledger.bill(&inflight.msg.payload, dist);
            emit_msg(&self.sink, &inflight.msg, dist, false);
            if self
                .faults
                .duplicate_message(inflight.msg.src, inflight.msg.dst)
            {
                // A lost ack: the sender will retransmit even though the
                // message arrived. Same sequence number, fresh budget.
                self.queue.push_back(InFlight {
                    seq: inflight.seq,
                    attempt: 0,
                    msg: inflight.msg.clone(),
                });
            }
            return Some(Delivery::Apply(inflight.msg));
        }
        None
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
    fn lossy_over_no_faults_matches_reliable_billing() {
        use crate::faults::NoFaults;
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let mk = || {
            msg(
                0,
                4,
                Payload::Query {
                    object: ObjectId(0),
                    origin: NodeId(0),
                    level: 0,
                    index: 0,
                },
            )
        };
        let mut reliable = Transport::new();
        reliable.send(mk());
        reliable.deliver(&m).unwrap();
        let mut lossy = LossyTransport::new(Box::new(NoFaults), 8);
        lossy.send(mk());
        assert!(matches!(lossy.deliver(&m), Some(Delivery::Apply(_))));
        assert_eq!(lossy.ledger.charged, reliable.ledger.charged);
        assert_eq!(lossy.ledger.messages, reliable.ledger.messages);
        assert_eq!(lossy.ledger.retries(), 0.0);
        assert!(lossy.is_idle());
    }

    #[test]
    fn dropped_transmissions_are_retried_and_billed_as_retries() {
        use crate::faults::ScriptedFaults;
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        // first two attempts drop, third succeeds
        let faults = ScriptedFaults::dropping([true, true, false]);
        let mut t = LossyTransport::new(Box::new(faults), 8);
        t.send(msg(
            0,
            4,
            Payload::Query {
                object: ObjectId(0),
                origin: NodeId(0),
                level: 0,
                index: 0,
            },
        ));
        let d = t.deliver(&m);
        assert!(matches!(d, Some(Delivery::Apply(_))), "got {d:?}");
        assert_eq!(t.ledger.charged, 4.0, "charged once per delivery");
        assert_eq!(t.ledger.retries(), 8.0, "two wasted 4-distance attempts");
        assert_eq!(t.ledger.messages, 3);
    }

    #[test]
    fn retry_budget_exhaustion_fails_instead_of_hanging() {
        use crate::faults::ScriptedFaults;
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        // the receiver is crashed forever: every attempt is lost
        let faults = ScriptedFaults::nodes_down([NodeId(4)]);
        let mut t = LossyTransport::new(Box::new(faults), 5);
        t.send(msg(
            0,
            4,
            Payload::Query {
                object: ObjectId(7),
                origin: NodeId(0),
                level: 0,
                index: 0,
            },
        ));
        match t.deliver(&m) {
            Some(Delivery::Failed { msg, attempts }) => {
                assert_eq!(attempts, 5);
                assert_eq!(msg.payload.object(), ObjectId(7));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(t.ledger.charged, 0.0, "nothing was delivered");
        assert_eq!(t.ledger.retries(), 20.0, "five wasted attempts");
    }

    #[test]
    fn duplicates_arrive_but_apply_once() {
        use crate::faults::ScriptedFaults;
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let faults = ScriptedFaults::duplicating([true]);
        let mut t = LossyTransport::new(Box::new(faults), 8);
        t.send(msg(
            0,
            4,
            Payload::Query {
                object: ObjectId(0),
                origin: NodeId(0),
                level: 0,
                index: 0,
            },
        ));
        assert!(matches!(t.deliver(&m), Some(Delivery::Apply(_))));
        assert!(
            matches!(t.deliver(&m), Some(Delivery::Duplicate(_))),
            "the redundant copy surfaces as Duplicate, never Apply"
        );
        assert!(t.deliver(&m).is_none());
        assert_eq!(t.ledger.charged, 4.0, "charged once despite two arrivals");
        assert_eq!(t.ledger.retries(), 4.0, "the duplicate is fault overhead");
    }

    #[test]
    fn delayed_messages_reorder_without_cost() {
        use crate::faults::ScriptedFaults;
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        // first pop is delayed: the second message overtakes the first
        let faults = ScriptedFaults::delaying([true]);
        let mut t = LossyTransport::new(Box::new(faults), 8);
        for object in [ObjectId(0), ObjectId(1)] {
            t.send(msg(
                0,
                4,
                Payload::Query {
                    object,
                    origin: NodeId(0),
                    level: 0,
                    index: 0,
                },
            ));
        }
        let first = match t.deliver(&m) {
            Some(Delivery::Apply(m)) => m,
            other => panic!("expected Apply, got {other:?}"),
        };
        assert_eq!(first.payload.object(), ObjectId(1), "overtaken");
        let second = match t.deliver(&m) {
            Some(Delivery::Apply(m)) => m,
            other => panic!("expected Apply, got {other:?}"),
        };
        assert_eq!(second.payload.object(), ObjectId(0));
        assert_eq!(t.ledger.charged, 8.0, "both still billed exactly once");
        assert_eq!(t.ledger.retries(), 0.0, "delay is free");
    }

    #[test]
    fn sinks_see_deliveries_and_retries_with_the_right_ledgers() {
        use crate::faults::ScriptedFaults;
        use mot_core::MemorySink;
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let sink = Rc::new(MemorySink::new());
        let faults = ScriptedFaults::dropping([true, false]);
        let mut t = LossyTransport::new(Box::new(faults), 8);
        t.set_sink(sink.clone());
        t.send(msg(
            0,
            4,
            Payload::Query {
                object: ObjectId(3),
                origin: NodeId(0),
                level: 1,
                index: 0,
            },
        ));
        assert!(matches!(t.deliver(&m), Some(Delivery::Apply(_))));
        let evs = sink.events();
        assert_eq!(evs.len(), 2, "one wasted attempt + one delivery");
        assert_eq!(evs[0].phase, TracePhase::Retransmit);
        assert_eq!(evs[0].ledger, LedgerKind::Retry);
        assert_eq!(evs[1].phase, TracePhase::Deliver);
        assert_eq!(evs[1].ledger, LedgerKind::Query);
        assert_eq!(evs[1].op, OpKind::Transport);
        assert_eq!(evs[1].level, 1);
        assert_eq!(sink.ledger_total(LedgerKind::Retry), t.ledger.retries());
        assert_eq!(sink.ledger_total(LedgerKind::Query), t.ledger.charged);
    }

    #[test]
    fn reliable_transport_sink_mirrors_the_ledger() {
        use mot_core::MemorySink;
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

    /// The zero-silent-loss audit: under a fault plan that exhausts some
    /// retry budgets, every message the transport accepted is accounted
    /// for — `sent == applied + recorded-lost` — and the lost ones are
    /// visible in the op ledger, the cost ledger, and the trace stream.
    #[test]
    fn exhausted_messages_are_recorded_in_ledgers_and_trace() {
        use crate::faults::ScriptedFaults;
        use mot_core::MemorySink;
        let g = generators::line(5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        // msg 0 burns its whole 2-attempt budget; msg 1 delivers; msg 2
        // drops once, then delivers on its retry.
        let faults = ScriptedFaults::dropping([true, false, true, true, false]);
        let mut t = LossyTransport::new(Box::new(faults), 2);
        let sink = Rc::new(MemorySink::new());
        t.set_sink(sink.clone());
        let sent = 3usize;
        for object in 0..sent as u32 {
            t.send(msg(
                0,
                4,
                Payload::Query {
                    object: ObjectId(object),
                    origin: NodeId(0),
                    level: 0,
                    index: 0,
                },
            ));
        }
        let mut applied = 0usize;
        let mut failed = Vec::new();
        while let Some(d) = t.deliver(&m) {
            match d {
                Delivery::Apply(_) => applied += 1,
                Delivery::Duplicate(_) => {}
                Delivery::Failed { msg, attempts } => {
                    assert_eq!(attempts, 2);
                    failed.push(msg.payload.object());
                }
            }
        }
        assert!(t.is_idle());
        assert_eq!(applied, 2);
        assert_eq!(failed, vec![ObjectId(0)]);
        // every sent message is accounted: delivered or recorded-lost
        assert_eq!(sent, applied + t.ops.lost().len());
        assert_eq!(t.ops.lost(), &[0], "seq 0 is the exhausted message");
        assert_eq!(t.ledger.lost_messages, 1);
        assert_eq!(t.ledger.lost_distance, 4.0);
        let exhausted: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| e.phase == TracePhase::Exhausted)
            .cloned()
            .collect();
        assert_eq!(exhausted.len(), 1, "loss surfaces as a trace event");
        assert_eq!(exhausted[0].object, ObjectId(0));
        assert_eq!(exhausted[0].distance, 0.0, "marker only, already billed");
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
