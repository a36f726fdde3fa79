//! Service mode: a long-lived, sharded, fault-hardened event loop.
//!
//! Batch experiments replay a fixed workload and exit; a deployed
//! tracking service instead ingests an open-ended stream of
//! publish/move/query operations while links drop, duplicate, and delay
//! messages and whole shards crash. [`run_service`] is that loop
//! (DESIGN.md §15): it drives a seeded [`crate::OpStream`] through
//! object shards whose ticks any service thread may run — the workers
//! and the coordinator alike — and guarantees **zero silent loss** —
//! at the end of every run each emitted op is accounted exactly once:
//!
//! ```text
//! sent == applied (incl. superseded + degraded) + shed + recorded-lost
//! ```
//!
//! and the run is rejected with [`SimError::Service`] if not.
//!
//! # Operational invariants
//!
//! * **Exactly-once effects.** Every envelope carries a global
//!   [`mot_core::OpId`] and every delivery an attempt number; each
//!   shard admits an op through its durable [`mot_core::OpLedger`]
//!   before touching the tracker, so retries and duplicate deliveries
//!   are fenced, never re-applied.
//! * **Attempt fencing / staleness.** Move targets are absolute and
//!   each shard keeps a per-object high-water mark over `obj_seq`; a
//!   late or re-ordered state op at or below the mark is *superseded*
//!   (counted, no effect) — a stale retry can never clobber newer
//!   state.
//! * **Crash re-adoption with bounded replay.** A shard crash destroys
//!   its tracker and in-flight queue. The durable ledger (checkpointed
//!   position snapshot + the op tail since) rebuilds a fresh tracker
//!   with replay bounded by the checkpoint interval; queued ops lost in
//!   the crash are redelivered by the coordinator.
//! * **Measured backlog with degrade-before-shed.** Per-shard queue
//!   depth and oldest-op age are recorded into [`Histogram`]s every
//!   tick. Past `degrade_depth` queries are answered from the shard
//!   ledger (cheap, still counted); past `shed_depth` queries are shed
//!   (counted, terminal). State ops are **never** shed.
//! * **Two ticks in flight, on any thread.** Each (tick, shard) is a
//!   task on one shared board. The coordinator routes and submits tick
//!   t while ticks t−1 and t−2 may still be running; workers claim
//!   tasks oldest tick first, and a shard runs one tick at a time, its
//!   ticks in order. Where the coordinator waits for a tick it runs
//!   claimable tasks itself, and blocks only when none is left. It
//!   waits for every outstanding tick, oldest first, at exactly two
//!   points: after a tick that crashes a shard (its redeliveries lead
//!   tick t+1's due list) and when it alone could end the loop after t
//!   (stream drained, nothing scheduled, no crash pending; the loop-end
//!   test then reads t's backlog). The report cannot move: what each
//!   shard receives, in what order, and every fault coin depend only on
//!   the stream and the schedule; shard outputs are taken per tick in
//!   shard order and feed only the redeliveries and the backlog total,
//!   read only at those two points. Which thread ran a task is never
//!   read.
//!
//! # Determinism
//!
//! Fault coins are stateless hashes of `(seed, op, attempt, salt)` —
//! never of delivery order — shard count is fixed independent of the
//! worker count, and per-shard results merge in canonical shard order,
//! so the deterministic report and the final object→location map are
//! byte-identical for `--jobs 1` and `--jobs N`. Wall-clock throughput
//! and where the threads' time went live in a separate `"wall"` JSON
//! trailer that parity comparisons strip.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mot_core::{JsonWriter, MotConfig, MotTracker, ObjectId, OpLedger, ToJson, Tracker};
use mot_hierarchy::{OverlayConfig, RepairableHierarchy};
use mot_net::{splitmix64, CacheLedger, ChurnSchedule, IdMap, IdSet, NodeId};
use mot_proto::Backoff;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::SimError;
use crate::faults::FaultConfig;
use crate::metrics::Histogram;
use crate::stream::{OpEnvelope, OpStream, ServiceOp, StreamSpec};
use crate::testbed::TestBed;

/// Backlog policy: the queue depths at which a shard stops giving
/// queries the full tracker treatment. Degradation always precedes
/// shedding, and state ops (publish/move) are exempt from both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedPolicy {
    /// Queue depth at which arriving queries are answered immediately
    /// from the shard ledger instead of climbing the tracker.
    pub degrade_depth: usize,
    /// Queue depth at which arriving queries are shed outright
    /// (counted, terminal — never silent).
    pub shed_depth: usize,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            degrade_depth: 512,
            shed_depth: 2048,
        }
    }
}

/// Configuration of one service run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The generated op stream (also the fault-free oracle).
    pub stream: StreamSpec,
    /// Number of state shards (objects map to shard `id % shards`).
    /// Fixed independently of `jobs` — the determinism anchor.
    pub shards: usize,
    /// Worker threads besides the coordinator, which runs shard ticks
    /// too wherever it would otherwise wait for them; `0` means one
    /// fewer than the available hardware threads (none on one CPU: the
    /// coordinator runs every tick). Capped at the shard count.
    pub jobs: usize,
    /// Stream ops injected per tick.
    pub batch: usize,
    /// Ops a shard may process per tick (`0` = unbounded). A bounded
    /// budget is what makes backlog — and the shed policy — real.
    pub shard_budget: usize,
    /// Transport + crash fault plan (crash count is interpreted as
    /// shard crashes scheduled across the run).
    pub faults: FaultConfig,
    /// Retry schedule for dropped transmissions.
    pub backoff: Backoff,
    /// Ticks between durable position checkpoints (`0` = never: crash
    /// replay then walks the full tail).
    pub checkpoint_every: u64,
    /// Backlog degrade/shed thresholds.
    pub policy: ShedPolicy,
}

impl ServiceConfig {
    /// A fault-free single-threaded service over `stream` with default
    /// sharding, batching, and policy.
    pub fn new(stream: StreamSpec) -> Self {
        ServiceConfig {
            stream,
            shards: 8,
            jobs: 1,
            batch: 256,
            shard_budget: 0,
            faults: FaultConfig::default(),
            backoff: Backoff::default(),
            checkpoint_every: 16,
            policy: ShedPolicy::default(),
        }
    }
}

/// The deterministic ledger of one service run plus a wall-clock
/// trailer. Every field but `trailer` is byte-identical across worker
/// counts.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Ops emitted by the stream.
    pub sent: u64,
    /// Ops that reached a terminal *applied* state: full application,
    /// superseded no-ops, and degraded query answers.
    pub applied: u64,
    /// Queries shed under backlog pressure (terminal, counted).
    pub shed: u64,
    /// Ops whose retry budget was exhausted: recorded lost, never
    /// silent.
    pub lost: u64,
    /// Publishes applied through a tracker (upserting moves included).
    pub publishes: u64,
    /// Moves applied through a tracker.
    pub moves: u64,
    /// Queries given the full tracker treatment.
    pub queries: u64,
    /// State ops fenced by a newer `obj_seq` (stale retries/reorders).
    pub superseded: u64,
    /// Queries answered from the shard ledger: backlog degradation
    /// plus queries arriving before their object was adopted.
    pub degraded: u64,
    /// Full-path queries whose tracker answer matched the shard ledger.
    pub queries_correct: u64,
    /// Full-path queries whose tracker answer disagreed — always 0 in
    /// a healthy run.
    pub queries_wrong: u64,
    /// Duplicate deliveries refused by shard admission ledgers.
    pub fenced: u64,
    /// Transmission attempts the transport dropped.
    pub dropped_attempts: u64,
    /// Retries scheduled for dropped attempts.
    pub retries: u64,
    /// Redundant duplicate deliveries the transport spawned.
    pub dup_deliveries: u64,
    /// Deliveries deferred by one tick.
    pub delayed: u64,
    /// Shard crash events injected.
    pub crash_events: u64,
    /// Ops replayed from durable ledgers while re-adopting crashed
    /// shards (bounded by the checkpoint interval).
    pub replayed_ops: u64,
    /// Queued ops destroyed by crashes and redelivered.
    pub redelivered: u64,
    /// Message distance spent rebuilding crashed shards.
    pub recovery_cost: f64,
    /// Topology deltas absorbed by the coordinator's hierarchy mirror
    /// (0 on a static-topology run).
    pub topology_ops: u64,
    /// Topology deltas the mirror absorbed by localized repair.
    pub hier_repairs: u64,
    /// Topology deltas the mirror's ledger sent to a full rebuild.
    pub hier_rebuilds: u64,
    /// Structural units the mirror spent absorbing churn (membership
    /// decisions + parent recomputes + station rebuilds).
    pub hier_repair_units: u64,
    /// Quiescence check: 1 if the repaired mirror diverged from a
    /// from-scratch rebuild on the final topology. A healthy run is
    /// always 0 — divergence is also a hard [`SimError::Service`].
    pub hier_divergence: u64,
    /// Per-tick shard queue depths.
    pub backlog_depth: Histogram,
    /// Per-tick oldest-queued-op ages (in ticks).
    pub backlog_age: Histogram,
    /// Deepest queue observed.
    pub max_depth: u64,
    /// Oldest queued op observed (ticks).
    pub max_age: u64,
    /// Cost per applied publish.
    pub publish_cost: Histogram,
    /// Cost per applied move.
    pub move_cost: Histogram,
    /// Cost per full-path query.
    pub query_cost: Histogram,
    /// Ticks until quiescence.
    pub ticks: u64,
    /// Shard count (fixed, part of the deterministic contract).
    pub shards: usize,
    /// FNV-1a hash of the final object→location map.
    pub final_map_fnv: u64,
    /// What the run measured rather than computed, written after the
    /// deterministic body.
    pub trailer: ServiceTrailer,
}

/// The part of a [`ServiceReport`] that varies from run to run and with
/// the worker count: where the wall clock went, and the distance
/// oracle's counters. The full report's JSON writes it after the
/// deterministic body as the `"wall"` and `"cache"` keys;
/// [`ServiceReport::deterministic_json`] never reads it.
#[derive(Clone, Debug, Default)]
pub struct ServiceTrailer {
    /// Worker threads started beside the coordinator.
    pub workers: usize,
    /// Wall-clock seconds of the whole run.
    pub wall_secs: f64,
    /// Of `wall_secs`, the seconds the coordinator worked: routing,
    /// fault coins, the hierarchy mirror, the shard ticks it ran and the
    /// final merge.
    pub coordinator_busy_secs: f64,
    /// Of `wall_secs`, the seconds the coordinator waited for a tick's
    /// outputs with no shard tick left to run.
    pub coordinator_blocked_secs: f64,
    /// Seconds of shard ticks the coordinator ran.
    pub coordinator_shard_secs: f64,
    /// Seconds of shard ticks the workers ran, summed over workers.
    pub worker_shard_secs: f64,
    /// Distance-oracle cache counters, when the bed's oracle keeps them
    /// (interleaving across workers makes them timing-dependent).
    pub cache: Option<CacheLedger>,
}

impl ServiceTrailer {
    /// Writes the `"wall"` and `"cache"` keys of a run that sent `sent`
    /// ops.
    fn write_fields(&self, w: &mut JsonWriter, sent: u64) {
        let ops_per_sec = if self.wall_secs > 0.0 {
            sent as f64 / self.wall_secs
        } else {
            0.0
        };
        w.key("wall").object(|w| {
            w.field("secs", self.wall_secs)
                .field("ops_per_sec", ops_per_sec)
                .field("workers", self.workers)
                .field("coordinator_busy_secs", self.coordinator_busy_secs)
                .field("coordinator_blocked_secs", self.coordinator_blocked_secs)
                .field("coordinator_shard_secs", self.coordinator_shard_secs)
                .field("worker_shard_secs", self.worker_shard_secs);
        });
        w.field("cache", self.cache);
    }
}

impl ServiceReport {
    /// The zero-silent-loss identity: every emitted op reached exactly
    /// one terminal account.
    pub fn accounted(&self) -> bool {
        self.sent == self.applied + self.shed + self.lost
    }

    /// The jobs-independent slice of the report as JSON — what parity
    /// tests compare byte-for-byte.
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| self.write_body(w));
        w.finish()
    }

    /// The deterministic body's keys. Every field is named here, so a
    /// new one must be written or set aside on purpose; the trailer is
    /// the one set aside.
    fn write_body(&self, w: &mut JsonWriter) {
        let ServiceReport {
            sent,
            applied,
            shed,
            lost,
            publishes,
            moves,
            queries,
            superseded,
            degraded,
            queries_correct,
            queries_wrong,
            fenced,
            dropped_attempts,
            retries,
            dup_deliveries,
            delayed,
            crash_events,
            replayed_ops,
            redelivered,
            recovery_cost,
            topology_ops,
            hier_repairs,
            hier_rebuilds,
            hier_repair_units,
            hier_divergence,
            backlog_depth,
            backlog_age,
            max_depth,
            max_age,
            publish_cost,
            move_cost,
            query_cost,
            ticks,
            shards,
            final_map_fnv,
            trailer: _,
        } = self;
        w.field("sent", sent)
            .field("applied", applied)
            .field("shed", shed)
            .field("lost", lost)
            .field("publishes", publishes)
            .field("moves", moves)
            .field("queries", queries)
            .field("superseded", superseded)
            .field("degraded", degraded)
            .field("queries_correct", queries_correct)
            .field("queries_wrong", queries_wrong)
            .field("fenced", fenced)
            .field("dropped_attempts", dropped_attempts)
            .field("retries", retries)
            .field("dup_deliveries", dup_deliveries)
            .field("delayed", delayed)
            .field("crash_events", crash_events)
            .field("replayed_ops", replayed_ops)
            .field("redelivered", redelivered)
            .field("recovery_cost", recovery_cost);
        w.key("topology").object(|w| {
            w.field("ops", topology_ops)
                .field("repairs", hier_repairs)
                .field("rebuilds", hier_rebuilds)
                .field("repair_units", hier_repair_units)
                .field("divergence", hier_divergence);
        });
        w.field("ticks", ticks)
            .field("shards", shards)
            .field("final_map_fnv", final_map_fnv);
        w.key("backlog").object(|w| {
            w.field("depth", backlog_depth)
                .field("age", backlog_age)
                .field("max_depth", max_depth)
                .field("max_age", max_age)
                .field("depth_p50", backlog_depth.quantile(0.5))
                .field("depth_p99", backlog_depth.quantile(0.99))
                .field("age_p99", backlog_age.quantile(0.99));
        });
        w.key("costs").object(|w| {
            w.field("publish", publish_cost)
                .field("move", move_cost)
                .field("query", query_cost)
                .field("move_p50", move_cost.quantile(0.5))
                .field("move_p99", move_cost.quantile(0.99))
                .field("query_p50", query_cost.quantile(0.5))
                .field("query_p99", query_cost.quantile(0.99));
        });
    }
}

/// The deterministic slice plus the `"wall"` trailer (throughput, worker
/// count, where the threads' time went) and the oracle cache counters.
/// Strip from `"wall"` onward — or compare
/// [`ServiceReport::deterministic_json`] — for byte-level parity checks.
impl ToJson for ServiceReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            self.write_body(w);
            self.trailer.write_fields(w, self.sent);
        });
    }
}

/// What a service run produces: the report and the final map.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Counters, histograms, and the wall trailer.
    pub report: ServiceReport,
    /// Final object→location map assembled from the shard ledgers in
    /// canonical object order (`None` = never published).
    pub final_positions: Vec<Option<NodeId>>,
}

// ---- deterministic fault coins -------------------------------------

const SALT_DROP: u64 = 0xD809;
const SALT_DUP: u64 = 0xD0B1;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_LINK: u64 = 0x11F4;
const CRASH_STREAM: u64 = 0xC4A5_11DE;

/// A uniform coin in `[0, 1)` keyed on identity, never on order.
fn coin(seed: u64, a: u64, b: u64, salt: u64) -> f64 {
    let z = splitmix64(seed ^ splitmix64(a ^ splitmix64(b ^ splitmix64(salt))));
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn fnv1a_map(positions: &[Option<NodeId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: u64, v: u32| -> u64 {
        let mut h = h;
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    };
    for (i, p) in positions.iter().enumerate() {
        h = eat(h, i as u32);
        h = eat(h, p.map_or(u32::MAX, |n| n.0));
    }
    h
}

// ---- coordinator ↔ shard wire types --------------------------------

#[derive(Clone, Copy)]
struct Sched {
    env: OpEnvelope,
    attempt: u32,
    dup: bool,
}

#[derive(Clone, Copy)]
struct Delivered {
    env: OpEnvelope,
    attempt: u32,
}

/// One shard's share of a tick: whether it crashes at the tick's start,
/// and its deliveries in routing order.
struct ShardTickMsg {
    crash: bool,
    deliveries: Vec<Delivered>,
}

struct TickOut {
    depth: usize,
    redeliver: Vec<Delivered>,
    /// The tick's drained delivery buffer, riding back to the
    /// coordinator so its capacity is reused next tick (values never
    /// survive the round-trip; DESIGN.md §16).
    spent: Vec<Delivered>,
}

struct ShardFinal {
    stats: ShardStats,
    positions: Vec<(u32, NodeId)>,
    integrity_mismatches: usize,
}

#[derive(Default)]
struct ShardStats {
    applied: u64,
    publishes: u64,
    moves: u64,
    queries: u64,
    superseded: u64,
    degraded: u64,
    shed: u64,
    queries_correct: u64,
    queries_wrong: u64,
    fenced: u64,
    crashes: u64,
    replayed: u64,
    recovery_cost: f64,
    publish_cost: Histogram,
    move_cost: Histogram,
    query_cost: Histogram,
    depth_hist: Histogram,
    age_hist: Histogram,
    max_depth: u64,
    max_age: u64,
}

// ---- shard state ----------------------------------------------------

struct Queued {
    arrival: u64,
    attempt: u32,
    env: OpEnvelope,
}

/// What a shard durably knows about one object it has adopted.
struct Adopted {
    /// High-water mark over `obj_seq`: the staleness fence.
    hw: u32,
    /// Committed position — the target of the state op that set `hw`.
    at: NodeId,
}

/// The durable part of a shard: survives crashes, rebuilds the tracker.
#[derive(Default)]
struct ShardLedger {
    ops: OpLedger,
    /// One entry per adopted object, so a state op probes once for the
    /// fence, the publish-or-move choice and the new position together.
    objects: IdMap<u32, Adopted>,
    checkpoint: Vec<(u32, NodeId)>,
    tail: Vec<(u32, NodeId)>,
}

impl ShardLedger {
    /// Every adopted object's committed position, in object order.
    fn positions_sorted(&self) -> Vec<(u32, NodeId)> {
        let mut v: Vec<(u32, NodeId)> = self.objects.iter().map(|(&o, a)| (o, a.at)).collect();
        v.sort_unstable_by_key(|&(o, _)| o);
        v
    }
}

/// A shard: its tracker, durable ledger, queue and counters. It is
/// `Send`, so any service thread can run its next tick.
struct ShardState<'a> {
    tracker: MotTracker<'a>,
    ledger: ShardLedger,
    queue: VecDeque<Queued>,
    stats: ShardStats,
}

/// A shard's fresh tracker: plain MOT on the bed's overlay, no sink.
fn shard_tracker(bed: &TestBed) -> MotTracker<'_> {
    MotTracker::new(&bed.overlay, &*bed.oracle, MotConfig::plain())
}

impl<'a> ShardState<'a> {
    fn new(bed: &'a TestBed) -> Self {
        ShardState {
            tracker: shard_tracker(bed),
            ledger: ShardLedger::default(),
            queue: VecDeque::new(),
            stats: ShardStats::default(),
        }
    }

    fn run_tick(
        &mut self,
        tick: u64,
        msg: ShardTickMsg,
        bed: &'a TestBed,
        cfg: &ServiceConfig,
    ) -> Result<TickOut, SimError> {
        let ShardTickMsg {
            crash,
            mut deliveries,
        } = msg;
        let redeliver = if crash {
            self.crash_recover(bed)?
        } else {
            Vec::new()
        };
        for d in deliveries.drain(..) {
            self.enqueue(tick, d, cfg);
        }
        let budget = if cfg.shard_budget == 0 {
            usize::MAX
        } else {
            cfg.shard_budget
        };
        let mut done = 0usize;
        while done < budget {
            match self.queue.pop_front() {
                Some(q) => self.process(q)?,
                None => break,
            }
            done += 1;
        }
        if cfg.checkpoint_every > 0 && tick > 0 && tick.is_multiple_of(cfg.checkpoint_every) {
            self.checkpoint();
        }
        let depth = self.queue.len();
        self.stats.depth_hist.record(depth as f64);
        self.stats.max_depth = self.stats.max_depth.max(depth as u64);
        let age = self.queue.front().map_or(0, |q| tick - q.arrival);
        self.stats.age_hist.record(age as f64);
        self.stats.max_age = self.stats.max_age.max(age);
        Ok(TickOut {
            depth,
            redeliver,
            spent: deliveries,
        })
    }

    /// Snapshots every adopted object's position; replay after a crash
    /// starts from here.
    fn checkpoint(&mut self) {
        self.ledger.checkpoint = self.ledger.positions_sorted();
        self.ledger.tail.clear();
    }

    /// Ticks `from..to` at once, for a shard with nothing queued and
    /// nothing delivered to it: each would record a zero depth and a
    /// zero age, and a checkpoint due among them would snapshot the
    /// same positions however often it ran.
    fn idle_span(&mut self, from: u64, to: u64, cfg: &ServiceConfig) {
        debug_assert!(self.queue.is_empty(), "an idle shard has nothing queued");
        self.stats.depth_hist.record_zeros(to - from);
        self.stats.age_hist.record_zeros(to - from);
        let every = cfg.checkpoint_every;
        let first_due = (every > 0)
            .then(|| from.max(1).div_ceil(every).checked_mul(every))
            .flatten();
        if first_due.is_some_and(|t| t < to) {
            self.checkpoint();
        }
    }

    /// Destroys the tracker and queue, then re-adopts the shard from
    /// its durable ledger: checkpoint snapshot + tail replay. Returns
    /// the queued ops lost in the crash (the sender's unacked window)
    /// for redelivery.
    fn crash_recover(&mut self, bed: &'a TestBed) -> Result<Vec<Delivered>, SimError> {
        self.stats.crashes += 1;
        let lost: Vec<Delivered> = self
            .queue
            .drain(..)
            .map(|q| Delivered {
                env: q.env,
                attempt: q.attempt,
            })
            .collect();
        self.tracker = shard_tracker(bed);
        let mut rebuilt: IdSet<u32> = IdSet::default();
        for &(o, at) in &self.ledger.checkpoint {
            self.stats.recovery_cost += self.tracker.publish(ObjectId(o), at)?;
            rebuilt.insert(o);
            self.stats.replayed += 1;
        }
        for &(o, to) in &self.ledger.tail {
            if rebuilt.insert(o) {
                self.stats.recovery_cost += self.tracker.publish(ObjectId(o), to)?;
            } else {
                self.stats.recovery_cost += self.tracker.move_object(ObjectId(o), to)?.cost;
            }
            self.stats.replayed += 1;
        }
        Ok(lost)
    }

    /// Admission with backlog policy: state ops always queue; queries
    /// degrade past `degrade_depth` and shed past `shed_depth`. Both
    /// short-circuits still pass the op through the admission ledger so
    /// a later duplicate can't resurrect it into a second account.
    fn enqueue(&mut self, tick: u64, d: Delivered, cfg: &ServiceConfig) {
        let is_query = matches!(d.env.op, ServiceOp::Query { .. });
        let depth = self.queue.len();
        if is_query && depth >= cfg.policy.shed_depth {
            if self.ledger.ops.admit(d.env.id, d.attempt) {
                self.stats.shed += 1;
            }
            return;
        }
        if is_query && depth >= cfg.policy.degrade_depth {
            if self.ledger.ops.admit(d.env.id, d.attempt) {
                // Answered from the ledger's committed position — no
                // tracker climb, zero cost, still a terminal answer.
                self.stats.degraded += 1;
                self.stats.applied += 1;
            }
            return;
        }
        self.queue.push_back(Queued {
            arrival: tick,
            attempt: d.attempt,
            env: d.env,
        });
    }

    fn process(&mut self, q: Queued) -> Result<(), SimError> {
        if !self.ledger.ops.admit(q.env.id, q.attempt) {
            return Ok(()); // duplicate delivery: fenced by the ledger
        }
        let o = q.env.object;
        match q.env.op {
            ServiceOp::Publish { at } => self.apply_state(q.env.obj_seq, o, at)?,
            ServiceOp::Move { to } => self.apply_state(q.env.obj_seq, o, to)?,
            ServiceOp::Query { from } => {
                self.stats.applied += 1;
                match self.ledger.objects.get(&o.0).map(|a| a.at) {
                    // The object hasn't been adopted here yet (its
                    // publish is still in flight): a degraded "not yet
                    // tracked" answer, not an error.
                    None => self.stats.degraded += 1,
                    Some(truth) => {
                        let r = self.tracker.query(from, o)?;
                        self.stats.queries += 1;
                        self.stats.query_cost.record(r.cost);
                        if r.proxy == truth {
                            self.stats.queries_correct += 1;
                        } else {
                            self.stats.queries_wrong += 1;
                        }
                    }
                }
            }
            // Control-plane ops never reach a shard: the coordinator
            // intercepts them before transport (no fault coins).
            ServiceOp::Topology { .. } => {
                unreachable!("topology ops are coordinator-intercepted")
            }
        }
        Ok(())
    }

    /// Applies a state op under the staleness fence: only an `obj_seq`
    /// above the object's high-water mark may rebind its position.
    /// Moves upsert (a move racing ahead of its publish adopts the
    /// object), so out-of-order delivery converges on the newest state.
    fn apply_state(&mut self, obj_seq: u32, o: ObjectId, target: NodeId) -> Result<(), SimError> {
        self.stats.applied += 1;
        let adopted = Adopted {
            hw: obj_seq,
            at: target,
        };
        match self.ledger.objects.entry(o.0) {
            Entry::Occupied(mut e) => {
                if obj_seq <= e.get().hw {
                    self.stats.superseded += 1;
                    return Ok(());
                }
                let out = self.tracker.move_object(o, target)?;
                self.stats.moves += 1;
                self.stats.move_cost.record(out.cost);
                e.insert(adopted);
            }
            Entry::Vacant(e) => {
                let c = self.tracker.publish(o, target)?;
                self.stats.publishes += 1;
                self.stats.publish_cost.record(c);
                e.insert(adopted);
            }
        }
        self.ledger.tail.push((o.0, target));
        Ok(())
    }

    fn finish(mut self) -> ShardFinal {
        self.stats.fenced = self.ledger.ops.fenced;
        let positions = self.ledger.positions_sorted();
        let integrity_mismatches = positions
            .iter()
            .filter(|&&(o, n)| self.tracker.proxy_of(ObjectId(o)) != Some(n))
            .count();
        ShardFinal {
            stats: self.stats,
            positions,
            integrity_mismatches,
        }
    }
}

// ---- the shard-tick board -------------------------------------------

/// Why a task stopped the run: its own error, or its panic's payload.
enum Failure {
    Error(SimError),
    Panic(Box<dyn Any + Send>),
}

/// One submitted tick's outputs, by shard, until the coordinator takes
/// them.
struct TickSlot<O> {
    tick: u64,
    outs: Vec<Option<O>>,
    missing: usize,
}

/// Where the service threads' time went, for the report's wall split.
#[derive(Default)]
struct Spent {
    /// Shard-tick seconds run on the coordinator.
    coordinator_shard: f64,
    /// Shard-tick seconds run on the workers, summed over them.
    worker_shard: f64,
    /// Seconds the coordinator waited for a tick with nothing to run.
    blocked: f64,
}

/// One claimed task: shard `shard`'s tick `tick`, with the shard's
/// state taken off the board while a thread runs it.
struct Task<S, M> {
    tick: u64,
    shard: usize,
    state: S,
    msg: M,
}

struct BoardState<S, M, O> {
    /// Each shard's state, `None` while a thread runs one of its ticks.
    idle: Vec<Option<S>>,
    /// Each shard's submitted, unclaimed ticks, oldest first.
    pending: Vec<VecDeque<(u64, M)>>,
    /// The claimable tasks as `(tick, shard)`, least first: the oldest
    /// pending tick of every idle shard, so a shard runs its ticks in
    /// order and one at a time.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Submitted ticks the coordinator has not taken, oldest first.
    ticks: VecDeque<TickSlot<O>>,
    failure: Option<Failure>,
    closed: bool,
    sleeping_workers: usize,
    coordinator_waits: bool,
    spent: Spent,
}

impl<S, M, O> BoardState<S, M, O> {
    fn claim(&mut self) -> Option<Task<S, M>> {
        let Reverse((tick, shard)) = self.ready.pop()?;
        let state = self.idle[shard].take().expect("a ready shard is idle");
        let (pending, msg) = self.pending[shard]
            .pop_front()
            .expect("a ready shard has a tick");
        debug_assert_eq!(pending, tick, "a shard runs its ticks in order");
        Some(Task {
            tick,
            shard,
            state,
            msg,
        })
    }

    /// Puts a finished task's shard back, readies its next tick and
    /// files its output under its tick.
    fn complete(&mut self, tick: u64, shard: usize, state: S, out: O) {
        self.idle[shard] = Some(state);
        if let Some(&(next, _)) = self.pending[shard].front() {
            self.ready.push(Reverse((next, shard)));
        }
        let first = self
            .ticks
            .front()
            .expect("a running tick is not taken")
            .tick;
        let slot = &mut self.ticks[(tick - first) as usize];
        slot.outs[shard] = Some(out);
        slot.missing -= 1;
    }
}

/// Every (tick, shard) of a service run as a task that any service
/// thread can run. Workers block on the board until a task is
/// claimable; the coordinator, waiting for a tick's outputs, runs
/// claimable tasks itself (oldest tick first) and blocks only when none
/// is left. Outputs are taken per tick in shard order, so nothing a run
/// reports depends on which thread ran a task.
struct Board<S, M, O, F> {
    state: Mutex<BoardState<S, M, O>>,
    /// Workers sleep here until a task is claimable or the board closes.
    work: Condvar,
    /// The coordinator sleeps here until a task completes or fails.
    done: Condvar,
    run: F,
}

impl<S, M, O, F> Board<S, M, O, F> {
    /// The board's state, locked. No task runs under the lock and no
    /// code under it panics, so a poisoned lock still holds whole state.
    fn lock(&self) -> MutexGuard<'_, BoardState<S, M, O>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }
}

impl<S, M, O, F> Board<S, M, O, F>
where
    F: Fn(&mut S, u64, M) -> Result<O, SimError>,
{
    fn new(states: Vec<S>, run: F) -> Self {
        let shards = states.len();
        Board {
            state: Mutex::new(BoardState {
                idle: states.into_iter().map(Some).collect(),
                pending: (0..shards).map(|_| VecDeque::new()).collect(),
                ready: BinaryHeap::with_capacity(shards),
                ticks: VecDeque::new(),
                failure: None,
                closed: false,
                sleeping_workers: 0,
                coordinator_waits: false,
                spent: Spent::default(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            run,
        }
    }

    /// Hands tick `tick` to the shards: one message per shard, in shard
    /// order.
    fn submit(&self, tick: u64, msgs: impl Iterator<Item = M>) {
        let mut guard = self.lock();
        let b = &mut *guard;
        let before = b.ready.len();
        let shards = b.pending.len();
        for (shard, msg) in msgs.enumerate() {
            let queue = &mut b.pending[shard];
            queue.push_back((tick, msg));
            if queue.len() == 1 && b.idle[shard].is_some() {
                b.ready.push(Reverse((tick, shard)));
            }
        }
        b.ticks.push_back(TickSlot {
            tick,
            outs: (0..shards).map(|_| None).collect(),
            missing: shards,
        });
        if b.ready.len() > before && b.sleeping_workers > 0 {
            self.work.notify_all();
        }
    }

    /// Runs `f` on every shard's state, in shard order. Only between
    /// ticks: with no tick in flight every state is on the board.
    fn each_shard(&self, mut f: impl FnMut(&mut S)) {
        let mut b = self.lock();
        assert!(b.ticks.is_empty(), "a tick is in flight");
        for state in &mut b.idle {
            f(state.as_mut().expect("no tick is in flight"));
        }
    }

    /// Runs `task` unlocked and files its outcome; returns the lock.
    fn run_task(
        &self,
        task: Task<S, M>,
        on_coordinator: bool,
    ) -> MutexGuard<'_, BoardState<S, M, O>> {
        let Task {
            tick,
            shard,
            mut state,
            msg,
        } = task;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| (self.run)(&mut state, tick, msg)));
        let secs = start.elapsed().as_secs_f64();
        let mut b = self.lock();
        if on_coordinator {
            b.spent.coordinator_shard += secs;
        } else {
            b.spent.worker_shard += secs;
        }
        match result {
            Ok(Ok(out)) => {
                b.complete(tick, shard, state, out);
                if b.coordinator_waits {
                    self.done.notify_one();
                }
                // A worker claims again at once; a sleeper is needed
                // only for what it leaves.
                let claimer = usize::from(!on_coordinator);
                if b.ready.len() > claimer && b.sleeping_workers > 0 {
                    self.work.notify_one();
                }
            }
            Ok(Err(e)) => self.fail(&mut b, Failure::Error(e)),
            Err(payload) => self.fail(&mut b, Failure::Panic(payload)),
        }
        b
    }

    /// Stops the run: the first failure is the one reported.
    fn fail(&self, b: &mut BoardState<S, M, O>, why: Failure) {
        b.failure.get_or_insert(why);
        b.closed = true;
        self.work.notify_all();
        self.done.notify_one();
    }

    /// A worker: claims and runs tasks until the board closes.
    fn work(&self) {
        let mut b = self.lock();
        while !b.closed {
            b = match b.claim() {
                Some(task) => {
                    drop(b);
                    self.run_task(task, false)
                }
                None => {
                    b.sleeping_workers += 1;
                    let mut b = self.work.wait(b).unwrap_or_else(PoisonError::into_inner);
                    b.sleeping_workers -= 1;
                    b
                }
            };
        }
    }

    /// Takes the oldest submitted tick's outputs, in shard order. Until
    /// they are all in, runs claimable tasks (oldest tick first) and
    /// blocks only when none is left. A failed task's error is returned
    /// as it was raised, and its panic resumes with its own payload.
    fn collect(&self) -> Result<Vec<O>, SimError> {
        let mut b = self.lock();
        assert!(!b.ticks.is_empty(), "collect needs a tick in flight");
        loop {
            match b.failure.take() {
                Some(Failure::Error(e)) => return Err(e),
                Some(Failure::Panic(payload)) => {
                    drop(b);
                    resume_unwind(payload)
                }
                None => {}
            }
            if b.ticks.front().is_some_and(|t| t.missing == 0) {
                let slot = b.ticks.pop_front().expect("checked above");
                let outs = slot.outs.into_iter().map(|o| o.expect("a full tick"));
                return Ok(outs.collect());
            }
            b = match b.claim() {
                Some(task) => {
                    drop(b);
                    self.run_task(task, true)
                }
                None => {
                    b.coordinator_waits = true;
                    let start = Instant::now();
                    let mut b = self.done.wait(b).unwrap_or_else(PoisonError::into_inner);
                    b.spent.blocked += start.elapsed().as_secs_f64();
                    b.coordinator_waits = false;
                    b
                }
            };
        }
    }
}

/// Closes the board when the coordinator leaves, by any path (a
/// returned error or a panic unwinding included), so that no worker
/// waits for a tick that will never come and the scope can join it.
struct CloseOnExit<'b, S, M, O, F>(&'b Board<S, M, O, F>);

impl<S, M, O, F> Drop for CloseOnExit<'_, S, M, O, F> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs `coordinator` on this thread beside `workers` threads that take
/// the board's tasks (`0`: the coordinator runs every task), then hands
/// back its result, the shards' states and where the time went.
fn with_board<S, M, O, F, R>(
    states: Vec<S>,
    workers: usize,
    run: F,
    coordinator: impl FnOnce(&Board<S, M, O, F>) -> Result<R, SimError>,
) -> Result<(R, Vec<S>, Spent), SimError>
where
    S: Send,
    M: Send,
    O: Send,
    F: Fn(&mut S, u64, M) -> Result<O, SimError> + Sync,
{
    let board = Board::new(states, run);
    let out = std::thread::scope(|scope| {
        let _close = CloseOnExit(&board);
        for _ in 0..workers {
            scope.spawn(|| board.work());
        }
        coordinator(&board)
    })?;
    let b = board
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let states = b.idle.into_iter().collect::<Option<Vec<S>>>();
    let states =
        states.ok_or_else(|| SimError::Service("a shard tick was never collected".into()))?;
    Ok((out, states, b.spent))
}

// ---- coordinator ----------------------------------------------------

/// Ticks the coordinator leaves with the shards while it routes the
/// next one. One to four read within run-to-run noise of each other on
/// both service beds (PERFORMANCE.md); two keeps at most three ticks of
/// delivery buffers alive.
const IN_FLIGHT: usize = 2;

/// Absorbs control-plane delta `delta` of the stream's churn schedule
/// into the coordinator's hierarchy mirror. A topology op that arrives
/// without a schedule, without a mirror, or past the schedule's end
/// fails the run like any other broken service invariant.
fn apply_topology(
    schedule: Option<&ChurnSchedule>,
    mirror: Option<&mut RepairableHierarchy>,
    delta: u32,
) -> Result<(), SimError> {
    let broken = |what: &str| SimError::Service(format!("topology op {delta}: {what}"));
    let schedule = schedule.ok_or_else(|| broken("the stream has no churn schedule"))?;
    let mirror = mirror.ok_or_else(|| broken("the coordinator keeps no hierarchy mirror"))?;
    let batch = schedule
        .deltas()
        .get(delta as usize)
        .ok_or_else(|| broken("past the end of the churn schedule"))?;
    mirror
        .repair(batch)
        .map_err(|e| SimError::Service(format!("mirror repair: {e}")))?;
    Ok(())
}

/// The crash schedule: tick → the shards that crash at its start, in
/// shard order. Drawn from the fault seed before the loop starts, so
/// it is independent of worker count.
fn crash_schedule(cfg: &ServiceConfig) -> BTreeMap<u64, Vec<usize>> {
    let mut crash_at: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    if cfg.faults.crashes == 0 {
        return crash_at;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.faults.seed ^ CRASH_STREAM);
    let span = (cfg.stream.ops / cfg.batch as u64 + 1).max(2);
    let mut seen: HashSet<(u64, usize)> = HashSet::new();
    for _ in 0..cfg.faults.crashes {
        let t = rng.gen_range(1..span);
        let s = rng.gen_range(0..cfg.shards);
        if seen.insert((t, s)) {
            crash_at.entry(t).or_default().push(s);
        }
    }
    for v in crash_at.values_mut() {
        v.sort_unstable();
    }
    crash_at
}

/// The first tick at which a retry, delay, duplicate, redelivery or
/// crash is due.
fn next_due(
    scheduled: &BTreeMap<u64, Vec<Sched>>,
    crash_at: &BTreeMap<u64, Vec<usize>>,
) -> Option<u64> {
    [scheduled.keys().next(), crash_at.keys().next()]
        .into_iter()
        .flatten()
        .min()
        .copied()
}

/// The last tick a run may reach before it is declared stuck, or `None`
/// where a retry under `backoff` could not land on a tick a `u64`
/// counts. A retry waits at most `backoff.delay(max_attempts - 2)`
/// (the delay grows with the attempt, and the last attempt is never
/// retried); the horizon leaves room for one such retry past itself.
fn tick_horizon(cfg: &ServiceConfig, max_attempts: u32) -> Option<u64> {
    let longest_wait = match max_attempts.checked_sub(2) {
        Some(last_retried) => cfg.backoff.delay(last_retried),
        None => 0,
    };
    let est_ticks = cfg.stream.ops / cfg.batch as u64 + 1;
    let horizon = (max_attempts as u64 + 2)
        .checked_mul(longest_wait.checked_add(2)?)?
        .checked_add(est_ticks)?
        .checked_add(cfg.stream.ops)?
        .checked_add(64)?;
    horizon.checked_add(longest_wait)?.checked_add(1)?;
    Some(horizon)
}

/// Runs the service loop to quiescence and verifies its operational
/// invariants. See the module docs for the guarantees; any violation —
/// unaccounted ops, ledger/tracker disagreement, a failed shard tick, a
/// loop that never drains — is a [`SimError::Service`], not a report
/// (a shard tick's own error surfaces as itself). So is a configuration
/// no run can honour, rejected before any thread starts.
pub fn run_service(bed: &TestBed, cfg: &ServiceConfig) -> Result<ServiceOutcome, SimError> {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_service_on(bed, cfg, workers_for(cfg.jobs, hardware, cfg.shards))
}

/// The worker threads a run starts beside the coordinator: `jobs`, or
/// for `0` one fewer than the `hardware` threads, since the coordinator
/// runs shard ticks too (so one hardware thread runs every tick on the
/// coordinator); never more than the shards.
fn workers_for(jobs: usize, hardware: usize, shards: usize) -> usize {
    let wanted = if jobs == 0 {
        hardware.saturating_sub(1)
    } else {
        jobs
    };
    wanted.min(shards)
}

/// [`run_service`] with `workers` threads beside the coordinator, which
/// runs every shard tick itself at `0`. The report's deterministic body
/// and the final map do not depend on `workers`.
pub fn run_service_on<'a>(
    bed: &'a TestBed,
    cfg: &ServiceConfig,
    workers: usize,
) -> Result<ServiceOutcome, SimError> {
    let reject = |why: &str| Err(SimError::Service(why.into()));
    if cfg.shards == 0 {
        return reject("a service needs at least one shard");
    }
    if cfg.batch == 0 {
        return reject("a zero batch would never make progress");
    }
    if cfg.policy.degrade_depth > cfg.policy.shed_depth {
        return reject("degradation must engage before shedding");
    }
    cfg.stream.check().map_err(SimError::Service)?;
    cfg.faults.check().map_err(SimError::Service)?;
    let shards = cfg.shards;
    let seed = cfg.faults.seed;
    let max_attempts = cfg.faults.max_attempts.max(1);
    let Some(tick_limit) = tick_horizon(cfg, max_attempts) else {
        let Backoff { base, cap } = cfg.backoff;
        return reject(&format!(
            "backoff (base {base}, cap {cap}) with {max_attempts} attempts: \
             a retry cannot land inside a tick horizon a u64 counts"
        ));
    };

    let mut crash_at = crash_schedule(cfg);

    let start = Instant::now();

    struct LoopOut {
        ticks: u64,
        sent: u64,
        dropped: u64,
        retries: u64,
        dups: u64,
        delayed: u64,
        redelivered: u64,
        crash_events: u64,
        topology_ops: u64,
        lost: OpLedger,
        /// The coordinator's incrementally repaired hierarchy, when the
        /// stream carries churn (verified against a rebuild below).
        mirror: Option<RepairableHierarchy>,
    }

    let states = (0..shards).map(|_| ShardState::new(bed)).collect();
    let run = |shard: &mut ShardState<'a>, tick: u64, msg: ShardTickMsg| {
        shard.run_tick(tick, msg, bed, cfg)
    };
    let (out, states, spent) = with_board(states, workers, run, |board| {
        let mut stream = OpStream::new(&bed.graph, cfg.stream);
        // Control plane: with churn in the stream, the coordinator
        // keeps a repairable hierarchy mirror of the live topology —
        // absorbing each delta in place, never stop-the-world.
        let mut mirror = if cfg.stream.churn_every > 0 {
            Some(
                RepairableHierarchy::build(
                    &bed.graph,
                    &OverlayConfig::practical(),
                    cfg.stream.seed,
                )
                .map_err(|e| SimError::Service(format!("hierarchy mirror: {e}")))?,
            )
        } else {
            None
        };
        let mut topology_ops = 0u64;
        let mut scheduled: BTreeMap<u64, Vec<Sched>> = BTreeMap::new();
        let mut lost = OpLedger::new();
        let (mut sent, mut dropped, mut retries, mut dups) = (0u64, 0u64, 0u64, 0u64);
        let (mut delayed, mut redelivered, mut crash_events) = (0u64, 0u64, 0u64);
        let mut tick = 0u64;
        // Per-shard delivery buffers, reused across ticks: shard ticks
        // drain them and ship the empties back in each `TickOut`, into a spare
        // pool (the shard's slot may already hold a later tick's
        // deliveries) that each dispatch refills the slots from.
        let mut per_shard: Vec<Vec<Delivered>> = vec![Vec::new(); shards];
        let mut spare: Vec<Vec<Delivered>> = Vec::new();
        let (mut in_flight, mut backlog_total) = (0usize, 0usize);

        loop {
            // 1. This tick's deliveries: carried retries/delays/dups
            //    first, then a fresh batch off the stream.
            let mut due = scheduled.remove(&tick).unwrap_or_default();
            for _ in 0..cfg.batch {
                match stream.next_op() {
                    Some(env) => {
                        if let ServiceOp::Topology { delta } = env.op {
                            // Intercepted control plane: no transport
                            // coins, no shard routing, no data-plane
                            // account — the mirror repairs in place.
                            topology_ops += 1;
                            apply_topology(stream.churn_schedule(), mirror.as_mut(), delta)?;
                            continue;
                        }
                        sent += 1;
                        due.push(Sched {
                            env,
                            attempt: 0,
                            dup: false,
                        });
                    }
                    None => break,
                }
            }

            // 2. Transport coins — keyed on (op, attempt), never on
            //    order — route survivors to their shards.
            for s in due {
                let op = s.env.id.0;
                if !s.dup {
                    let dead_link = s.attempt == 0
                        && coin(seed, s.env.object.0 as u64, 0, SALT_LINK)
                            < cfg.faults.link_failure_rate;
                    if dead_link
                        || coin(seed, op, s.attempt as u64, SALT_DROP) < cfg.faults.drop_rate
                    {
                        dropped += 1;
                        let next = s.attempt + 1;
                        if next >= max_attempts {
                            lost.record_lost(s.env.id);
                        } else {
                            retries += 1;
                            // `tick_horizon` keeps this sum inside a u64.
                            let wait = cfg.backoff.delay(s.attempt);
                            scheduled
                                .entry(tick + 1 + wait)
                                .or_default()
                                .push(Sched { attempt: next, ..s });
                        }
                        continue;
                    }
                }
                let delay_key = tick.wrapping_mul(0x9E37).wrapping_add(s.attempt as u64);
                if coin(seed, op, delay_key, SALT_DELAY) < cfg.faults.delay_rate {
                    delayed += 1;
                    scheduled.entry(tick + 1).or_default().push(s);
                    continue;
                }
                if !s.dup && coin(seed, op, s.attempt as u64, SALT_DUP) < cfg.faults.duplicate_rate
                {
                    dups += 1;
                    scheduled
                        .entry(tick + 1)
                        .or_default()
                        .push(Sched { dup: true, ..s });
                }
                per_shard[s.env.object.index() % shards].push(Delivered {
                    env: s.env,
                    attempt: s.attempt,
                });
            }

            // 3. Crashes due this tick, then dispatch in shard order.
            let crashing = crash_at.remove(&tick).unwrap_or_default();
            crash_events += crashing.len() as u64;
            let msgs = per_shard
                .iter_mut()
                .enumerate()
                .map(|(s, slot)| ShardTickMsg {
                    crash: crashing.contains(&s),
                    deliveries: std::mem::replace(slot, spare.pop().unwrap_or_default()),
                });
            board.submit(tick, msgs);
            in_flight += 1;

            // 4. Collect, oldest tick first, merging each in shard order
            //    (running shard ticks meanwhile). Shard outputs feed only
            //    redeliveries and the backlog total, read only where the
            //    coordinator waits for every tick in flight: after a
            //    crash tick (its redeliveries lead the next due list),
            //    when it alone could end the loop, and when an idle span
            //    may follow (the stream drained, the last tick taken left
            //    no backlog, nothing is due next tick); also at the tick
            //    limit, so its error names the backlog. Elsewhere
            //    `IN_FLIGHT` ticks stay with the shards.
            let drained = stream.emitted() >= stream.total();
            let may_end = drained && scheduled.is_empty() && crash_at.is_empty();
            let idle_ahead = drained
                && backlog_total == 0
                && next_due(&scheduled, &crash_at).is_some_and(|t| t > tick + 1);
            let wait = !crashing.is_empty() || may_end || idle_ahead || tick >= tick_limit;
            while in_flight > if wait { 0 } else { IN_FLIGHT } {
                in_flight -= 1;
                backlog_total = 0;
                for o in board.collect()? {
                    backlog_total += o.depth;
                    debug_assert!(o.spent.is_empty(), "spent buffers must come back drained");
                    spare.push(o.spent);
                    for d in o.redeliver {
                        redelivered += 1;
                        scheduled.entry(tick + 1).or_default().push(Sched {
                            env: d.env,
                            attempt: d.attempt,
                            dup: false,
                        });
                    }
                }
            }

            tick += 1;
            if may_end && scheduled.is_empty() && backlog_total == 0 {
                break;
            }
            if tick > tick_limit {
                return Err(SimError::Service(format!(
                    "failed to quiesce within {tick_limit} ticks \
                     ({backlog_total} queued, {} scheduled)",
                    scheduled.len()
                )));
            }
            // 5. With every tick collected, every queue empty and nothing
            //    due before `to` (the collect above may have scheduled a
            //    crash's redeliveries for the next tick), the ticks up to
            //    `to` deliver nothing and process nothing: the shards
            //    record them at once and the loop jumps to `to`.
            if in_flight == 0 && drained && backlog_total == 0 {
                if let Some(due) = next_due(&scheduled, &crash_at) {
                    let to = due.min(tick_limit);
                    if to > tick {
                        board.each_shard(|shard| shard.idle_span(tick, to, cfg));
                        tick = to;
                    }
                }
            }
        }

        Ok(LoopOut {
            ticks: tick,
            sent,
            dropped,
            retries,
            dups,
            delayed,
            redelivered,
            crash_events,
            topology_ops,
            lost,
            mirror,
        })
    })?;
    let finals: Vec<ShardFinal> = states.into_iter().map(ShardState::finish).collect();

    // Quiescence divergence gate: the incrementally repaired mirror
    // must be bit-identical to a from-scratch build on the final
    // topology (the §7 correctness contract, DESIGN.md §17).
    let mut hier = (0u64, 0u64, 0u64, 0u64); // repairs, rebuilds, units, divergence
    if let Some(m) = &out.mirror {
        let fresh =
            RepairableHierarchy::build(m.graph(), &OverlayConfig::practical(), cfg.stream.seed)
                .map_err(|e| SimError::Service(format!("mirror verification rebuild: {e}")))?;
        let diverged = m.snapshot() != fresh.snapshot();
        let ledger = m.ledger();
        hier = (
            ledger.repairs,
            ledger.rebuilds,
            ledger.repaired_units + ledger.rebuild_units,
            diverged as u64,
        );
        if diverged {
            return Err(SimError::Service(
                "repaired hierarchy mirror diverged from a from-scratch rebuild".into(),
            ));
        }
    }

    // ---- merge (canonical shard order) and verify -------------------
    let mut report = ServiceReport {
        sent: out.sent,
        applied: 0,
        shed: 0,
        lost: out.lost.lost().len() as u64,
        publishes: 0,
        moves: 0,
        queries: 0,
        superseded: 0,
        degraded: 0,
        queries_correct: 0,
        queries_wrong: 0,
        fenced: 0,
        dropped_attempts: out.dropped,
        retries: out.retries,
        dup_deliveries: out.dups,
        delayed: out.delayed,
        crash_events: out.crash_events,
        replayed_ops: 0,
        redelivered: out.redelivered,
        recovery_cost: 0.0,
        topology_ops: out.topology_ops,
        hier_repairs: hier.0,
        hier_rebuilds: hier.1,
        hier_repair_units: hier.2,
        hier_divergence: hier.3,
        backlog_depth: Histogram::new(),
        backlog_age: Histogram::new(),
        max_depth: 0,
        max_age: 0,
        publish_cost: Histogram::new(),
        move_cost: Histogram::new(),
        query_cost: Histogram::new(),
        ticks: out.ticks,
        shards,
        final_map_fnv: 0,
        trailer: ServiceTrailer {
            workers,
            coordinator_blocked_secs: spent.blocked,
            coordinator_shard_secs: spent.coordinator_shard,
            worker_shard_secs: spent.worker_shard,
            ..ServiceTrailer::default()
        },
    };
    let mut final_positions: Vec<Option<NodeId>> = vec![None; cfg.stream.objects];
    let mut integrity = 0usize;
    for f in &finals {
        let s = &f.stats;
        report.applied += s.applied;
        report.shed += s.shed;
        report.publishes += s.publishes;
        report.moves += s.moves;
        report.queries += s.queries;
        report.superseded += s.superseded;
        report.degraded += s.degraded;
        report.queries_correct += s.queries_correct;
        report.queries_wrong += s.queries_wrong;
        report.fenced += s.fenced;
        report.replayed_ops += s.replayed;
        report.recovery_cost += s.recovery_cost;
        report.backlog_depth.merge(&s.depth_hist);
        report.backlog_age.merge(&s.age_hist);
        report.max_depth = report.max_depth.max(s.max_depth);
        report.max_age = report.max_age.max(s.max_age);
        report.publish_cost.merge(&s.publish_cost);
        report.move_cost.merge(&s.move_cost);
        report.query_cost.merge(&s.query_cost);
        integrity += f.integrity_mismatches;
        for &(o, n) in &f.positions {
            final_positions[o as usize] = Some(n);
        }
    }
    report.final_map_fnv = fnv1a_map(&final_positions);
    let wall_secs = start.elapsed().as_secs_f64();
    report.trailer.wall_secs = wall_secs;
    report.trailer.coordinator_busy_secs = wall_secs - spent.blocked;
    report.trailer.cache = bed.oracle.cache_stats();

    if integrity > 0 {
        return Err(SimError::Service(format!(
            "{integrity} ledger positions disagree with their trackers"
        )));
    }
    if !report.accounted() {
        return Err(SimError::Service(format!(
            "silent loss: sent {} != applied {} + shed {} + lost {}",
            report.sent, report.applied, report.shed, report.lost
        )));
    }
    Ok(ServiceOutcome {
        report,
        final_positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bed() -> TestBed {
        TestBed::grid(6, 6, 42).unwrap()
    }

    fn truth(bed: &TestBed, spec: StreamSpec) -> Vec<Option<NodeId>> {
        let mut s = OpStream::new(&bed.graph, spec);
        while s.next_op().is_some() {}
        s.positions().to_vec()
    }

    fn composed_faults(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_rate: 0.2,
            duplicate_rate: 0.1,
            delay_rate: 0.1,
            link_failure_rate: 0.05,
            crashes: 2,
            max_attempts: 8,
        }
    }

    #[test]
    fn a_topology_op_the_coordinator_cannot_serve_is_an_error_not_a_panic() {
        let bed = bed();
        let failure = |schedule, mirror, delta| match apply_topology(schedule, mirror, delta) {
            Err(SimError::Service(why)) => why,
            other => panic!("expected a service error, got {other:?}"),
        };
        // A static stream has no schedule for a topology op to index.
        let plain = OpStream::new(&bed.graph, StreamSpec::new(4, 100, 3));
        assert!(failure(plain.churn_schedule(), None, 0).contains("no churn schedule"));
        // A churn stream has one; the op still needs a mirror, and a
        // delta the schedule holds.
        let churn_spec = StreamSpec {
            churn_every: 20,
            ..StreamSpec::new(4, 100, 3)
        };
        let churn = OpStream::new(&bed.graph, churn_spec);
        let schedule = churn.churn_schedule().unwrap();
        assert!(failure(Some(schedule), None, 0).contains("no hierarchy mirror"));
        let mut mirror =
            RepairableHierarchy::build(&bed.graph, &OverlayConfig::practical(), 3).unwrap();
        let past = schedule.len() as u32;
        assert!(failure(Some(schedule), Some(&mut mirror), past).contains("past the end"));
        apply_topology(Some(schedule), Some(&mut mirror), 0).unwrap();
    }

    /// Which service thread a board test's task fails on.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Side {
        Coordinator,
        Worker,
    }

    /// Four ticks over two shards on a board with `workers` threads. The
    /// first task to run on `side` fails (errs, or panics with
    /// `panics`); a task on the other side holds until it has, so with
    /// one worker each side surely runs a task. Returns the run and the
    /// failing task's message.
    fn fail_on(
        side: Side,
        panics: bool,
        workers: usize,
    ) -> (std::thread::Result<Result<Vec<u64>, SimError>>, String) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let coordinator = std::thread::current().id();
        let failed = AtomicBool::new(false);
        let why = Mutex::new(String::new());
        let run = |_: &mut (), tick: u64, shard: usize| {
            let here = if std::thread::current().id() == coordinator {
                Side::Coordinator
            } else {
                Side::Worker
            };
            if here == side && !failed.load(Ordering::SeqCst) {
                let msg = format!("tick {tick} shard {shard} on the {here:?}");
                *why.lock().unwrap() = msg.clone();
                failed.store(true, Ordering::SeqCst);
                if panics {
                    std::panic::panic_any(msg);
                }
                return Err(SimError::Service(msg));
            }
            while !failed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Ok(tick)
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            with_board(vec![(), ()], workers, run, |board| {
                for tick in 0..4 {
                    board.submit(tick, 0..2);
                }
                let mut outs = Vec::new();
                for _ in 0..4 {
                    outs.extend(board.collect()?);
                }
                Ok(outs)
            })
            .map(|(outs, _, _)| outs)
        }));
        (outcome, why.into_inner().unwrap())
    }

    /// A shard tick that errs surfaces as its own error, and one that
    /// panics resumes with its own payload, whichever thread ran it; the
    /// run ends in both cases (a hang would stall this test).
    #[test]
    fn a_failed_task_surfaces_as_itself_on_either_thread() {
        for (side, workers) in [
            (Side::Coordinator, 0),
            (Side::Coordinator, 1),
            (Side::Worker, 1),
        ] {
            let (outcome, why) = fail_on(side, false, workers);
            assert!(why.ends_with(&format!("on the {side:?}")), "{why}");
            match outcome {
                Ok(Err(SimError::Service(e))) => assert_eq!(e, why),
                Ok(other) => panic!("{why}: expected its error, got {other:?}"),
                Err(_) => panic!("{why}: an error must not panic"),
            }
            let (outcome, why) = fail_on(side, true, workers);
            let payload = outcome.expect_err("a panicking task must resume its panic");
            assert_eq!(payload.downcast_ref::<String>(), Some(&why));
        }
    }

    /// The reason `run_service` gives for refusing `cfg`.
    fn rejection(cfg: &ServiceConfig) -> String {
        match run_service(&bed(), cfg) {
            Err(SimError::Service(why)) => why,
            other => panic!("expected a service error, got {other:?}"),
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let mut cfg = ServiceConfig::new(StreamSpec::new(4, 100, 3));
        cfg.shards = 0;
        assert!(rejection(&cfg).contains("at least one shard"));
    }

    #[test]
    fn zero_batch_is_rejected() {
        let mut cfg = ServiceConfig::new(StreamSpec::new(4, 100, 3));
        cfg.batch = 0;
        assert!(rejection(&cfg).contains("zero batch"));
    }

    #[test]
    fn shedding_before_degrading_is_rejected() {
        let mut cfg = ServiceConfig::new(StreamSpec::new(4, 100, 3));
        cfg.policy = ShedPolicy {
            degrade_depth: 13,
            shed_depth: 12,
        };
        assert!(rejection(&cfg).contains("degradation must engage before shedding"));
    }

    #[test]
    fn zero_object_stream_is_rejected() {
        let cfg = ServiceConfig::new(StreamSpec::new(0, 100, 3));
        assert!(rejection(&cfg).contains("at least one object"));
    }

    #[test]
    fn query_fraction_outside_the_unit_interval_is_rejected() {
        for query_fraction in [-0.1, 1.5, f64::NAN] {
            let cfg = ServiceConfig::new(StreamSpec {
                query_fraction,
                ..StreamSpec::new(4, 100, 3)
            });
            assert!(rejection(&cfg).contains("probability"), "{query_fraction}");
        }
    }

    #[test]
    fn fault_rates_outside_the_unit_interval_are_rejected() {
        for rate in [1.5, -0.1, f64::NAN] {
            let mut cfg = ServiceConfig::new(StreamSpec::new(4, 100, 3));
            cfg.faults = FaultConfig::dropping(rate, 1);
            assert!(rejection(&cfg).contains("probability"), "{rate}");
        }
        let mut cfg = ServiceConfig::new(StreamSpec::new(4, 100, 3));
        cfg.faults.delay_rate = 1.0;
        assert!(rejection(&cfg).contains("forever"));
    }

    #[test]
    fn churn_with_path_movers_is_rejected() {
        let spec = StreamSpec {
            churn_every: 20,
            ..StreamSpec::new(4, 100, 3)
        }
        .with_mobility(crate::MobilityModel::Waypoint);
        let cfg = ServiceConfig::new(spec);
        assert!(rejection(&cfg).contains("random-walk mobility"));
    }

    #[test]
    fn clean_run_applies_every_op_and_matches_the_generator() {
        let bed = bed();
        let mut cfg = ServiceConfig::new(StreamSpec::new(10, 400, 7));
        cfg.shards = 4;
        cfg.jobs = 2;
        cfg.batch = 64;
        let out = run_service(&bed, &cfg).unwrap();
        let r = &out.report;
        assert!(r.accounted());
        assert_eq!(r.sent, 400);
        assert_eq!((r.lost, r.shed, r.fenced, r.superseded), (0, 0, 0, 0));
        assert_eq!(r.queries_wrong, 0);
        assert_eq!(out.final_positions, truth(&bed, cfg.stream));
    }

    #[test]
    fn composed_faults_end_bit_identical_to_fault_free() {
        let bed = bed();
        let mut cfg = ServiceConfig::new(StreamSpec::new(10, 600, 3));
        cfg.shards = 4;
        cfg.jobs = 2;
        cfg.batch = 64;
        cfg.faults = composed_faults(11);
        let out = run_service(&bed, &cfg).unwrap();
        let r = &out.report;
        assert!(r.accounted());
        assert_eq!(r.lost, 0, "retry budget absorbs this fault plan");
        assert!(r.dropped_attempts > 0 && r.dup_deliveries > 0 && r.delayed > 0);
        assert!(r.crash_events > 0 && r.redelivered + r.replayed_ops > 0);
        assert_eq!(r.queries_wrong, 0);
        assert_eq!(out.final_positions, truth(&bed, cfg.stream));
    }

    #[test]
    fn report_is_bit_identical_across_worker_counts() {
        let bed = bed();
        let mut cfg = ServiceConfig::new(StreamSpec::new(12, 500, 5));
        cfg.shards = 6;
        cfg.batch = 50;
        cfg.faults = composed_faults(21);
        cfg.jobs = 1;
        let one = run_service(&bed, &cfg).unwrap();
        cfg.jobs = 4;
        let four = run_service(&bed, &cfg).unwrap();
        assert_eq!(
            one.report.deterministic_json(),
            four.report.deterministic_json()
        );
        assert_eq!(one.final_positions, four.final_positions);
    }

    /// FNV-1a over a run's deterministic report, folded onto the hash
    /// of its final map.
    fn run_digest(out: &ServiceOutcome) -> u64 {
        let mut h = fnv1a_map(&out.final_positions);
        for b in out.report.deterministic_json().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// `cfg` under the first fault seed whose crash schedule satisfies
    /// `hit`.
    fn crashing_where(
        cfg: &ServiceConfig,
        hit: impl Fn(&BTreeMap<u64, Vec<usize>>) -> bool,
    ) -> ServiceConfig {
        (0..10_000)
            .map(|seed| {
                let mut c = cfg.clone();
                c.faults.seed = seed;
                c
            })
            .find(|c| hit(&crash_schedule(c)))
            .expect("some fault seed hits the schedule")
    }

    /// One config per point where the coordinator must hold every
    /// outstanding tick before it goes on: a crash (its redeliveries
    /// lead the next tick's due list) at tick 1, on two ticks in a row
    /// and on the stream's last tick, and the end test with backlog
    /// left at stream end. Checkpoint-free replay and churn ride along.
    /// Each report and final map is pinned, at 0 workers (the
    /// coordinator runs every shard tick), 1, 2 and 4; the constants come
    /// from the loop that ran each tick to a barrier.
    #[test]
    fn reports_are_pinned_where_the_coordinator_waits() {
        let bed = bed();
        let mut base = ServiceConfig::new(StreamSpec::new(12, 500, 5));
        base.shards = 6;
        base.batch = 50;
        base.checkpoint_every = 4;
        // A bounded budget keeps ops queued, so a crash has some to
        // hand back for redelivery.
        base.shard_budget = 6;
        base.faults = composed_faults(0);
        let last = (base.stream.ops - 1) / base.batch as u64;

        let tick_one = crashing_where(&base, |c| c.contains_key(&1));
        let in_a_row = crashing_where(&base, |c| c.keys().any(|t| c.contains_key(&(t + 1))));
        let last_tick = crashing_where(&base, |c| c.contains_key(&last));
        let mut backlog = base.clone();
        backlog.faults = FaultConfig::default();
        backlog.shard_budget = 3;
        let mut no_checkpoint = crashing_where(&base, |c| c.keys().any(|&t| t > 4));
        no_checkpoint.checkpoint_every = 0;
        let mut churn = base.clone();
        churn.stream.churn_every = 50;

        // Retries land hundreds of ticks out and a shard crashes on the
        // first tick after the stream: the drained loop skips the idle
        // spans between them, checkpoints due inside them included.
        let mut idle_gaps = crashing_where(&base, |c| c.contains_key(&(last + 1)));
        idle_gaps.backoff = Backoff::new(200, 400);
        // A crash on the stream's last tick hands back ops a shard queued
        // the tick before, while every retry waits hundreds of ticks: the
        // redeliveries are due on the next tick, and no idle span may jump
        // over them.
        let mut redelivery_then_gap = base.clone();
        redelivery_then_gap.stream.ops = 460;
        redelivery_then_gap.shard_budget = 10;
        redelivery_then_gap.backoff = Backoff::new(200, 400);
        redelivery_then_gap.faults.seed = 6;
        assert!(crash_schedule(&redelivery_then_gap).contains_key(&last));

        let matrix = [
            ("crash at tick 1", tick_one, 0xb080_64f1_bd9e_ddfc),
            ("crashes in a row", in_a_row, 0xcb73_9ba2_8b35_8116),
            ("crash on the last tick", last_tick, 0xf8e8_f17a_94c0_9107),
            ("backlog at stream end", backlog, 0xb2c4_ffa1_2c76_105c),
            ("no checkpoints", no_checkpoint, 0x6d59_be0f_7b21_d7e6),
            ("churn", churn, 0xf23c_8a8a_795a_6a67),
            (
                "idle gaps after the stream",
                idle_gaps,
                0x90b7_a606_b00f_f256,
            ),
            (
                "redeliveries before an idle gap",
                redelivery_then_gap,
                0x463a_0cb2_25e9_7a53,
            ),
        ];
        for (name, cfg, pinned) in matrix {
            for workers in [0, 1, 2, 4] {
                let out = run_service_on(&bed, &cfg, workers).unwrap();
                let r = &out.report;
                assert!(r.accounted() && r.queries_wrong == 0, "{name}");
                assert!(r.crash_events == 0 || r.redelivered > 0, "{name}");
                if cfg.shard_budget > 0 {
                    assert!(
                        r.ticks > last + 2,
                        "{name}: backlog must outlast the stream"
                    );
                }
                let digest = run_digest(&out);
                assert_eq!(digest, pinned, "{name} at {workers} workers: {digest:#x}");
            }
        }
    }

    #[test]
    fn overload_degrades_queries_before_shedding_and_never_drops_state() {
        let bed = bed();
        let mut cfg = ServiceConfig::new(StreamSpec {
            query_fraction: 0.6,
            ..StreamSpec::new(6, 600, 9)
        });
        cfg.shards = 1;
        cfg.batch = 60;
        cfg.shard_budget = 4;
        cfg.policy = ShedPolicy {
            degrade_depth: 6,
            shed_depth: 12,
        };
        let out = run_service(&bed, &cfg).unwrap();
        let r = &out.report;
        assert!(r.accounted());
        assert!(r.degraded > 0, "pressure must degrade queries first");
        assert!(r.shed > 0, "this overload is past the shed threshold");
        assert!(r.max_depth > 0 && r.max_age > 0);
        assert_eq!(r.lost, 0);
        assert_eq!(
            out.final_positions,
            truth(&bed, cfg.stream),
            "state ops are never shed, so the map still converges"
        );
    }

    #[test]
    fn retry_exhaustion_is_recorded_never_silent() {
        let bed = bed();
        let mut cfg = ServiceConfig::new(StreamSpec::new(8, 300, 13));
        cfg.shards = 4;
        cfg.jobs = 2;
        cfg.faults = FaultConfig {
            seed: 17,
            drop_rate: 0.9,
            max_attempts: 2,
            ..FaultConfig::default()
        };
        let out = run_service(&bed, &cfg).unwrap();
        let r = &out.report;
        assert!(r.lost > 0, "a 90% drop rate defeats a 2-attempt budget");
        assert!(r.accounted(), "every lost op is in a ledger, not silent");
    }

    #[test]
    fn churn_run_absorbs_topology_deltas_without_divergence() {
        let bed = bed();
        let mut spec = StreamSpec::new(8, 400, 19);
        spec.churn_every = 40;
        let mut cfg = ServiceConfig::new(spec);
        cfg.shards = 4;
        cfg.jobs = 2;
        cfg.batch = 64;
        let out = run_service(&bed, &cfg).unwrap();
        let r = &out.report;
        assert!(r.accounted());
        assert!(r.topology_ops > 0, "the stream must carry churn");
        assert_eq!(r.hier_repairs + r.hier_rebuilds, r.topology_ops);
        assert!(r.hier_repair_units > 0);
        assert_eq!(r.hier_divergence, 0, "repair must match rebuild");
        assert_eq!(r.queries_wrong, 0);
        // Topology ops are control plane: data-plane accounting is
        // complete without them.
        assert_eq!(r.sent + r.topology_ops, cfg.stream.ops);
        assert_eq!(out.final_positions, truth(&bed, cfg.stream));
    }

    #[test]
    fn churn_report_is_bit_identical_across_worker_counts() {
        let bed = bed();
        let mut spec = StreamSpec::new(10, 500, 23);
        spec.churn_every = 50;
        let mut cfg = ServiceConfig::new(spec);
        cfg.shards = 6;
        cfg.batch = 50;
        cfg.faults = composed_faults(29);
        cfg.jobs = 1;
        let one = run_service(&bed, &cfg).unwrap();
        cfg.jobs = 4;
        let four = run_service(&bed, &cfg).unwrap();
        assert_eq!(
            one.report.deterministic_json(),
            four.report.deterministic_json()
        );
        assert_eq!(one.final_positions, four.final_positions);
        assert!(one.report.topology_ops > 0);
    }

    /// Every `Backoff` that `Backoff::new` accepts either runs or is
    /// refused by name: the tick horizon and a retry's landing tick are
    /// never computed past a u64, in debug or release.
    #[test]
    fn a_backoff_past_the_tick_horizon_is_refused_not_wrapped() {
        let bed = TestBed::grid(4, 4, 42).unwrap();
        let mut cfg = ServiceConfig::new(StreamSpec::new(5, 200, 3));
        cfg.faults = FaultConfig::dropping(0.3, 1);
        // An uncapped doubling from 1 waits at most 2^6 ticks within
        // 8 attempts: the run completes.
        cfg.backoff = Backoff::new(1, u64::MAX);
        let out = run_service(&bed, &cfg).unwrap();
        assert!(out.report.accounted() && out.report.retries > 0);
        // Its first retry lands 2^63 ticks out: refused, naming it.
        cfg.backoff = Backoff::new(u64::MAX / 2, u64::MAX / 2);
        let why = rejection(&cfg);
        assert!(
            why.contains(&format!("backoff (base {0}, cap {0})", u64::MAX / 2)),
            "{why}"
        );
    }

    /// A representable but huge backoff: every retry lands about 2^40
    /// ticks out. The drained loop jumps the idle spans instead of
    /// walking them, so the run ends at once.
    #[test]
    fn a_huge_backoff_skips_its_idle_ticks() {
        let bed = TestBed::grid(4, 4, 42).unwrap();
        let mut cfg = ServiceConfig::new(StreamSpec::new(5, 200, 3));
        cfg.faults = FaultConfig::dropping(0.3, 1);
        cfg.backoff = Backoff::new(1 << 40, 1 << 40);
        let start = Instant::now();
        let out = run_service(&bed, &cfg).unwrap();
        let secs = start.elapsed().as_secs_f64();
        let r = &out.report;
        assert!(r.accounted() && r.retries > 0);
        assert!(r.ticks > 1 << 40, "{} ticks", r.ticks);
        assert!(secs < 5.0, "{secs:.1} s");
        assert_eq!(r.backlog_depth.count, r.ticks * cfg.shards as u64);
    }

    #[test]
    fn auto_jobs_leave_the_coordinator_a_thread() {
        assert_eq!(
            workers_for(0, 1, 8),
            0,
            "one CPU: the coordinator runs every tick"
        );
        assert_eq!(workers_for(0, 2, 8), 1);
        assert_eq!(workers_for(0, 16, 8), 8, "never more than the shards");
        assert_eq!(workers_for(0, 0, 8), 0);
        assert_eq!(workers_for(2, 1, 8), 2, "an explicit count stands");
        assert_eq!(workers_for(4, 8, 3), 3);
    }

    #[test]
    fn report_json_has_deterministic_body_and_wall_trailer() {
        let bed = bed();
        let cfg = ServiceConfig::new(StreamSpec::new(5, 100, 1));
        let out = run_service(&bed, &cfg).unwrap();
        let det = out.report.deterministic_json();
        let full = JsonWriter::render(&out.report);
        assert!(!det.contains("\"wall\""));
        for key in [
            "ops_per_sec",
            "coordinator_busy_secs",
            "coordinator_blocked_secs",
            "coordinator_shard_secs",
            "worker_shard_secs",
        ] {
            assert!(
                !det.contains(key) && full.contains(&format!("\"{key}\":")),
                "{key}"
            );
        }
        assert!(full.starts_with(&det[..det.len() - 1]));
        // The body the trailer leaves alone, pinned from the loop that
        // ran each shard on one worker thread.
        let digest = run_digest(&out);
        assert_eq!(digest, 0xf1d6_b714_85a2_a776, "{digest:#x}");
        let r = &out.report.trailer;
        assert!(r.coordinator_shard_secs + r.worker_shard_secs > 0.0);
        let split = r.coordinator_busy_secs + r.coordinator_blocked_secs;
        assert!((split - r.wall_secs).abs() < 1e-9, "busy + blocked = wall");
    }
}
