//! Concurrent execution engine (paper §4.1.2, §4.2.2, §8).
//!
//! A discrete-event simulation in which message latency equals message
//! distance (one time unit per distance unit). Maintenance operations for
//! one object race: up to `max_inflight_per_object` requests climb their
//! detection paths simultaneously, each probing the *committed* tracking
//! state as it goes; an operation commits the moment its probe finds a
//! node that currently knows the object. Operations crossing into level
//! `i` wait for the end of the current level-`i` period `Φ(i) ∝ 2^i`
//! (the synchronization discipline of §4.1.2). Racing requests that lose
//! a meet point to an earlier commit climb higher and pay more — exactly
//! the concurrency overhead Figs. 12–15 measure.
//!
//! Queries may overlap maintenance (§4.2.2): a query locates the object
//! against the committed state, descends, and — if the object moved while
//! the result message was in flight — chases the forwarding pointer the
//! delete message left behind, until it lands on the live proxy.
//!
//! An event is one packed integer key: the probe time's bits above the
//! op index, so a min-heap of keys pops by time, then op, with no float
//! comparator (times are finite and non-negative, whose bits order as
//! their values). [`ConcurrentEngine::run`] dispatches once per run, to
//! [`ClimbStructure::run_engine`], which runs the engine compiled for
//! the tracker's own type: every probe is a static call.

use crate::metrics::CostStats;
use crate::mobility::Workload;
use mot_baselines::TreeTracker;
use mot_core::{CoreError, MotTracker, ObjectId, Result, Tracker};
use mot_net::{DistanceOracle, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One stop of a climb from an origin: member `index` of the origin's
/// level-`level` station (on a tree, the ancestor `level` hops up, at
/// index 0), and the length of the hop that brings the climb there from
/// the stop before (0 at the first stop). The length is the structure's
/// stored constant, bit for bit the oracle's `dist(previous, node)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stop {
    /// The station node.
    pub node: NodeId,
    /// Its level on the climb.
    pub level: usize,
    /// Its position in the level's station.
    pub index: usize,
    /// The length of the hop into it.
    pub hop: f64,
}

impl Stop {
    /// The first stop of every climb from `v`: `v` itself, at level 0,
    /// reached at no cost.
    pub fn first(v: NodeId) -> Stop {
        Stop {
            node: v,
            level: 0,
            index: 0,
            hop: 0.0,
        }
    }
}

/// A tracking structure the event engine can drive: a climb order, a
/// committed-state probe, a locate probe for queries, and the forwarding
/// period per level.
pub trait ClimbStructure: Tracker {
    /// Runs the engine compiled for `Self` (what [`ConcurrentEngine::run`]
    /// calls, once per run, so that a `dyn` tracker's probes are static
    /// calls too). Implementors keep the provided body.
    fn run_engine(
        &mut self,
        workload: &Workload,
        oracle: &dyn DistanceOracle,
        cfg: &ConcurrentConfig,
    ) -> Result<ConcurrentOutcome> {
        ConcurrentEngine::run_typed(self, workload, oracle, cfg)
    }

    /// The stop after `at` on the climb from `v` (which starts at
    /// [`Stop::first`]`(v)`), or `None` once `at` is the root. Reads the
    /// structure's stored stations and hops: O(1), and allocates nothing.
    fn next_stop(&self, v: NodeId, at: Stop) -> Option<Stop>;

    /// Whether `node` holds `o` at role `level` in the committed state.
    fn committed_holds(&self, node: NodeId, level: usize, o: ObjectId) -> bool;

    /// If a query probing `(node, level)` can locate `o`, the cost of its
    /// downward phase against the committed state.
    fn locate(&self, node: NodeId, level: usize, o: ObjectId) -> Option<f64>;

    /// Forwarding period `Φ(level)`; 0 disables period synchronization
    /// (tree baselines forward immediately).
    fn level_period(&self, level: usize) -> f64;
}

impl ClimbStructure for MotTracker<'_> {
    #[inline]
    fn next_stop(&self, v: NodeId, at: Stop) -> Option<Stop> {
        let (node, level, index, hop) = self.overlay().climb_step(v, at.level, at.index)?;
        Some(Stop {
            node,
            level,
            index,
            hop,
        })
    }

    #[inline]
    fn committed_holds(&self, node: NodeId, level: usize, o: ObjectId) -> bool {
        self.holds(node, level, o)
    }

    fn locate(&self, node: NodeId, level: usize, o: ObjectId) -> Option<f64> {
        self.locate_cost(node, level, o)
    }

    #[inline]
    fn level_period(&self, level: usize) -> f64 {
        (1u64 << level) as f64
    }
}

impl ClimbStructure for TreeTracker<'_> {
    #[inline]
    fn next_stop(&self, _v: NodeId, at: Stop) -> Option<Stop> {
        let parent = self.tree().parent(at.node)?;
        Some(Stop {
            node: parent,
            level: at.level + 1,
            index: 0,
            hop: self.hop_up(at.node),
        })
    }

    #[inline]
    fn committed_holds(&self, node: NodeId, _level: usize, o: ObjectId) -> bool {
        self.holds(node, o)
    }

    fn locate(&self, node: NodeId, _level: usize, o: ObjectId) -> Option<f64> {
        if self.queries_via_root() && node != self.tree().root() {
            // STUN routes queries to the sink; intermediate ancestors
            // never answer.
            return None;
        }
        if self.holds(node, o) {
            self.descend_cost(o, node)
        } else {
            None
        }
    }

    #[inline]
    fn level_period(&self, _level: usize) -> f64 {
        0.0
    }
}

/// Engine parameters.
#[derive(Clone, Debug)]
pub struct ConcurrentConfig {
    /// Maximum simultaneously in-flight maintenance operations per object
    /// (the paper's experiments fix this at 10).
    pub max_inflight_per_object: usize,
    /// Queries injected per batch, racing the batch's maintenance
    /// operations (0 reproduces the maintenance-only figures).
    pub queries_per_batch: usize,
    /// Seed for query placement.
    pub seed: u64,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            max_inflight_per_object: 10,
            queries_per_batch: 0,
            seed: 0,
        }
    }
}

/// Aggregate results of a concurrent run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConcurrentOutcome {
    /// Effective maintenance traffic vs the optimal `C*(E)`.
    pub maintenance: CostStats,
    /// Query traffic vs each query's optimal distance at issue time.
    pub queries: CostStats,
    /// Queries the engine issued while maintenance was in flight.
    pub queries_issued: usize,
    /// Queries that located the true proxy despite racing moves.
    pub queries_correct: usize,
    /// Events the engine popped: every probe of a climbing op, and every
    /// arrival of a query's result.
    pub probes: usize,
}

enum Task {
    /// A maintenance request heading to the op's origin. `optimal` is
    /// the operation's share of `C*(E)` — the distance the object
    /// physically moved for this trace step (the paper's optimal is
    /// defined on the operation *set*, independent of the realized
    /// commit order).
    Move { optimal: f64 },
    /// A query from the op's origin, climbing; after locating it
    /// verifies/chases.
    QueryClimb,
    /// A query result in flight toward `expected` proxy; on arrival the
    /// proxy may have moved again.
    QueryChase { expected: NodeId, cost_so_far: f64 },
}

struct Op {
    task: Task,
    /// Where the op's climb started: a move's destination or a query's
    /// source.
    origin: NodeId,
    /// The stop the op probes next.
    at: Stop,
    /// Distance travelled up to `at`: [`ConcurrentEngine::advance`]
    /// adds each hop as it schedules it, first hop first.
    travelled: f64,
}

/// The state of one run: its results so far, the query stream, and the
/// buffers it keeps between batches so that a batch allocates nothing
/// once the largest one has been seen.
struct Run {
    outcome: ConcurrentOutcome,
    /// Query placement; drawn batch by batch, in batch order.
    rng: ChaCha8Rng,
    /// The live batch's ops; empty between batches.
    ops: Vec<Op>,
    /// Pending events as [`key`]s; a batch runs until it is empty.
    heap: BinaryHeap<Reverse<u128>>,
}

impl Run {
    /// Admits one op climbing from `origin`, first probe at `start`.
    fn admit(&mut self, origin: NodeId, start: f64, task: Task) {
        self.heap.push(key(start, self.ops.len()));
        self.ops.push(Op {
            task,
            origin,
            at: Stop::first(origin),
            travelled: 0.0,
        });
    }
}

/// The event of `op` probing at `time`, as a min-heap entry: the time's
/// bits above the op index. A finite `time ≥ 0` orders by its bits as by
/// its value, so keys order as `(time, op)`; `-0.0` is stored as `+0.0`,
/// whose bits sort first.
#[inline]
fn key(time: f64, op: usize) -> Reverse<u128> {
    debug_assert!(time.is_finite() && time >= 0.0, "event time {time}");
    let bits = if time == 0.0 { 0 } else { time.to_bits() };
    Reverse((bits as u128) << 64 | op as u128)
}

/// The discrete-event concurrent executor.
///
/// # Example
///
/// Replay a workload with up to 10 racing requests per object; the
/// concurrency overhead shows up as a maintenance ratio at or above
/// the one-by-one replay's (Figs. 12–15):
///
/// ```
/// use mot_sim::{run_publish, Algo, ConcurrentConfig, ConcurrentEngine, TestBed, WorkloadSpec};
/// use mot_baselines::DetectionRates;
///
/// let bed = TestBed::grid(4, 4, 1)?;
/// let w = WorkloadSpec::new(2, 20, 3).generate(&bed.graph);
/// let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
/// let mut t = bed.make_tracker(Algo::Mot, &rates)?;
/// run_publish(t.as_mut(), &w)?;
/// let out = ConcurrentEngine::run(
///     t.as_mut(),
///     &w,
///     &bed.oracle,
///     &ConcurrentConfig { queries_per_batch: 1, ..ConcurrentConfig::default() },
/// )?;
/// assert!(out.maintenance.ratio() >= 1.0);
/// assert_eq!(out.queries_correct, out.queries_issued);
/// # Ok::<(), mot_sim::SimError>(())
/// ```
pub struct ConcurrentEngine;

impl ConcurrentEngine {
    /// Runs `workload` concurrently: each object's moves are cut into
    /// batches of `max_inflight_per_object` simultaneous requests
    /// (batches for one object run in trace order; objects never
    /// interact, so batch order across objects is immaterial). Optional
    /// queries race each batch. An object with moves that `tracker`
    /// never published is [`CoreError::UnknownObject`], returned before
    /// its first batch runs.
    pub fn run<S: ClimbStructure + ?Sized>(
        tracker: &mut S,
        workload: &Workload,
        oracle: &dyn DistanceOracle,
        cfg: &ConcurrentConfig,
    ) -> Result<ConcurrentOutcome> {
        tracker.run_engine(workload, oracle, cfg)
    }

    /// [`run`](Self::run) on a concrete tracker type:
    /// [`ClimbStructure::run_engine`]'s body.
    fn run_typed<S: ClimbStructure + ?Sized>(
        tracker: &mut S,
        workload: &Workload,
        oracle: &dyn DistanceOracle,
        cfg: &ConcurrentConfig,
    ) -> Result<ConcurrentOutcome> {
        let k = cfg.max_inflight_per_object.max(1);
        let mut run = Run {
            outcome: ConcurrentOutcome::default(),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            ops: Vec::with_capacity(k + cfg.queries_per_batch),
            heap: BinaryHeap::with_capacity(k + cfg.queries_per_batch),
        };
        let Some(&first) = workload.moves.first() else {
            return Ok(run.outcome);
        };

        // Group moves per object, keeping trace order: a counting sort
        // into one vector. `ends[o]` is where object `o`'s next move
        // goes while filling, and where its group ends afterwards. The
        // moves, not `initial`, bound the ids: both fields are public.
        let objects = workload
            .moves
            .iter()
            .map(|m| m.object.index() + 1)
            .max()
            .unwrap_or(0);
        let mut ends = vec![0usize; objects + 1];
        for m in &workload.moves {
            ends[m.object.index() + 1] += 1;
        }
        for o in 0..objects {
            ends[o + 1] += ends[o];
        }
        let mut grouped = vec![first; workload.moves.len()];
        for m in &workload.moves {
            let slot = &mut ends[m.object.index()];
            grouped[*slot] = *m;
            *slot += 1;
        }

        let mut start = 0;
        for (oi, &end) in ends[..objects].iter().enumerate() {
            let object = ObjectId(oi as u32);
            if start < end && tracker.proxy_of(object).is_none() {
                return Err(CoreError::UnknownObject(object));
            }
            for batch in grouped[start..end].chunks(k) {
                Self::run_batch(tracker, object, batch, oracle, cfg, &mut run)?;
            }
            start = end;
        }
        Ok(run.outcome)
    }

    fn run_batch<S: ClimbStructure + ?Sized>(
        tracker: &mut S,
        object: ObjectId,
        destinations: &[crate::mobility::MoveOp],
        oracle: &dyn DistanceOracle,
        cfg: &ConcurrentConfig,
        run: &mut Run,
    ) -> Result<()> {
        for mv in destinations {
            let optimal = oracle.dist(mv.from, mv.to);
            run.admit(mv.to, 0.0, Task::Move { optimal });
        }
        let n = oracle.node_count();
        for _ in 0..cfg.queries_per_batch {
            let from = NodeId::from_index(run.rng.gen_range(0..n));
            // Queries start staggered through the batch's early phase so
            // some overlap the racing maintenance mid-flight.
            let start = run.rng.gen_range(0.0..oracle.diameter().max(1.0));
            run.admit(from, start, Task::QueryClimb);
            run.outcome.queries_issued += 1;
        }

        let Run {
            ops, heap, outcome, ..
        } = run;
        while let Some(Reverse(event)) = heap.pop() {
            let (time, op_idx) = (f64::from_bits((event >> 64) as u64), event as u64 as usize);
            outcome.probes += 1;
            let op = &mut ops[op_idx];
            let Stop { node, level, .. } = op.at;
            match op.task {
                Task::Move { optimal } => {
                    if tracker.committed_holds(node, level, object) {
                        // The request found the object's information: the
                        // update commits against the committed state. The
                        // request may have climbed past stops that were
                        // empty when it probed them but have been
                        // re-populated by a racing commit since —
                        // `move_object` climbs from the same origin over
                        // the same stored hops and stops at the first
                        // holder *now*, so what this op travelled beyond
                        // that climb is the wasted racing distance.
                        let mv = tracker.move_object(object, op.origin)?;
                        let waste = (op.travelled - mv.climb).max(0.0);
                        outcome.maintenance.record(mv.cost + waste, optimal);
                    } else {
                        Self::advance(tracker, op_idx, op, time, heap);
                    }
                }
                Task::QueryClimb => {
                    if let Some(descend) = tracker.locate(node, level, object) {
                        let expected = tracker.proxy_of(object).expect("object is published");
                        op.task = Task::QueryChase {
                            expected,
                            cost_so_far: op.travelled + descend,
                        };
                        heap.push(key(time + descend, op_idx));
                    } else {
                        Self::advance(tracker, op_idx, op, time, heap);
                    }
                }
                Task::QueryChase {
                    expected,
                    cost_so_far,
                } => {
                    let live = tracker.proxy_of(object).expect("object is published");
                    if live == expected {
                        // Query settled on the true proxy.
                        outcome.queries_correct += 1;
                        let optimal = oracle.dist(op.origin, live);
                        if optimal > 0.0 {
                            outcome.queries.record(cost_so_far, optimal);
                        }
                    } else {
                        // The object moved while the result was in
                        // flight: the stale proxy forwards the query
                        // along the location carried by the delete.
                        let hop = oracle.dist(expected, live);
                        op.task = Task::QueryChase {
                            expected: live,
                            cost_so_far: cost_so_far + hop,
                        };
                        heap.push(key(time + hop.max(1e-9), op_idx));
                    }
                }
            }
        }
        ops.clear();
        Ok(())
    }

    /// Moves a climbing op to its next stop, bills the hop to its
    /// `travelled`, and schedules the probe there: travel time plus the
    /// period barrier when crossing into a higher level.
    fn advance<S: ClimbStructure + ?Sized>(
        tracker: &S,
        op_idx: usize,
        op: &mut Op,
        now: f64,
        heap: &mut BinaryHeap<Reverse<u128>>,
    ) {
        let next = tracker
            .next_stop(op.origin, op.at)
            .expect("the root holds every published object");
        op.travelled += next.hop;
        let mut t = now + next.hop.max(1e-9);
        if next.level > op.at.level {
            let phi = tracker.level_period(next.level);
            if phi > 0.0 {
                t = (t / phi).ceil() * phi;
            }
        }
        op.at = next;
        heap.push(key(t, op_idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::WorkloadSpec;
    use crate::run::run_publish;
    use mot_baselines::{build_stun, DetectionRates, TrackingTree, TreeTracker};
    use mot_core::{MotConfig, MotTracker};
    use mot_hierarchy::{build_doubling, OverlayConfig};
    use mot_net::generators;
    use mot_net::DenseOracle;

    fn cfg(
        max_inflight_per_object: usize,
        queries_per_batch: usize,
        seed: u64,
    ) -> ConcurrentConfig {
        ConcurrentConfig {
            max_inflight_per_object,
            queries_per_batch,
            seed,
        }
    }

    fn grid_env() -> (mot_net::Graph, DenseOracle, mot_hierarchy::Overlay) {
        let g = generators::grid(6, 6).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let o = build_doubling(&g, &m, &OverlayConfig::practical(), 5);
        (g, m, o)
    }

    #[test]
    fn concurrent_moves_commit_every_operation() {
        let (g, m, overlay) = grid_env();
        let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
        let w = WorkloadSpec::new(3, 50, 2).generate(&g);
        run_publish(&mut t, &w).unwrap();
        let out = ConcurrentEngine::run(&mut t, &w, &m, &cfg(10, 0, 1)).unwrap();
        assert_eq!(out.maintenance.operations, 150);
        assert!(out.maintenance.ratio() >= 1.0);
        t.check_invariants();
        // the final proxy of each object is one of its trace destinations
        for (oi, _) in w.initial.iter().enumerate() {
            let o = ObjectId(oi as u32);
            let p = t.proxy_of(o).unwrap();
            let dests: Vec<NodeId> = w
                .moves
                .iter()
                .filter(|mv| mv.object == o)
                .map(|mv| mv.to)
                .collect();
            assert!(dests.contains(&p) || w.initial[oi] == p);
        }
    }

    #[test]
    fn inflight_one_matches_one_by_one_costs() {
        // With a single in-flight op per object the engine degenerates to
        // one-by-one execution: identical total maintenance cost.
        let (g, m, overlay) = grid_env();
        let w = WorkloadSpec::new(2, 40, 8).generate(&g);

        let mut seq = MotTracker::new(&overlay, &m, MotConfig::plain());
        run_publish(&mut seq, &w).unwrap();
        let seq_stats = crate::run::replay(&mut seq, &w, &m, None).unwrap().cost;

        let mut con = MotTracker::new(&overlay, &m, MotConfig::plain());
        run_publish(&mut con, &w).unwrap();
        let out = ConcurrentEngine::run(&mut con, &w, &m, &cfg(1, 0, 1)).unwrap();
        assert!(
            (out.maintenance.total - seq_stats.total).abs() < 1e-6,
            "k=1 concurrent {} != sequential {}",
            out.maintenance.total,
            seq_stats.total
        );
        assert!((out.maintenance.optimal - seq_stats.optimal).abs() < 1e-6);
    }

    #[test]
    fn overlapping_queries_always_settle_on_the_live_proxy() {
        let (g, m, overlay) = grid_env();
        let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
        let w = WorkloadSpec::new(2, 60, 3).generate(&g);
        run_publish(&mut t, &w).unwrap();
        let out = ConcurrentEngine::run(&mut t, &w, &m, &cfg(10, 4, 7)).unwrap();
        assert!(out.queries_issued > 0);
        assert_eq!(out.queries_correct, out.queries_issued);
        assert!(out.queries.ratio() >= 1.0);
    }

    #[test]
    fn tree_trackers_run_concurrently_too() {
        let g = generators::grid(5, 5).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let w = WorkloadSpec::new(2, 30, 4).generate(&g);
        let rates = DetectionRates::from_moves(&g, &w.move_pairs());
        let tree: TrackingTree = build_stun(&g, &rates);
        let mut t = TreeTracker::new("STUN", tree, &m, false);
        run_publish(&mut t, &w).unwrap();
        let out = ConcurrentEngine::run(&mut t, &w, &m, &cfg(5, 2, 5)).unwrap();
        assert_eq!(out.maintenance.operations, 60);
        assert_eq!(out.queries_correct, out.queries_issued);
    }

    #[test]
    fn concurrency_does_not_undershoot_sequential_ratio_much() {
        // Racing requests can only climb at least as far as the
        // sequential execution for the same committed meets; the ratio
        // should be in the same ballpark or above.
        let (g, m, overlay) = grid_env();
        let w = WorkloadSpec::new(4, 80, 12).generate(&g);

        let mut seq = MotTracker::new(&overlay, &m, MotConfig::plain());
        run_publish(&mut seq, &w).unwrap();
        let s = crate::run::replay(&mut seq, &w, &m, None).unwrap().cost;

        let mut con = MotTracker::new(&overlay, &m, MotConfig::plain());
        run_publish(&mut con, &w).unwrap();
        let c = ConcurrentEngine::run(&mut con, &w, &m, &ConcurrentConfig::default()).unwrap();
        assert!(
            c.maintenance.ratio() > 0.3 * s.ratio(),
            "concurrent ratio {} collapsed vs sequential {}",
            c.maintenance.ratio(),
            s.ratio()
        );
    }
    #[test]
    fn outcomes_match_the_constants_of_the_unpooled_engine() {
        // Constants from a run at the commit before the engine pooled its
        // buffers and began carrying `travelled`; the probe counts from
        // the engine before it packed its event keys. Every object has 25
        // moves at 10 in flight, so its batches shrink (10, 10, 5).
        let (g, m, overlay) = grid_env();
        let w = WorkloadSpec::new(3, 25, 6).generate(&g);
        let rates = DetectionRates::from_moves(&g, &w.move_pairs());
        let mot = || MotTracker::new(&overlay, &m, MotConfig::plain());
        let stun =
            || TreeTracker::new("STUN", build_stun(&g, &rates), &m, false).with_root_queries();

        // (queries per batch, MOT?, maintenance total, maintenance ratio
        // sum, query total, query ratio sum, queries issued) — f64s as
        // bits —, and the probes each row pops.
        let pins: [(usize, bool, u64, u64, u64, u64, usize); 4] = [
            (0, true, 0x4080580000000000, 0x4080580000000000, 0, 0, 0),
            (0, false, 0x4070200000000000, 0x4070200000000000, 0, 0, 0),
            (
                2,
                true,
                0x4080580000000000,
                0x4080580000000000,
                0x4064600000000000,
                0x404b449249249249,
                18,
            ),
            (
                2,
                false,
                0x4070200000000000,
                0x4070200000000000,
                0x4068200000000000,
                0x405223a83a83a83b,
                18,
            ),
        ];
        let probes = [233, 146, 314, 208];
        for (
            (queries_per_batch, is_mot, maint, maint_ratios, query, query_ratios, issued),
            probes,
        ) in pins.into_iter().zip(probes)
        {
            let cfg = cfg(10, queries_per_batch, 9);
            let out = if is_mot {
                let mut t = mot();
                run_publish(&mut t, &w).unwrap();
                ConcurrentEngine::run(&mut t, &w, &m, &cfg).unwrap()
            } else {
                let mut t = stun();
                run_publish(&mut t, &w).unwrap();
                ConcurrentEngine::run(&mut t, &w, &m, &cfg).unwrap()
            };
            let got = (
                out.maintenance.total.to_bits(),
                out.maintenance.ratio_sum.to_bits(),
                out.queries.total.to_bits(),
                out.queries.ratio_sum.to_bits(),
                out.queries_issued,
                out.probes,
            );
            assert_eq!(
                got,
                (maint, maint_ratios, query, query_ratios, issued, probes),
                "mot {is_mot}, {queries_per_batch} queries a batch"
            );
            assert_eq!(out.maintenance.operations, 75);
            assert_eq!(out.queries_correct, out.queries_issued);
        }
    }

    #[test]
    fn a_move_past_the_initial_objects_runs_as_in_replay() {
        // `Workload`'s fields are public: a move may name an object
        // `initial` does not list. Published, it runs as replay runs it;
        // unpublished, it is the same error as any unknown object.
        fn check<T: ClimbStructure>(make: impl Fn() -> T, w: &Workload, m: &DenseOracle) {
            let extra = ObjectId(w.object_count() as u32);
            let last = *w.moves.last().unwrap();
            let cfg = cfg(1, 0, 3);
            let (mut seq, mut con, mut bare) = (make(), make(), make());
            for t in [&mut seq, &mut con, &mut bare] {
                run_publish(t, w).unwrap();
            }
            seq.publish(extra, last.from).unwrap();
            con.publish(extra, last.from).unwrap();
            let replayed = crate::run::replay(&mut seq, w, m, None).unwrap().cost;
            let out = ConcurrentEngine::run(&mut con, w, m, &cfg).unwrap();
            assert_eq!(out.maintenance.operations, w.moves.len(), "{}", con.name());
            assert!((out.maintenance.total - replayed.total).abs() < 1e-6);
            assert_eq!(con.proxy_of(extra), Some(last.to));
            let err = ConcurrentEngine::run(&mut bare, w, m, &cfg).unwrap_err();
            assert_eq!(err, CoreError::UnknownObject(extra), "{}", bare.name());
        }

        let (g, m, overlay) = grid_env();
        let mut w = WorkloadSpec::new(2, 12, 4).generate(&g);
        w.moves.push(crate::mobility::MoveOp {
            object: ObjectId(w.object_count() as u32),
            from: NodeId(0),
            to: NodeId(1),
        });
        let rates = DetectionRates::from_moves(&g, &w.move_pairs());
        check(|| MotTracker::new(&overlay, &m, MotConfig::plain()), &w, &m);
        check(
            || TreeTracker::new("STUN", build_stun(&g, &rates), &m, false),
            &w,
            &m,
        );
    }

    #[test]
    fn an_unpublished_object_is_an_error_not_a_panic() {
        // Object 1 has moves but was never published: its first batch
        // would climb past the root without meeting it.
        let (g, m, overlay) = grid_env();
        let w = WorkloadSpec::new(3, 12, 4).generate(&g);
        let rates = DetectionRates::from_moves(&g, &w.move_pairs());
        for queries_per_batch in [0, 1] {
            let cfg = cfg(10, queries_per_batch, 3);
            let mut mot = MotTracker::new(&overlay, &m, MotConfig::plain());
            let mut stun = TreeTracker::new("STUN", build_stun(&g, &rates), &m, false);
            let trackers: [&mut dyn ClimbStructure; 2] = [&mut mot, &mut stun];
            for t in trackers {
                for (oi, &proxy) in w.initial.iter().enumerate() {
                    if oi != 1 {
                        t.publish(ObjectId(oi as u32), proxy).unwrap();
                    }
                }
                let err = ConcurrentEngine::run(t, &w, &m, &cfg).unwrap_err();
                assert_eq!(
                    err,
                    CoreError::UnknownObject(ObjectId(1)),
                    "{}, {queries_per_batch} queries a batch",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn packed_keys_order_as_time_then_op() {
        // Φ-ceilings `c`, ties under different ops, 1e-9 steps and times
        // past 2^40, against the `(time, op)` comparator the keys replaced.
        let c = |t: f64, phi: f64| (t / phi).ceil() * phi;
        let times = [0.0, -0.0, 1e-9, 2e-9, 1.0 + 1e-9, 3.0]
            .into_iter()
            .chain([c(3.0 + 1e-9, 4.0), c(5.5, 8.0), c(1e6 / 3.0, 1024.0)])
            .chain([1.65e12, 4.4e12 + 1e-3, c(3.5e13 + 3.0, 4096.0)]);
        let events: Vec<(f64, usize)> = times
            .flat_map(|t| [(t, 0), (t, 7), (t, u32::MAX as usize + 1)])
            .collect();
        for &(ta, oa) in &events {
            for &(tb, ob) in &events {
                let old = ta.partial_cmp(&tb).unwrap().then(oa.cmp(&ob));
                let new = key(tb, ob).cmp(&key(ta, oa));
                assert_eq!(new, old, "({ta:e}, {oa}) against ({tb:e}, {ob})");
            }
        }
    }
}
