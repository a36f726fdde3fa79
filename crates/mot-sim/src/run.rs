//! One-by-one execution: publish, maintenance replay, query batches.
//!
//! Each operation completes before the next starts (the paper's primary
//! case, matching scenarios where event inter-arrival times dwarf message
//! propagation times).
//!
//! [`replay`] and [`query_batch`] are the only op drivers. Each scores
//! every operation against its optimal cost and takes an optional
//! [`FaultPlan`]: without one it is the paper's reliable run, with one it
//! injects the plan's crashes, charges its retry overhead and repairs
//! what a query finds damaged (DESIGN.md §6).

use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::metrics::{CostStats, LoadStats};
use crate::mobility::Workload;
use crate::scenario::{QueryModel, ZipfSampler};
use mot_core::{CoreError, ObjectId, Result, Tracker};
use mot_net::{DistanceOracle, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Publishes every object of `workload` at its initial proxy. Returns the
/// total publish cost (a one-time cost outside the cost ratios).
///
/// # Example
///
/// ```
/// use mot_sim::{run_publish, Algo, TestBed, WorkloadSpec};
/// use mot_baselines::DetectionRates;
///
/// let bed = TestBed::grid(4, 4, 1)?;
/// let w = WorkloadSpec::new(2, 10, 3).generate(&bed.graph);
/// let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
/// let mut t = bed.make_tracker(Algo::Mot, &rates)?;
/// let cost = run_publish(t.as_mut(), &w)?;
/// assert!(cost > 0.0); // Thm 4.1: O(D) per object, never free here
/// # Ok::<(), mot_sim::SimError>(())
/// ```
pub fn run_publish(tracker: &mut dyn Tracker, workload: &Workload) -> Result<f64> {
    let mut total = 0.0;
    for (oi, &proxy) in workload.initial.iter().enumerate() {
        total += tracker.publish(ObjectId(oi as u32), proxy)?;
    }
    Ok(total)
}

/// Outcome of a maintenance replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayStats {
    /// Move cost vs optimal (`dist(from, to)`) per move. A move with zero
    /// optimal cost stays in here, counted in `zero_optimal_ops`.
    pub cost: CostStats,
    /// Wasted distance under a fault plan: lost transmissions,
    /// retransmissions, duplicates. 0 without a plan.
    pub retry_overhead: f64,
    /// Crash events the plan injected. 0 without a plan.
    pub crashes_injected: usize,
}

/// Replays the maintenance operations one by one, accumulating
/// algorithm-vs-optimal cost.
///
/// Without a plan, every move's `from` is checked against the
/// structure's proxy record; a mismatch aborts the replay with
/// [`SimError::TraceDiverged`], because cost accounts after a divergence
/// would compare the algorithm against the wrong optimal. With a plan,
/// the sensors scheduled to crash before a move reboot with amnesia
/// ([`Tracker::crash_node`] then [`Tracker::recover_node`]) and the move
/// self-repairs what it touches. Crash handoffs legitimately relocate
/// objects, so every move is scored from the structure's actual `from`.
pub fn replay(
    tracker: &mut dyn Tracker,
    workload: &Workload,
    oracle: &dyn DistanceOracle,
    mut faults: Option<&mut FaultPlan>,
) -> std::result::Result<ReplayStats, SimError> {
    let mut out = ReplayStats::default();
    for (step, m) in workload.moves.iter().enumerate() {
        if let Some(plan) = faults.as_deref() {
            let schedule = plan.crash_schedule();
            while let Some(&(_, v)) = schedule
                .get(out.crashes_injected)
                .filter(|&&(at, _)| at == step)
            {
                tracker.crash_node(v);
                tracker.recover_node(v);
                out.crashes_injected += 1;
            }
        }
        let outcome = tracker.move_object(m.object, m.to)?;
        match faults.as_deref_mut() {
            Some(plan) => out.retry_overhead += plan.transmission_overhead(outcome.cost),
            None if outcome.from != m.from => {
                return Err(SimError::TraceDiverged {
                    step,
                    object: m.object,
                    expected: m.from,
                    actual: outcome.from,
                })
            }
            None => {}
        }
        out.cost
            .record(outcome.cost, oracle.dist(outcome.from, m.to));
    }
    Ok(out)
}

/// How a query batch draws each `(requester, object)` pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Draw {
    /// The requester uniformly over all sensors, then the object from
    /// the popularity model.
    Model(QueryModel),
    /// The object uniformly, then the requester uniformly from within
    /// distance `radius` of its proxy. Distance-sensitive tracking is the
    /// paper's core promise — a query about a nearby object must cost
    /// proportional to the distance, not the network size — and local
    /// queries are where sink-routed baselines pay their detour.
    Local {
        /// Largest requester–proxy distance drawn.
        radius: f64,
    },
}

impl Draw {
    /// The paper's batches: uniform requesters, uniform objects.
    pub const UNIFORM: Draw = Draw::Model(QueryModel::Uniform);
}

/// Statistics of one query batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryBatchStats {
    /// Query cost vs optimal (requester–proxy distance) per query.
    pub cost: CostStats,
    /// Queries whose requester happened to be the proxy (optimal cost 0;
    /// kept out of `cost`, reported for completeness).
    pub zero_distance: usize,
    /// Queries that returned the true proxy (must equal the batch size).
    pub correct: usize,
    /// Queries that surfaced crash damage ([`CoreError::NodeDown`]) and
    /// were answered after one [`Tracker::repair_object`] and a retry.
    pub repaired: usize,
    /// Wasted transmission distance under a fault plan. 0 without one.
    pub retry_overhead: f64,
    /// Queries issued per object (index = object id).
    pub object_hits: Vec<usize>,
}

impl QueryBatchStats {
    /// Jain fairness of the per-object hit counts: ≈ 1 under uniform
    /// popularity (or Zipf skew 0), dropping toward `1/objects` as the
    /// skew concentrates demand on rank 0.
    pub fn popularity_jain(&self) -> f64 {
        LoadStats::from_loads(&self.object_hits).jain_index
    }
}

/// Issues `count` queries for objects `0..objects` against the tracker's
/// current state, drawn by `draw` from a `seed`ed stream, and scores
/// each against the optimal cost `dist(requester, proxy)`.
///
/// The true proxy is read after the query answers. A query that surfaces
/// [`CoreError::NodeDown`] triggers [`Tracker::repair_object`] for its
/// object and is retried once; it is scored at its post-repair cost and
/// the repair distance accrues in the tracker's repair account. A plan
/// adds its retry overhead per query. Zero objects, or an object that
/// was never published, is [`CoreError::UnknownObject`].
pub fn query_batch(
    tracker: &mut dyn Tracker,
    oracle: &dyn DistanceOracle,
    objects: usize,
    count: usize,
    seed: u64,
    draw: Draw,
    mut faults: Option<&mut FaultPlan>,
) -> std::result::Result<QueryBatchStats, SimError> {
    if objects == 0 && count > 0 {
        return Err(CoreError::UnknownObject(ObjectId(0)).into());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = oracle.node_count();
    let zipf = match draw {
        Draw::Model(QueryModel::Zipf { s }) if objects > 0 => Some(ZipfSampler::new(objects, s)),
        _ => None,
    };
    let mut near = Vec::new();
    let mut out = QueryBatchStats {
        object_hits: vec![0; objects],
        ..QueryBatchStats::default()
    };
    for _ in 0..count {
        let (from, oi) = match draw {
            Draw::Model(_) => {
                let from = NodeId::from_index(rng.gen_range(0..n));
                let oi = match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range(0..objects),
                };
                (from, oi)
            }
            Draw::Local { radius } => {
                let oi = rng.gen_range(0..objects);
                let o = ObjectId(oi as u32);
                let proxy = tracker.proxy_of(o).ok_or(CoreError::UnknownObject(o))?;
                oracle.ball_into(proxy, radius, &mut near);
                (near[rng.gen_range(0..near.len())], oi)
            }
        };
        let o = ObjectId(oi as u32);
        out.object_hits[oi] += 1;
        let r = match tracker.query(from, o) {
            Err(CoreError::NodeDown(_)) => {
                tracker.repair_object(o)?;
                out.repaired += 1;
                tracker.query(from, o)?
            }
            r => r?,
        };
        let truth = tracker.proxy_of(o).ok_or(CoreError::UnknownObject(o))?;
        if r.proxy == truth {
            out.correct += 1;
        }
        if let Some(plan) = faults.as_deref_mut() {
            out.retry_overhead += plan.transmission_overhead(r.cost);
        }
        let optimal = oracle.dist(from, truth);
        if optimal <= 0.0 {
            out.zero_distance += 1;
        } else {
            out.cost.record(r.cost, optimal);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::mobility::WorkloadSpec;
    use crate::testbed::{Algo, TestBed};
    use mot_baselines::DetectionRates;
    use mot_core::{MotConfig, MotTracker, MoveOutcome, QueryResult};
    use mot_hierarchy::{build_doubling, OverlayConfig};
    use mot_net::generators;
    use mot_net::DenseOracle;
    use std::cell::RefCell;

    /// Where [`Scripted`] hands a damaged object.
    const REFUGE: NodeId = NodeId(0);

    /// A tracker that keeps only `(proxy, damaged)` per object and logs
    /// every query. A crash damages the objects proxied at the victim:
    /// they answer queries with `NodeDown` until their next move or
    /// repair hands them to [`REFUGE`] (lazy self-repair). Ops cost 1.
    #[derive(Default)]
    struct Scripted {
        objects: Vec<(NodeId, bool)>,
        queries: RefCell<Vec<(u32, u32)>>,
    }

    impl Scripted {
        fn at(proxies: &[NodeId]) -> Self {
            let objects = proxies.iter().map(|&p| (p, false)).collect();
            Scripted {
                objects,
                ..Scripted::default()
            }
        }
    }

    impl Tracker for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn publish(&mut self, _: ObjectId, _: NodeId) -> Result<f64> {
            unreachable!("built with its proxies")
        }
        fn move_object(&mut self, o: ObjectId, to: NodeId) -> Result<MoveOutcome> {
            self.repair_object(o)?;
            let from = std::mem::replace(&mut self.objects[o.index()].0, to);
            Ok(MoveOutcome {
                from,
                cost: 1.0,
                climb: 0.0,
            })
        }
        fn query(&self, from: NodeId, o: ObjectId) -> Result<QueryResult> {
            self.queries.borrow_mut().push((from.0, o.0));
            match self.objects[o.index()] {
                (proxy, true) => Err(CoreError::NodeDown(proxy)),
                (proxy, false) => Ok(QueryResult { proxy, cost: 1.0 }),
            }
        }
        fn proxy_of(&self, o: ObjectId) -> Option<NodeId> {
            self.objects.get(o.index()).map(|&(proxy, _)| proxy)
        }
        fn node_loads(&self) -> Vec<usize> {
            Vec::new()
        }
        fn crash_node(&mut self, u: NodeId) {
            for (proxy, damaged) in &mut self.objects {
                *damaged |= *proxy == u;
            }
        }
        fn repair_object(&mut self, o: ObjectId) -> Result<f64> {
            let (proxy, damaged) = &mut self.objects[o.index()];
            if !std::mem::take(damaged) {
                return Ok(0.0);
            }
            *proxy = REFUGE;
            Ok(1.0)
        }
    }

    #[test]
    fn full_pipeline_on_mot() {
        let g = generators::grid(6, 6).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
        let w = WorkloadSpec::new(5, 100, 1).generate(&g);
        let publish_cost = run_publish(&mut t, &w).unwrap();
        assert!(publish_cost > 0.0);
        let stats = replay(&mut t, &w, &m, None).unwrap().cost;
        assert_eq!(stats.operations, 500);
        // random-walk moves are unit hops: optimal = #moves
        assert!((stats.optimal - 500.0).abs() < 1e-6);
        assert!(
            stats.ratio() >= 1.0,
            "ratio {} below optimal",
            stats.ratio()
        );
        // final proxies agree with the trace
        for (oi, &p) in w.final_proxies().iter().enumerate() {
            assert_eq!(t.proxy_of(ObjectId(oi as u32)), Some(p));
        }
        let q = query_batch(&mut t, &m, 5, 200, 9, Draw::UNIFORM, None).unwrap();
        assert_eq!(q.correct, 200, "every query must find the true proxy");
        assert!(q.cost.ratio() >= 1.0);
    }

    #[test]
    fn local_queries_come_from_within_the_radius() {
        let g = generators::grid(8, 8).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
        let w = WorkloadSpec::new(4, 50, 2).generate(&g);
        run_publish(&mut t, &w).unwrap();
        replay(&mut t, &w, &m, None).unwrap();
        let q = query_batch(&mut t, &m, 4, 150, 7, Draw::Local { radius: 2.0 }, None).unwrap();
        assert_eq!(q.correct, 150);
        // optimal distances capped by the radius
        assert!(q.cost.optimal <= 2.0 * q.cost.operations as f64 + 1e-9);
        assert!(q.cost.mean_ratio() >= 1.0);
    }

    #[test]
    fn replay_detects_trace_divergence() {
        use crate::mobility::MoveOp;
        let g = generators::grid(4, 4).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 1);
        let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
        t.publish(ObjectId(0), NodeId(5)).unwrap();
        // The trace believes the object starts at node 0; the structure
        // has it at node 5.
        let w = Workload {
            initial: vec![NodeId(0)],
            moves: vec![MoveOp {
                object: ObjectId(0),
                from: NodeId(0),
                to: NodeId(1),
            }],
        };
        let err = replay(&mut t, &w, &m, None).unwrap_err();
        assert_eq!(
            err,
            crate::SimError::TraceDiverged {
                step: 0,
                object: ObjectId(0),
                expected: NodeId(0),
                actual: NodeId(5),
            }
        );
    }

    #[test]
    fn planned_replay_scores_each_move_from_the_actual_from() {
        let g = generators::grid(4, 4).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let w = WorkloadSpec::new(1, 40, 3).generate(&g);
        // Every sensor crashes once, so the object's proxy is hit at
        // some step and the move after it starts from the refuge.
        let cfg = FaultConfig {
            crashes: 16,
            seed: 5,
            ..FaultConfig::default()
        };
        let mut plan = cfg.plan(16, w.moves.len()).unwrap();
        let schedule = plan.crash_schedule().to_vec();
        let mut t = Scripted::at(&w.initial);
        let stats = replay(&mut t, &w, &m, Some(&mut plan)).unwrap();

        let (mut at, mut diverged) = (w.initial[0], 0);
        let mut expected = CostStats::default();
        for (step, mv) in w.moves.iter().enumerate() {
            if schedule.iter().any(|&(s, v)| s == step && v == at) {
                at = REFUGE;
            }
            diverged += usize::from(mv.from != at);
            expected.record(1.0, m.dist(at, mv.to));
            at = mv.to;
        }
        assert!(diverged > 0, "no crash relocated the object");
        assert_eq!(stats.cost, expected);
        assert_eq!(stats.crashes_injected, 16);
        // The same trace without a plan is scored from the trace itself.
        let mut clean = Scripted::at(&w.initial);
        let reliable = replay(&mut clean, &w, &m, None).unwrap();
        assert_eq!(reliable.cost.optimal, w.moves.len() as f64);
        assert_ne!(reliable.cost.optimal, stats.cost.optimal);
    }

    #[test]
    fn planned_query_repairs_node_down_and_scores_the_repaired_proxy() {
        let g = generators::grid(4, 4).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let mut t = Scripted::at(&[NodeId(15)]);
        t.crash_node(NodeId(15));
        let mut plan = FaultConfig::default().plan(16, 0).unwrap();
        let q = query_batch(&mut t, &m, 1, 6, 2, Draw::UNIFORM, Some(&mut plan)).unwrap();
        assert_eq!(q.repaired, 1, "only the first query meets the damage");
        assert_eq!(q.correct, 6);
        assert_eq!(t.proxy_of(ObjectId(0)), Some(REFUGE));
        // The first requester asked twice (NodeDown, then the retry); all
        // six are scored against the refuge, never the crashed proxy.
        let asked = t.queries.borrow();
        assert_eq!(asked.len(), 7);
        assert_eq!(asked[0], asked[1]);
        let optimal: f64 = asked[1..]
            .iter()
            .map(|&(from, _)| m.dist(NodeId(from), REFUGE))
            .sum();
        assert_eq!(q.cost.optimal, optimal);
        assert_eq!(q.cost.operations + q.zero_distance, 6);
    }

    #[test]
    fn each_draw_keeps_its_stream() {
        let g = generators::grid(8, 8).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        // The first 8 (requesters, objects) of each arm, for 4 objects.
        let drawn = |draw: Draw| -> (Vec<u32>, Vec<u32>) {
            let mut t = Scripted::at(&[0, 9, 36, 63].map(NodeId));
            query_batch(&mut t, &m, 4, 8, 7, draw, None).unwrap();
            t.queries.into_inner().into_iter().unzip()
        };
        // Requester first, then the object: both models share requesters.
        let requesters = vec![59, 49, 8, 27, 13, 40, 25, 22];
        let uniform = (requesters.clone(), vec![2, 3, 2, 2, 3, 3, 3, 2]);
        assert_eq!(drawn(Draw::UNIFORM), uniform);
        let zipf = (requesters, vec![0, 2, 0, 2, 3, 0, 0, 1]);
        assert_eq!(drawn(Draw::Model(QueryModel::zipf(1.0))), zipf);
        // The object first, then a requester near its proxy.
        let local = (
            vec![62, 10, 8, 63, 0, 1, 0, 34],
            vec![3, 1, 0, 3, 1, 0, 1, 2],
        );
        assert_eq!(drawn(Draw::Local { radius: 2.0 }), local);
    }

    #[test]
    fn query_batch_counts_zero_distance_cases() {
        let g = generators::grid(3, 3).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
        // park one object on every node: many queries hit distance zero
        let w = Workload {
            initial: g.nodes().collect(),
            moves: vec![],
        };
        run_publish(&mut t, &w).unwrap();
        let q = query_batch(&mut t, &m, 9, 300, 4, Draw::UNIFORM, None).unwrap();
        assert!(q.zero_distance > 0);
        assert_eq!(q.correct, 300);
        assert_eq!(q.cost.operations + q.zero_distance, 300);
    }

    #[test]
    fn query_batches_reject_missing_objects() {
        let bed = TestBed::grid(3, 3, 1).unwrap();
        let rates = DetectionRates::uniform(&bed.graph);
        let unknown = Err(SimError::Core(CoreError::UnknownObject(ObjectId(0))));
        let draws = [
            Draw::UNIFORM,
            Draw::Model(QueryModel::zipf(1.0)),
            Draw::Local { radius: 2.0 },
        ];
        // No objects to draw from is refused before any arm draws; the
        // unpublished-object cases are per arm (below, scenario, faults).
        for algo in [Algo::Mot, Algo::Stun] {
            for draw in draws {
                for planned in [false, true] {
                    let mut t = bed.make_tracker(algo, &rates).unwrap();
                    let mut plan = FaultConfig::default().plan(9, 0).unwrap();
                    let faults = planned.then_some(&mut plan);
                    let got = query_batch(t.as_mut(), &bed.oracle, 0, 5, 1, draw, faults);
                    assert_eq!(got, unknown, "{algo:?}, {draw:?}, planned {planned}");
                }
            }
        }
    }

    #[test]
    fn local_queries_reject_missing_objects() {
        let bed = TestBed::grid(3, 3, 1).unwrap();
        let rates = DetectionRates::uniform(&bed.graph);
        let unknown = Err(SimError::Core(CoreError::UnknownObject(ObjectId(0))));
        // no objects to draw from, then one object that was never published
        for algo in [Algo::Mot, Algo::Stun] {
            for objects in [0, 1] {
                let mut t = bed.make_tracker(algo, &rates).unwrap();
                let local = Draw::Local { radius: 2.0 };
                let got = query_batch(t.as_mut(), &bed.oracle, objects, 5, 1, local, None);
                assert_eq!(got, unknown, "{algo:?}, {objects} objects");
            }
        }
    }
}
