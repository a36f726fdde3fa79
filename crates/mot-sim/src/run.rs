//! One-by-one execution: publish, maintenance replay, query batches.
//!
//! Each operation completes before the next starts (the paper's primary
//! case, matching scenarios where event inter-arrival times dwarf message
//! propagation times).

use crate::error::SimError;
use crate::metrics::{CostStats, Histogram};
use crate::mobility::Workload;
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

/// Replays the maintenance operations one by one, verifying each move's
/// provenance and accumulating algorithm-vs-optimal cost.
///
/// Every move's `from` is checked against the structure's proxy record;
/// a mismatch aborts the replay with [`SimError::TraceDiverged`] — cost
/// accounts after a divergence would compare the algorithm against the
/// wrong optimal.
pub fn replay_moves(
    tracker: &mut dyn Tracker,
    workload: &Workload,
    oracle: &dyn DistanceOracle,
) -> std::result::Result<CostStats, SimError> {
    replay_inner(tracker, workload, oracle, None)
}

/// [`replay_moves`] plus observability: each move's per-operation cost
/// ratio is recorded into `ratios` (moves with zero optimal cost are
/// skipped, matching [`CostStats`] accounting). The returned stats are
/// identical to [`replay_moves`]'.
pub fn replay_moves_observed(
    tracker: &mut dyn Tracker,
    workload: &Workload,
    oracle: &dyn DistanceOracle,
    ratios: &mut Histogram,
) -> std::result::Result<CostStats, SimError> {
    replay_inner(tracker, workload, oracle, Some(ratios))
}

fn replay_inner(
    tracker: &mut dyn Tracker,
    workload: &Workload,
    oracle: &dyn DistanceOracle,
    mut ratios: Option<&mut Histogram>,
) -> std::result::Result<CostStats, SimError> {
    let mut stats = CostStats::default();
    for (step, m) in workload.moves.iter().enumerate() {
        let outcome = tracker.move_object(m.object, m.to)?;
        if outcome.from != m.from {
            return Err(SimError::TraceDiverged {
                step,
                object: m.object,
                expected: m.from,
                actual: outcome.from,
            });
        }
        let optimal = oracle.dist(m.from, m.to);
        stats.record(outcome.cost, optimal);
        if let Some(h) = ratios.as_deref_mut() {
            if optimal > 0.0 {
                h.record(outcome.cost / optimal);
            }
        }
    }
    Ok(stats)
}

/// Statistics of one query batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryBatchStats {
    /// Query cost vs optimal (requester–proxy distance) per query.
    pub cost: CostStats,
    /// Queries whose requester happened to be the proxy (optimal cost 0;
    /// excluded from the ratio, reported for completeness).
    pub zero_distance: usize,
    /// Queries that returned the true proxy (must equal the batch size).
    pub correct: usize,
}

/// Issues `count` queries from random nodes for random objects against
/// the tracker's current state and scores them against the optimal cost
/// `dist(requester, proxy)`.
pub fn run_queries(
    tracker: &dyn Tracker,
    oracle: &dyn DistanceOracle,
    object_count: usize,
    count: usize,
    seed: u64,
) -> Result<QueryBatchStats> {
    queries_inner(tracker, oracle, object_count, count, seed, None)
}

/// [`run_queries`] plus observability: each query's per-operation cost
/// ratio is recorded into `ratios` (zero-distance queries excluded, as
/// in [`QueryBatchStats`]). Identical stats and query stream.
pub fn run_queries_observed(
    tracker: &dyn Tracker,
    oracle: &dyn DistanceOracle,
    object_count: usize,
    count: usize,
    seed: u64,
    ratios: &mut Histogram,
) -> Result<QueryBatchStats> {
    queries_inner(tracker, oracle, object_count, count, seed, Some(ratios))
}

fn queries_inner(
    tracker: &dyn Tracker,
    oracle: &dyn DistanceOracle,
    object_count: usize,
    count: usize,
    seed: u64,
    mut ratios: Option<&mut Histogram>,
) -> Result<QueryBatchStats> {
    if object_count == 0 && count > 0 {
        return Err(CoreError::UnknownObject(ObjectId(0)));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = oracle.node_count();
    let mut out = QueryBatchStats::default();
    for _ in 0..count {
        let from = NodeId::from_index(rng.gen_range(0..n));
        let o = ObjectId(rng.gen_range(0..object_count as u32));
        let truth = tracker.proxy_of(o).ok_or(CoreError::UnknownObject(o))?;
        let r = tracker.query(from, o)?;
        if r.proxy == truth {
            out.correct += 1;
        }
        let optimal = oracle.dist(from, truth);
        if optimal <= 0.0 {
            out.zero_distance += 1;
        } else {
            out.cost.record(r.cost, optimal);
            if let Some(h) = ratios.as_deref_mut() {
                h.record(r.cost / optimal);
            }
        }
    }
    Ok(out)
}

/// Issues `count` *local* queries: each requester is drawn from within
/// distance `radius` of the queried object's proxy. Distance-sensitive
/// tracking is the paper's core promise — a query about a nearby object
/// must cost proportional to the distance, not the network size — and
/// local queries are where sink-routed baselines pay their detour.
pub fn run_local_queries(
    tracker: &dyn Tracker,
    oracle: &dyn DistanceOracle,
    object_count: usize,
    radius: f64,
    count: usize,
    seed: u64,
) -> Result<QueryBatchStats> {
    if object_count == 0 && count > 0 {
        return Err(CoreError::UnknownObject(ObjectId(0)));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = QueryBatchStats::default();
    let mut near = Vec::new();
    for _ in 0..count {
        let o = ObjectId(rng.gen_range(0..object_count as u32));
        let truth = tracker.proxy_of(o).ok_or(CoreError::UnknownObject(o))?;
        oracle.ball_into(truth, radius, &mut near);
        let from = near[rng.gen_range(0..near.len())];
        let r = tracker.query(from, o)?;
        if r.proxy == truth {
            out.correct += 1;
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
    use crate::mobility::WorkloadSpec;
    use mot_core::{MotConfig, MotTracker};
    use mot_hierarchy::{build_doubling, OverlayConfig};
    use mot_net::generators;
    use mot_net::DenseOracle;

    #[test]
    fn full_pipeline_on_mot() {
        let g = generators::grid(6, 6).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let mut t = MotTracker::new(&overlay, &m, MotConfig::plain());
        let w = WorkloadSpec::new(5, 100, 1).generate(&g);
        let publish_cost = run_publish(&mut t, &w).unwrap();
        assert!(publish_cost > 0.0);
        let stats = replay_moves(&mut t, &w, &m).unwrap();
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
        let q = run_queries(&t, &m, 5, 200, 9).unwrap();
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
        replay_moves(&mut t, &w, &m).unwrap();
        let q = run_local_queries(&t, &m, 4, 2.0, 150, 7).unwrap();
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
        let err = replay_moves(&mut t, &w, &m).unwrap_err();
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
        let q = run_queries(&t, &m, 9, 300, 4).unwrap();
        assert!(q.zero_distance > 0);
        assert_eq!(q.correct, 300);
        assert_eq!(q.cost.operations + q.zero_distance, 300);
    }

    #[test]
    fn query_batches_reject_missing_objects() {
        let g = generators::grid(3, 3).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let t = MotTracker::new(&overlay, &m, MotConfig::plain());
        let unknown = Err(CoreError::UnknownObject(ObjectId(0)));
        // no objects to draw from, then one object that was never published
        for objects in [0, 1] {
            assert_eq!(run_queries(&t, &m, objects, 5, 1), unknown);
            let mut h = Histogram::new();
            assert_eq!(run_queries_observed(&t, &m, objects, 5, 1, &mut h), unknown);
        }
    }

    #[test]
    fn local_queries_reject_missing_objects() {
        let g = generators::grid(3, 3).unwrap();
        let m = DenseOracle::build(&g).unwrap();
        let overlay = build_doubling(&g, &m, &OverlayConfig::practical(), 3);
        let t = MotTracker::new(&overlay, &m, MotConfig::plain());
        let unknown = Err(CoreError::UnknownObject(ObjectId(0)));
        for objects in [0, 1] {
            assert_eq!(run_local_queries(&t, &m, objects, 2.0, 5, 1), unknown);
        }
    }
}
