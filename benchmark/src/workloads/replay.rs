//! `replay_grid256`: steady-state tracker operations at 65 536 sensors.
//!
//! Set-up builds the 256×256 bed (graph, oracle, doubling overlay),
//! generates 100 objects × 1000 adjacent moves plus 500 queries from
//! uniform origins, and runs the replay once as warm-up. Each rep starts from a **fresh oracle** (cold row
//! cache) and a fresh `MotTracker`, publishes the objects (untimed
//! preparation), then replays the moves and the queries in a closed loop:
//! the next op is issued when the previous one returns. The timed region
//! is first move → last answer.
//!
//! At this size every op is oracle-bound (two orders of magnitude more
//! row-cache misses than hits), so this is the workload that taking the
//! oracle off the move/query path must move, and that hierarchy-build or
//! service-loop work must not: the build sits in set-up.

use std::time::Instant;

use mot_core::{MotTracker, ObjectId, Tracker};
use mot_hierarchy::Overlay;
use mot_net::{Graph, NodeId, OracleKind};
use mot_sim::{Workload as Trace, WorkloadSpec};

use super::{build_grid_bed, mot_config, overlay_shape, warm_up, Fnv, GridBed, SplitMix};
use crate::harness::{Error, LayerCtx, Layers, Rep, Tally, Workload};
use crate::oracle::Probe;
use crate::stats::{has_tail, median, percentile, top_percentile};
use crate::trace::{Pass, Tracer};

const SIDE: usize = 256;
const OBJECTS: usize = 100;
const MOVES_PER_OBJECT: usize = 1000;
const QUERIES: usize = 500;

/// The workload. See the module docs.
pub struct Replay;

/// The bed and the generated operations.
pub struct Bed {
    graph: Graph,
    overlay: Overlay,
    trace: Trace,
    queries: Vec<(NodeId, ObjectId)>,
    /// Where each object is once every move has been replayed.
    finals: Vec<NodeId>,
}

impl Workload for Replay {
    type Bed = Bed;
    const SETUPS: usize = 3;
    // Two per-op reps pool 1000 queries, so p99 has its ten samples beyond.
    const TRACE_PASSES: &'static [(Pass, usize)] = &[(Pass::PerOp, 2), (Pass::Traced, 1)];

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Bed, Error> {
        // The set-up oracle is dropped: every rep starts from a fresh one.
        let GridBed { graph, overlay, .. } = build_grid_bed(SIDE, seed, tr)?;
        let s = tr.begin("sim.workload_gen");
        let trace = WorkloadSpec::new(OBJECTS, MOVES_PER_OBJECT, seed).generate(&graph);
        tr.end(s);
        let mut draws = SplitMix(seed);
        let queries = (0..QUERIES)
            .map(|_| {
                let from = draws.node(graph.node_count());
                (from, ObjectId((draws.next() % OBJECTS as u64) as u32))
            })
            .collect();
        let finals = trace.final_proxies();
        let bed = Bed {
            graph,
            overlay,
            trace,
            queries,
            finals,
        };
        warm_up(self, &bed, tr)?;
        Ok(bed)
    }

    fn rep(&self, bed: &Bed, pass: Pass, tr: &mut Tracer) -> Result<Rep, Error> {
        let s = tr.begin("net.oracle_build");
        let oracle = OracleKind::Auto.build(&bed.graph)?;
        tr.end(s);
        let probe = Probe::new(oracle, pass == Pass::Traced);
        let busy = || probe.counters.busy_ns();
        let mut tracker = MotTracker::new(&bed.overlay, &*probe.oracle, mot_config());
        let mut costs = Vec::with_capacity(OBJECTS + bed.trace.moves.len() + QUERIES);
        for (i, &at) in bed.trace.initial.iter().enumerate() {
            let b = busy();
            let s = tr.begin("core.publish");
            costs.push(tracker.publish(ObjectId(i as u32), at)?);
            tr.end_with_child(s, busy() - b);
        }

        let mut wrong = 0u64;
        let start = Instant::now();
        for m in &bed.trace.moves {
            let b = busy();
            let s = tr.begin("core.move");
            let out = tracker.move_object(m.object, m.to)?;
            tr.end_with_child(s, busy() - b);
            wrong += u64::from(out.from != m.from);
            costs.push(out.cost);
        }
        for &(from, object) in &bed.queries {
            let b = busy();
            let s = tr.begin("core.query");
            let found = tracker.query(from, object)?;
            tr.end_with_child(s, busy() - b);
            wrong += u64::from(found.proxy != bed.finals[object.index()]);
            costs.push(found.cost);
        }
        let wall_s = start.elapsed().as_secs_f64();

        let ops = (bed.trace.moves.len() + QUERIES) as u64;
        let mut tally = Tally::default();
        tally.add(ops, wrong);
        let mut counts = overlay_shape(&bed.overlay, &mut tally);
        let mut digest = Fnv::new();
        costs.iter().for_each(|&c| digest.f64(c));

        let mut gauges = Vec::new();
        if pass == Pass::Traced {
            // Snapshot the oracle before the optimal-cost reads below.
            let (oracle_counts, oracle_gauges) = probe.report();
            counts.extend(oracle_counts);
            gauges = oracle_gauges;
            counts.extend(cost_ratios(bed, &costs, &probe));
        }
        Ok(Rep {
            wall_s,
            ops,
            tally,
            digest: digest.0,
            counts,
            gauges,
        })
    }

    fn layers(
        &self,
        _bed: &Bed,
        _ctx: &LayerCtx,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<Tally, Error> {
        let setup = |name: &str| median(&tr.durations(name, Pass::Setup));
        out.set("net.graph_build_s", setup("net.graph_build"));
        out.set("hierarchy.build_s", setup("hierarchy.build"));
        out.set(
            "hierarchy.build_us_per_node",
            setup("hierarchy.build") * 1e6 / (SIDE * SIDE) as f64,
        );
        out.set("sim.workload_gen_s", setup("sim.workload_gen"));
        out.set(
            "net.oracle_build_s",
            median(&tr.durations("net.oracle_build", Pass::Traced)),
        );
        out.set(
            "core.publish_us",
            median(&tr.per_rep_totals("core.publish", Pass::PerOp)) * 1e6 / OBJECTS as f64,
        );

        // Caller-visible latencies: pooled per-op samples of the per-op
        // reps (nothing wrapped). p99 is reported only with ten samples
        // beyond it, which the protocol's two-rep minimum guarantees.
        let mut tally = Tally::default();
        let m = op_latency(tr, "core.move", OBJECTS * MOVES_PER_OBJECT, &mut tally);
        out.set("core.move_p50_us", m.p50_us);
        out.set("core.move_p99_us", m.p99_us);
        out.set("core.move_ops_per_s", m.per_s);
        out.set("core.move_self_us", m.self_us);
        let q = op_latency(tr, "core.query", QUERIES, &mut tally);
        out.set("core.query_p50_us", q.p50_us);
        out.set("core.query_p99_us", q.p99_us);
        out.set("core.query_ops_per_s", q.per_s);
        out.set("core.query_self_us", q.self_us);
        Ok(tally)
    }
}

struct OpLatency {
    p50_us: f64,
    p99_us: f64,
    per_s: f64,
    self_us: f64,
}

/// Latency of the ops recorded under `span`, `per_rep` of them a rep.
fn op_latency(tr: &Tracer, span: &str, per_rep: usize, tally: &mut Tally) -> OpLatency {
    let mut pooled = tr.durations(span, Pass::PerOp);
    pooled.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    tally.check(has_tail(pooled.len(), 99.0));
    let us = |p: f64| percentile(&pooled, p) * 1e6;
    let top = top_percentile(pooled.len()).unwrap_or(50.0);
    println!(
        "note {span} over {} pooled samples: p50 {:.3} us, p{top} {:.3} us",
        pooled.len(),
        us(50.0),
        us(top)
    );
    OpLatency {
        p50_us: us(50.0),
        p99_us: us(99.0),
        per_s: per_rep as f64 / median(&tr.per_rep_totals(span, Pass::PerOp)),
        self_us: median(&tr.self_durations(span, Pass::Traced)) * 1e6,
    }
}

/// The two simulated cost ratios the paper evaluates by: total move cost
/// over total optimal (edge weight of each adjacent hop) and mean
/// per-query cost over optimal (origin → proxy distance). They must
/// never move in a performance change.
fn cost_ratios(bed: &Bed, costs: &[f64], probe: &Probe) -> [(&'static str, f64); 2] {
    let moves = &costs[OBJECTS..OBJECTS + bed.trace.moves.len()];
    let optimal: f64 = bed
        .trace
        .moves
        .iter()
        .map(|m| bed.graph.edge_weight(m.from, m.to).unwrap_or(0.0))
        .sum();
    let queries = &costs[OBJECTS + bed.trace.moves.len()..];
    let (mut sum, mut n) = (0.0, 0usize);
    for (&(from, object), &cost) in bed.queries.iter().zip(queries) {
        let best = probe.oracle.dist(from, bed.finals[object.index()]);
        if best > 0.0 {
            sum += cost / best;
            n += 1;
        }
    }
    [
        ("core.move_cost_ratio", moves.iter().sum::<f64>() / optimal),
        ("core.query_cost_ratio", sum / n.max(1) as f64),
    ]
}
