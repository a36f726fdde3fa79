//! `service_soak` and `service_reads`: the long-lived sharded service loop.
//!
//! Both run `mot_sim::run_service` over a seeded 200 000-op stream on a
//! 32×32 dense-oracle bed with 16 shards, batch 2048 and `jobs = 1` (the
//! coordinator plus one worker — the box has two hardware threads). The
//! loop is closed: the service injects one batch per tick and runs each
//! tick to its barrier. The batch is larger than the library default (256)
//! on purpose: every tick is two cross-thread wake-ups,
//! which on this virtual machine cost 0.1–0.3 ms each depending on the
//! host's mood; at batch 512 (≈400 ticks) they were a quarter of the wall
//! and most of its run-to-run drift. 2048 is the largest power of two at
//! which the read-heavy stream's hot shards stay below the degrade
//! threshold, so no query is answered from the backlog path.
//!
//! * `service_soak` turns every service layer on: topology churn every
//!   5000 ops, 15% drops, 5% duplicates, 5% delays, 2% dead links and 8
//!   shard crashes with a 12-attempt retry budget — so retries, ledger
//!   fencing, crash replay and hierarchy-mirror repair all carry load.
//! * `service_reads` is the same service used the other way: fault-free,
//!   static topology, 80% queries with Zipf(1.1) popularity.
//!
//! Oracle and hierarchy build do almost nothing here (dense lookups, a
//! 1024-node bed built in set-up): these are the workloads on which an
//! oracle or hierarchy optimisation must show no change.
//!
//! `run_service` is one opaque call, so the traced pass measures its
//! children by isolated drives over the identical generated inputs — the
//! op stream, admission ledgers, one bare tracker, the churn schedule
//! through a repairable hierarchy — and reports the remainder as service
//! overhead (coordinator routing, fault coins, the channel hop, the tick
//! barrier, crash replay).

use std::sync::Arc;
use std::time::Instant;

use mot_core::{MotTracker, ObjectId, OpLedger, Tracker};
use mot_hierarchy::RepairableHierarchy;
use mot_net::NodeId;
use mot_proto::{Backoff, ProtoTracker};
use mot_sim::{
    run_service, FaultConfig, MobilityModel, OpEnvelope, OpStream, QueryModel, ServiceConfig,
    ServiceOp, ShedPolicy, StreamSpec, TestBed, WorkloadSpec,
};

use super::{
    build_grid_bed, mot_config, overlay_config, overlay_shape, warm_up, Fnv, GridBed, SplitMix,
};
use crate::harness::{Error, LayerCtx, Layers, Rep, Tally, Workload};
use crate::oracle::{OracleCounters, Probe};
use crate::stats::median;
use crate::trace::{Pass, Tracer};

const SIDE: usize = 32;
const OBJECTS: usize = 20_000;
const OPS: u64 = 200_000;
const SHARDS: usize = 16;
/// The soak's transport duplicates one delivery in twenty.
const DUPLICATE_EVERY: u64 = 20;
const PROTO_OBJECTS: usize = 1000;
const PROTO_MOVES_PER_OBJECT: usize = 20;
const PROTO_QUERIES: usize = 2000;

/// The workload; `reads` selects `service_reads`.
pub struct Service {
    /// Fault-free read-heavy variant.
    pub reads: bool,
}

/// The bed, the service configuration and the ground truth.
pub struct Bed {
    bed: TestBed,
    cfg: ServiceConfig,
    /// Final object → location map of a fault-free replay of the stream.
    truth: Vec<Option<NodeId>>,
}

impl Service {
    fn config(&self, seed: u64) -> ServiceConfig {
        let mut stream = StreamSpec::new(OBJECTS, OPS, seed);
        stream.mobility = MobilityModel::RandomWalk;
        let mut faults = FaultConfig::dropping(0.0, seed);
        faults.max_attempts = 12;
        if self.reads {
            stream.query_fraction = 0.8;
            stream.churn_every = 0;
            stream.query_model = QueryModel::zipf(1.1);
            faults.duplicate_rate = 0.0;
            faults.delay_rate = 0.0;
            faults.link_failure_rate = 0.0;
            faults.crashes = 0;
        } else {
            stream.query_fraction = 0.2;
            stream.churn_every = 5000;
            stream.query_model = QueryModel::Uniform;
            faults.drop_rate = 0.15;
            faults.duplicate_rate = 1.0 / DUPLICATE_EVERY as f64;
            faults.delay_rate = 0.05;
            faults.link_failure_rate = 0.02;
            faults.crashes = 8;
        }
        let mut cfg = ServiceConfig::new(stream);
        cfg.shards = SHARDS;
        cfg.jobs = 1;
        cfg.batch = 2048;
        cfg.shard_budget = 0;
        cfg.faults = faults;
        cfg.backoff = Backoff::new(1, 64);
        cfg.checkpoint_every = 16;
        cfg.policy = ShedPolicy {
            degrade_depth: 512,
            shed_depth: 2048,
        };
        cfg
    }
}

/// A 32×32 bed assembled from the public pieces, its oracle wrapped in a
/// `TimedOracle` iff `timed` (the overlay is built before wrapping), and
/// that oracle's counters.
fn build_bed(
    seed: u64,
    timed: bool,
    tr: &mut Tracer,
) -> Result<(TestBed, Arc<OracleCounters>), Error> {
    let GridBed {
        graph,
        oracle,
        overlay,
    } = build_grid_bed(SIDE, seed, tr)?;
    let Probe { oracle, counters } = Probe::new(oracle, timed);
    let bed = TestBed {
        graph,
        oracle,
        overlay,
        faults: None,
    };
    Ok((bed, counters))
}

/// Drains the stream of `spec` over `bed`, handing each op to `each`, and
/// returns the generator's final ground-truth map.
fn drain(bed: &TestBed, spec: StreamSpec, mut each: impl FnMut(OpEnvelope)) -> Vec<Option<NodeId>> {
    let mut stream = OpStream::new(&bed.graph, spec);
    while let Some(env) = stream.next_op() {
        each(env);
    }
    stream.positions().to_vec()
}

/// Mean seconds of the drive spans called `name`, and their sum.
fn drive_mean(tr: &Tracer, name: &str) -> (f64, f64) {
    let d = tr.durations(name, Pass::Drive);
    let total: f64 = d.iter().sum();
    (total / d.len().max(1) as f64, total)
}

impl Workload for Service {
    type Bed = Bed;
    const SETUPS: usize = 5;
    const TRACE_PASSES: &'static [(Pass, usize)] = &[(Pass::Traced, 1)];

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Bed, Error> {
        let (bed, _) = build_bed(seed, false, tr)?;
        let cfg = self.config(seed);
        // Ground truth: the fault-free replay of the same stream. Its
        // time is the stream layer's cost for these inputs.
        let s = tr.begin("sim.stream");
        let truth = drain(&bed, cfg.stream, |_| {});
        tr.end(s);
        let bed = Bed { bed, cfg, truth };
        warm_up(self, &bed, tr)?;
        Ok(bed)
    }

    fn rep(&self, bed: &Bed, pass: Pass, tr: &mut Tracer) -> Result<Rep, Error> {
        // The traced pass runs the same service on a second bed whose
        // oracle is wrapped, so oracle calls made inside the service
        // (shard trackers, crash replay) are counted where they happen.
        let traced = if pass == Pass::Traced {
            Some(build_bed(
                bed.cfg.stream.seed,
                true,
                &mut Tracer::new(false),
            )?)
        } else {
            None
        };
        let target = traced.as_ref().map_or(&bed.bed, |(b, _)| b);

        let start = Instant::now();
        let s = tr.begin("sim.run_service");
        let out = run_service(target, &bed.cfg)?;
        let busy = traced.as_ref().map_or(0, |(_, c)| c.busy_ns());
        tr.end_with_child(s, busy);
        let wall_s = start.elapsed().as_secs_f64();

        let r = &out.report;
        let mut tally = Tally::default();
        // Every op sent is an attempt; one lost, shed or answered wrong
        // is a failure. The workloads are sized so that none is.
        tally.add(r.sent, r.lost + r.shed + r.queries_wrong);
        tally.check(r.accounted());
        tally.check(r.hier_divergence == 0);
        tally.check(r.lost > 0 || out.final_positions == bed.truth);
        let mut counts = overlay_shape(&target.overlay, &mut tally);
        counts.extend([
            ("sim.ticks", r.ticks as f64),
            ("sim.retries", r.retries as f64),
            ("sim.dup_deliveries", r.dup_deliveries as f64),
            ("sim.fenced", r.fenced as f64),
            ("sim.crash_events", r.crash_events as f64),
            ("sim.replayed_ops", r.replayed_ops as f64),
            ("sim.redelivered", r.redelivered as f64),
            ("sim.degraded", r.degraded as f64),
            ("hierarchy.repair_units", r.hier_repair_units as f64),
            ("sim.backlog_depth_p99", r.backlog_depth.quantile(0.99)),
            ("sim.backlog_age_p99_ticks", r.backlog_age.quantile(0.99)),
        ]);
        let mut digest = Fnv::new();
        digest.bytes(r.deterministic_json().as_bytes());

        let mut gauges = Vec::new();
        if let Some((_, oracle)) = &traced {
            gauges.push(("net.oracle_busy_s", oracle.busy_ns() as f64 * 1e-9));
            counts.push(("net.oracle_calls", oracle.calls() as f64));
        }
        Ok(Rep {
            wall_s,
            ops: r.sent,
            tally,
            digest: digest.0,
            counts,
            gauges,
        })
    }

    fn layers(
        &self,
        bed: &Bed,
        ctx: &LayerCtx,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<Tally, Error> {
        let mut tally = Tally::default();
        let setup = |tr: &Tracer, name: &str| median(&tr.durations(name, Pass::Setup));
        out.set("net.graph_build_s", setup(tr, "net.graph_build"));
        out.set("net.oracle_build_s", setup(tr, "net.oracle_build"));
        let hier = setup(tr, "hierarchy.build");
        out.set("hierarchy.build_s", hier);
        out.set(
            "hierarchy.build_us_per_node",
            hier * 1e6 / (SIDE * SIDE) as f64,
        );
        let stream_s = setup(tr, "sim.stream");
        out.set("sim.workload_gen_s", stream_s);
        out.set("sim.stream_ns_per_op", stream_s * 1e9 / OPS as f64);

        let mut ops = Vec::with_capacity(OPS as usize);
        drain(&bed.bed, bed.cfg.stream, |env| ops.push(env));
        let ledger_s = self.drive_ledgers(&ops, tr, out, &mut tally);
        let tracker_s = drive_tracker(bed, &ops, tr, out, &mut tally)?;
        let repair_s = drive_repair(bed, &ops, ctx.seed, tr, out, &mut tally)?;
        if !self.reads {
            drive_proto(bed, ctx.seed, tr, out, &mut tally)?;
        }

        // What is left of the service's wall once its children's isolated
        // costs are taken out.
        let overhead_s = ctx.plain_wall_s - stream_s - ledger_s - tracker_s - repair_s;
        out.set(
            "sim.service_overhead_ns_per_op",
            overhead_s * 1e9 / ctx.ops as f64,
        );
        out.set("sim.service_overhead_share", overhead_s / ctx.plain_wall_s);

        // Two extra runs at two workers.
        let mut cfg2 = bed.cfg.clone();
        cfg2.jobs = 2;
        for _ in 0..2 {
            let s = tr.begin("sim.run_service_jobs2");
            let o = run_service(&bed.bed, &cfg2)?;
            tr.end(s);
            tally.check(o.final_positions == bed.truth);
        }
        let jobs2 = ctx.ops as f64 / median(&tr.durations("sim.run_service_jobs2", Pass::Drive));
        out.set("sim.jobs2_ops_per_s", jobs2);
        out.set(
            "sim.jobs2_efficiency",
            jobs2 / (2.0 * ctx.ops as f64 / ctx.plain_wall_s),
        );
        Ok(tally)
    }
}

impl Service {
    /// `OpLedger::admit` over the stream's ids, sharded as the service
    /// shards them, re-admitting at the transport's duplicate rate.
    fn drive_ledgers(
        &self,
        ops: &[OpEnvelope],
        tr: &mut Tracer,
        out: &mut Layers,
        tally: &mut Tally,
    ) -> f64 {
        let duplicates = !self.reads;
        let mut ledgers: Vec<OpLedger> = (0..SHARDS).map(|_| OpLedger::new()).collect();
        let (mut admits, mut expected_fenced) = (0u64, 0u64);
        let s = tr.begin("core.ledger_drive");
        for env in ops {
            if matches!(env.op, ServiceOp::Topology { .. }) {
                continue;
            }
            let ledger = &mut ledgers[env.object.index() % SHARDS];
            ledger.admit(env.id, 0);
            admits += 1;
            if duplicates && env.id.0 % DUPLICATE_EVERY == 0 {
                ledger.admit(env.id, 1);
                admits += 1;
                expected_fenced += 1;
            }
        }
        tr.end(s);
        let fenced: u64 = ledgers.iter().map(|l| l.fenced).sum();
        tally.check(fenced == expected_fenced);
        let (_, secs) = drive_mean(tr, "core.ledger_drive");
        out.set("core.ledger_admit_ns", secs * 1e9 / admits as f64);
        secs
    }
}

/// The stream applied, in order, to one bare `MotTracker` on the bed.
fn drive_tracker(
    bed: &Bed,
    ops: &[OpEnvelope],
    tr: &mut Tracer,
    out: &mut Layers,
    tally: &mut Tally,
) -> Result<f64, Error> {
    let mut tracker = MotTracker::new(&bed.bed.overlay, &bed.bed.oracle, mot_config());
    let mut at: Vec<Option<NodeId>> = vec![None; OBJECTS];
    let mut wrong = 0u64;
    for env in ops {
        let o = env.object;
        match env.op {
            ServiceOp::Publish { at: to } => {
                let s = tr.begin("core.tracker_publish");
                tracker.publish(o, to)?;
                tr.end(s);
                at[o.index()] = Some(to);
            }
            ServiceOp::Move { to } => {
                let s = tr.begin("core.tracker_move");
                let moved = tracker.move_object(o, to)?;
                tr.end(s);
                wrong += u64::from(Some(moved.from) != at[o.index()]);
                at[o.index()] = Some(to);
            }
            ServiceOp::Query { from } => {
                let s = tr.begin("core.tracker_query");
                let found = tracker.query(from, o)?;
                tr.end(s);
                wrong += u64::from(Some(found.proxy) != at[o.index()]);
            }
            ServiceOp::Topology { .. } => {}
        }
    }
    tally.add(ops.len() as u64, wrong);
    tally.check(at == bed.truth);
    let mut busy_s = 0.0;
    for (metric, span) in [
        ("core.tracker_publish_ns", "core.tracker_publish"),
        ("core.tracker_move_ns", "core.tracker_move"),
        ("core.tracker_query_ns", "core.tracker_query"),
    ] {
        let (mean, total) = drive_mean(tr, span);
        out.set(metric, mean * 1e9);
        busy_s += total;
    }
    out.set("core.tracker_busy_s", busy_s);
    Ok(busy_s)
}

/// The topology ops of the stream replayed through a repairable hierarchy
/// the way the coordinator's mirror absorbs them: build, repair per
/// delta, verify against a from-scratch rebuild. 0 without churn.
fn drive_repair(
    bed: &Bed,
    ops: &[OpEnvelope],
    seed: u64,
    tr: &mut Tracer,
    out: &mut Layers,
    tally: &mut Tally,
) -> Result<f64, Error> {
    let stream = OpStream::new(&bed.bed.graph, bed.cfg.stream);
    let Some(schedule) = stream.churn_schedule() else {
        return Ok(0.0);
    };
    let cfg = overlay_config();
    let whole = tr.begin("hierarchy.mirror");
    let s = tr.begin("hierarchy.mirror_build");
    let mut mirror = RepairableHierarchy::build(&bed.bed.graph, &cfg, seed)?;
    tr.end(s);
    for env in ops {
        if let ServiceOp::Topology { delta } = env.op {
            let s = tr.begin("hierarchy.repair");
            mirror.repair(&schedule.deltas()[delta as usize])?;
            tr.end(s);
        }
    }
    let s = tr.begin("hierarchy.mirror_verify");
    let fresh = RepairableHierarchy::build(mirror.graph(), &cfg, seed)?;
    let same = mirror.snapshot() == fresh.snapshot();
    tr.end(s);
    tr.end(whole);
    tally.check(same);
    // The drive must be the service's own repair work: same unit count
    // as the service's report (an exact-repeat count set before drives).
    let ledger = mirror.ledger();
    let units = ledger.repaired_units + ledger.rebuild_units;
    tally.check(out.get("hierarchy.repair_units") == units as f64);
    out.set(
        "hierarchy.mirror_build_s",
        drive_mean(tr, "hierarchy.mirror_build").0,
    );
    out.set(
        "hierarchy.repair_ms_per_delta",
        drive_mean(tr, "hierarchy.repair").0 * 1e3,
    );
    out.set("hierarchy.membership_flips", ledger.membership_flips as f64);
    Ok(drive_mean(tr, "hierarchy.mirror").1)
}

/// 1000 objects × 20 moves + 2000 queries through the message-passing
/// `ProtoTracker` on the same bed. The service runs `MotTracker`, so
/// nothing end to end moves with these today; they are the baseline for
/// transport and arena work.
fn drive_proto(
    bed: &Bed,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Layers,
    tally: &mut Tally,
) -> Result<(), Error> {
    let g = &bed.bed.graph;
    let w = WorkloadSpec::new(PROTO_OBJECTS, PROTO_MOVES_PER_OBJECT, seed).generate(g);
    let mut tracker = ProtoTracker::new(&bed.bed.overlay, &bed.bed.oracle, &mot_config());
    let mut wrong = 0u64;
    for (i, &at) in w.initial.iter().enumerate() {
        let s = tr.begin("proto.publish");
        tracker.publish(ObjectId(i as u32), at)?;
        tr.end(s);
    }
    for m in &w.moves {
        let s = tr.begin("proto.move");
        let moved = tracker.move_object(m.object, m.to)?;
        tr.end(s);
        wrong += u64::from(moved.from != m.from);
    }
    let finals = w.final_proxies();
    let mut draws = SplitMix(seed);
    for _ in 0..PROTO_QUERIES {
        let from = draws.node(g.node_count());
        let object = ObjectId((draws.next() % PROTO_OBJECTS as u64) as u32);
        let s = tr.begin("proto.query");
        let found = tracker.query(from, object)?;
        tr.end(s);
        wrong += u64::from(found.proxy != finals[object.index()]);
    }
    tally.add((w.moves.len() + PROTO_QUERIES) as u64, wrong);
    for (metric, span) in [
        ("proto.publish_us", "proto.publish"),
        ("proto.move_us", "proto.move"),
        ("proto.query_us", "proto.query"),
    ] {
        out.set(metric, drive_mean(tr, span).0 * 1e6);
    }
    let arena = tracker.arena_stats();
    out.set(
        "proto.arena_reuse_share",
        arena.reused as f64 / arena.taken.max(1) as f64,
    );
    Ok(())
}
