//! `cold_start_grid256`: nothing → first answered query.
//!
//! Each rep builds the 256×256 grid (65 536 sensors), its `Auto` oracle
//! (the cached backend at this size), the doubling overlay, a tracker,
//! publishes 100 objects and answers one query. There is no warm-up rep:
//! a user pays this cost on every start. The hierarchy build is ≈70% of
//! the wait and publishing on a cold row cache most of the rest; `mot-sim`
//! does nothing here.
//!
//! Set-up only draws the inputs (publish sites, the query) from the seed.

use std::time::Instant;

use mot_core::{MotTracker, ObjectId, Tracker};
use mot_net::{generators, NodeId};
use mot_sim::WorkloadSpec;

use super::{build_grid_bed, mot_config, overlay_shape, Fnv, GridBed, SplitMix};
use crate::harness::{Error, LayerCtx, Layers, Rep, Tally, Workload};
use crate::oracle::Probe;
use crate::stats::median;
use crate::trace::{Pass, Tracer};

const SIDE: usize = 256;
const OBJECTS: usize = 100;

/// The workload. See the module docs.
pub struct ColdStart;

/// The generated inputs.
pub struct Inputs {
    seed: u64,
    publish_at: Vec<NodeId>,
    query_from: NodeId,
    query_object: ObjectId,
}

impl Workload for ColdStart {
    type Bed = Inputs;
    const SETUPS: usize = 31;
    const TRACE_PASSES: &'static [(Pass, usize)] = &[(Pass::Traced, 1)];

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Inputs, Error> {
        let g = generators::grid(SIDE, SIDE)?;
        let s = tr.begin("sim.workload_gen");
        let w = WorkloadSpec::new(OBJECTS, 1, seed).generate(&g);
        tr.end(s);
        let mut draws = SplitMix(seed);
        Ok(Inputs {
            seed,
            publish_at: w.initial,
            query_from: draws.node(g.node_count()),
            query_object: ObjectId((draws.next() % OBJECTS as u64) as u32),
        })
    }

    fn rep(&self, inputs: &Inputs, pass: Pass, tr: &mut Tracer) -> Result<Rep, Error> {
        let start = Instant::now();
        let GridBed {
            graph: g,
            oracle,
            overlay,
        } = build_grid_bed(SIDE, inputs.seed, tr)?;
        let probe = Probe::new(oracle, pass == Pass::Traced);
        let mut tracker = MotTracker::new(&overlay, &*probe.oracle, mot_config());
        let mut costs = Vec::with_capacity(OBJECTS + 1);
        for (i, &at) in inputs.publish_at.iter().enumerate() {
            let busy = probe.counters.busy_ns();
            let s = tr.begin("core.publish");
            costs.push(tracker.publish(ObjectId(i as u32), at)?);
            tr.end_with_child(s, probe.counters.busy_ns() - busy);
        }
        let busy = probe.counters.busy_ns();
        let s = tr.begin("core.query");
        let answer = tracker.query(inputs.query_from, inputs.query_object)?;
        tr.end_with_child(s, probe.counters.busy_ns() - busy);
        let wall_s = start.elapsed().as_secs_f64();

        let mut tally = Tally::default();
        let mut counts = overlay_shape(&overlay, &mut tally);
        tally.add(
            OBJECTS as u64,
            costs
                .iter()
                .filter(|c| !(c.is_finite() && **c >= 0.0))
                .count() as u64,
        );
        tally.check(answer.proxy == inputs.publish_at[inputs.query_object.index()]);
        costs.push(answer.cost);
        let mut digest = Fnv::new();
        costs.iter().for_each(|&c| digest.f64(c));
        counts.iter().for_each(|&(_, v)| digest.f64(v));

        let mut gauges = Vec::new();
        if pass == Pass::Traced {
            let (oracle_counts, oracle_gauges) = probe.report();
            counts.extend(oracle_counts);
            gauges = oracle_gauges;
        }
        Ok(Rep {
            wall_s,
            ops: g.node_count() as u64,
            tally,
            digest: digest.0,
            counts,
            gauges,
        })
    }

    fn layers(
        &self,
        _inputs: &Inputs,
        ctx: &LayerCtx,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<Tally, Error> {
        let med = |name: &str| median(&tr.per_rep_totals(name, Pass::Traced));
        let (graph, oracle, hier) = (
            med("net.graph_build"),
            med("net.oracle_build"),
            med("hierarchy.build"),
        );
        let (publish, query) = (med("core.publish"), med("core.query"));
        out.set(
            "sim.workload_gen_s",
            median(&tr.durations("sim.workload_gen", Pass::Setup)),
        );
        out.set("net.graph_build_s", graph);
        out.set("net.oracle_build_s", oracle);
        out.set("hierarchy.build_s", hier);
        out.set("hierarchy.build_us_per_node", hier * 1e6 / ctx.ops as f64);
        out.set("core.publish_us", publish * 1e6 / OBJECTS as f64);

        // The named layers must explain the wait: their sum is within 5%
        // of the traced wall, or the breakdown is not worth reading.
        let covered = (graph + oracle + hier + publish + query) / ctx.traced_wall_s;
        println!(
            "note layers cover {:.1}% of the traced cold start",
            covered * 100.0
        );
        let mut tally = Tally::default();
        tally.check((covered - 1.0).abs() <= 0.05);
        Ok(tally)
    }
}
