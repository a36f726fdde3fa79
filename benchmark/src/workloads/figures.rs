//! `figures_standard`: wall time to regenerate the paper's figures.
//!
//! Each rep calls `maintenance_figure` and `query_figure`, one-by-one and
//! concurrent — figs 4, 6, 12 and 14 — at the standard profile (100
//! objects, 200 moves each, 3 seeds, 500 queries, the eight paper grids
//! from 9 to 1024 sensors) with two jobs. It is the only workload that
//! drives `mot-baselines` (STUN, Z-DAT tree builds), `ConcurrentEngine`
//! and `ParallelRunner`, and it builds 96 small dense beds per figure —
//! so it guards the planned `figures.rs` and oracle-backend deletions.
//! There is no warm-up rep: figures are regenerated from a cold process.
//!
//! The figure runners seed their own cells (`0..seeds`), so `--seed` does
//! not change this workload's inputs. Set-up is a dry pass of the same
//! four calls at a three-grid, one-job smoke profile, which validates the
//! literals before the timed region.

use std::time::Instant;

use mot_baselines::{build_stun, build_zdat, DetectionRates, ZdatParams};
use mot_bench::{maintenance_figure, query_figure, FigureTable, Profile};
use mot_net::{generators, OracleKind};

use super::Fnv;
use crate::harness::{Error, LayerCtx, Layers, Rep, Tally, Workload};
use crate::stats::median;
use crate::trace::{Pass, Tracer};

/// The paper's sweep, 9 → 1024 sensors.
const GRIDS: [(usize, usize); 8] = [
    (3, 3),
    (4, 4),
    (6, 6),
    (8, 8),
    (12, 12),
    (16, 16),
    (23, 23),
    (32, 32),
];
const SMOKE_GRIDS: [(usize, usize); 3] = [(3, 3), (6, 6), (10, 10)];
const ALGORITHMS: u64 = 4;
const FIGURES: [(&str, bool, bool); 4] = [
    ("bench.fig4", false, false),
    ("bench.fig6", true, false),
    ("bench.fig12", false, true),
    ("bench.fig14", true, true),
];

/// The workload. See the module docs.
pub struct Figures;

fn profile(
    grids: &[(usize, usize)],
    moves: usize,
    seeds: u64,
    queries: usize,
    jobs: usize,
) -> Profile {
    let mut p = Profile::standard(100);
    p.objects = 100;
    p.moves_per_object = moves;
    p.seeds = seeds;
    p.queries = queries;
    p.grids = grids.to_vec();
    p.oracle = OracleKind::Auto;
    p.jobs = jobs;
    p
}

/// Runs the four figures, one span each, and checks every table: one row
/// per grid, every cost ratio finite and at least 1 (nothing beats the
/// optimal cost).
fn regenerate(p: &Profile, tr: &mut Tracer, tally: &mut Tally) -> Result<Vec<FigureTable>, Error> {
    let mut tables = Vec::with_capacity(FIGURES.len());
    for (name, query, concurrent) in FIGURES {
        let s = tr.begin(name);
        let table = if query {
            query_figure(p, concurrent)?
        } else {
            maintenance_figure(p, concurrent)?
        };
        tr.end(s);
        tally.check(table.rows.len() == p.grids.len());
        for (_, ratios) in &table.rows {
            let bad = ratios.iter().filter(|r| !(r.is_finite() && **r >= 1.0));
            tally.add(ratios.len() as u64, bad.count() as u64);
        }
        tables.push(table);
    }
    Ok(tables)
}

impl Workload for Figures {
    type Bed = Profile;
    const SETUPS: usize = 9;
    const TRACE_PASSES: &'static [(Pass, usize)] = &[(Pass::Traced, 1)];

    fn setup(&self, _seed: u64, tr: &mut Tracer) -> Result<Profile, Error> {
        let mut tally = Tally::default();
        // One job: bursts of short-lived worker threads are what this box
        // times least repeatably, and set-up has no use for them.
        regenerate(&profile(&SMOKE_GRIDS, 30, 1, 50, 1), tr, &mut tally)?;
        if tally.failed > 0 {
            return Err("the smoke-profile figures failed their checks".into());
        }
        Ok(profile(&GRIDS, 200, 3, 500, 2))
    }

    fn rep(&self, p: &Profile, _pass: Pass, tr: &mut Tracer) -> Result<Rep, Error> {
        let mut tally = Tally::default();
        let start = Instant::now();
        let tables = regenerate(p, tr, &mut tally)?;
        let wall_s = start.elapsed().as_secs_f64();

        let mut digest = Fnv::new();
        tables
            .iter()
            .for_each(|t| digest.bytes(t.to_csv().as_bytes()));
        let fig4 = &tables[0];
        let mot_at_1024 = fig4
            .column("MOT")
            .zip(fig4.rows.iter().position(|(x, _)| x == "1024"))
            .map(|(col, row)| col[row]);
        tally.check(mot_at_1024.is_some());
        Ok(Rep {
            wall_s,
            // One cell per figure × grid × seed × algorithm.
            ops: FIGURES.len() as u64 * p.grids.len() as u64 * p.seeds * ALGORITHMS,
            tally,
            digest: digest.0,
            counts: vec![("bench.fig4_mot_ratio_1024", mot_at_1024.unwrap_or(0.0))],
            gauges: Vec::new(),
        })
    }

    fn layers(
        &self,
        _p: &Profile,
        _ctx: &LayerCtx,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<Tally, Error> {
        let med = |tr: &Tracer, name: &str| median(&tr.durations(name, Pass::Traced));
        out.set("bench.fig4_s", med(tr, "bench.fig4"));
        out.set("bench.fig6_s", med(tr, "bench.fig6"));
        out.set("bench.fig12_s", med(tr, "bench.fig12"));
        out.set("bench.fig14_s", med(tr, "bench.fig14"));

        // The baselines' own layer: the two tree builds every 32×32 cell
        // of a figure pays, under uniform detection rates.
        let g = generators::grid(32, 32)?;
        let rates = DetectionRates::uniform(&g);
        let mut builds = Vec::new();
        for _ in 0..5 {
            let s = tr.begin("baselines.tree_build");
            let t = Instant::now();
            let stun = build_stun(&g, &rates);
            let zdat = build_zdat(&g, &rates, ZdatParams::default())?;
            builds.push(t.elapsed().as_secs_f64());
            tr.end(s);
            std::hint::black_box((stun, zdat));
        }
        out.set("baselines.tree_build_s", median(&builds));
        Ok(Tally::default())
    }
}
