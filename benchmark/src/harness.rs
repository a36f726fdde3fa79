//! The run protocol every workload shares (README.md, "Run protocol").
//!
//! One process runs one workload: one set-up and one rep, after which
//! peak RSS is read; the remaining set-ups (their median is `setup_s`; it
//! includes the warm-up of steady-state workloads); then closed-loop reps
//! until `--seconds` have passed. With `--trace 0` all reps are
//! plain and the end-to-end metrics are medians over them. With
//! `--trace 1` the time is split between plain reps and the workload's
//! traced passes, the per-layer metrics come from spans, per-rep counts
//! and isolated drives, and `trace.overhead_share` compares the two.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::metrics::{layer_def, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, summary, Summary};
use crate::trace::{Pass, Tracer};

/// Any failure inside a workload.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name; empty on the command line means every workload.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// `--trace 1`: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for traces and result files.
    pub out_dir: PathBuf,
}

/// Output checks made and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Outputs compared against ground truth.
    pub attempted: u64,
    /// Of which wrong, lost or refused.
    pub failed: u64,
}

impl Tally {
    /// Counts one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` checks of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// What one repetition reports.
#[derive(Debug)]
pub struct Rep {
    /// Seconds of the region a user waits for.
    pub wall_s: f64,
    /// Work units completed in that region.
    pub ops: u64,
    /// Output checks.
    pub tally: Tally,
    /// FNV-1a over every simulated statistic the rep produced; must be
    /// identical in every rep of a run, whatever the pass.
    pub digest: u64,
    /// Per-layer counts that must repeat exactly in every rep that
    /// reports them.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-layer measurements that vary between reps; the traced pass
    /// reports their median.
    pub gauges: Vec<(&'static str, f64)>,
}

/// The per-layer table being filled; every registered name starts at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Sets a registered per-layer metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] — a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            layer_def(name).is_some(),
            "unregistered layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Current value of a registered metric.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// What [`Workload::layers`] is told about the reps that ran.
pub struct LayerCtx {
    /// Seed of the run.
    pub seed: u64,
    /// Median wall of the plain reps.
    pub plain_wall_s: f64,
    /// Median wall of the traced reps.
    pub traced_wall_s: f64,
    /// Ops per rep.
    pub ops: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// Everything the timed region takes as given.
    type Bed;
    /// How many times set-up runs (the last bed is kept).
    const SETUPS: usize;
    /// Passes `--trace 1` adds after the plain reps, each with the fewest
    /// reps it needs whatever the time budget.
    const TRACE_PASSES: &'static [(Pass, usize)];

    /// Builds the inputs from the seed and leaves the system as the
    /// timed region finds it: steady-state workloads run themselves once
    /// here (their warm-up is part of set-up, so work moved into lazy
    /// first-use initialisation still shows in `setup_s`); workloads whose
    /// users pay the cold cost on every run do not.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Self::Bed, Error>;

    /// Runs the workload once and checks its outputs.
    fn rep(&self, bed: &Self::Bed, pass: Pass, tr: &mut Tracer) -> Result<Rep, Error>;

    /// Fills the per-layer metrics that come from spans and from
    /// isolated drives of single layers over this workload's inputs.
    fn layers(
        &self,
        bed: &Self::Bed,
        ctx: &LayerCtx,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<Tally, Error>;
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Definition from the registry.
    pub def: MetricDef,
    /// Median (the reported value), quartiles and sample count.
    pub summary: Summary,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Plain reps measured.
    pub reps: usize,
    /// Output checks.
    pub tally: Tally,
    /// The run's digest (identical in every rep, or `tally.failed > 0`).
    pub digest: u64,
    /// The exact-repeat counts, by name.
    pub counts: BTreeMap<&'static str, f64>,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Measured>,
}

struct Runner<'a, W: Workload> {
    w: &'a W,
    seed: u64,
    tr: Tracer,
    tally: Tally,
    digest: Option<u64>,
    counts: BTreeMap<&'static str, f64>,
}

impl<W: Workload> Runner<'_, W> {
    /// One timed set-up.
    fn setup(&mut self) -> Result<(W::Bed, f64), Error> {
        self.tr.start_rep(Pass::Setup);
        let root = self.tr.begin("harness.setup");
        let t = Instant::now();
        let bed = self.w.setup(self.seed, &mut self.tr)?;
        let secs = t.elapsed().as_secs_f64();
        self.tr.end(root);
        Ok((bed, secs))
    }

    /// One rep, folded into the run's tally and exact-repeat ledger.
    fn rep(&mut self, bed: &W::Bed, pass: Pass) -> Result<Rep, Error> {
        self.tr.start_rep(pass);
        let root = self.tr.begin("harness.rep");
        let rep = self.w.rep(bed, pass, &mut self.tr)?;
        self.tr.end(root);
        self.tally.add(rep.tally.attempted, rep.tally.failed);
        let mut same = *self.digest.get_or_insert(rep.digest) == rep.digest;
        for &(name, v) in &rep.counts {
            same &= *self.counts.entry(name).or_insert(v) == v;
        }
        self.tally.check(same);
        Ok(rep)
    }

    /// Reps of `pass` until `budget_s` has passed, and at least `min_reps`.
    fn pass(
        &mut self,
        bed: &W::Bed,
        pass: Pass,
        budget_s: f64,
        min_reps: usize,
        mut reps: Vec<Rep>,
    ) -> Result<Vec<Rep>, Error> {
        let start = Instant::now();
        while reps.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
            reps.push(self.rep(bed, pass)?);
        }
        Ok(reps)
    }
}

fn measured(def: &MetricDef, samples: &[f64]) -> Measured {
    Measured {
        def: *def,
        summary: summary(samples),
    }
}

/// The traced passes of `--trace 1`: per-rep gauges and exact counts,
/// then the workload's span-derived metrics and isolated drives.
fn per_layer<W: Workload>(
    run: &mut Runner<'_, W>,
    bed: &W::Bed,
    mut ctx: LayerCtx,
    budget_s: f64,
) -> Result<Layers, Error> {
    let mut layers = Layers::new();
    for &(pass, min_reps) in W::TRACE_PASSES {
        let reps = run.pass(bed, pass, budget_s, min_reps, Vec::new())?;
        let mut gauges: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for r in &reps {
            for &(name, v) in &r.gauges {
                gauges.entry(name).or_default().push(v);
            }
        }
        for (name, v) in gauges {
            layers.set(name, median(&v));
        }
        if pass == Pass::Traced {
            ctx.traced_wall_s = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        }
    }
    for (&name, &v) in &run.counts {
        layers.set(name, v);
    }
    run.tr.start_rep(Pass::Drive);
    let root = run.tr.begin("harness.drives");
    let drives = run.w.layers(bed, &ctx, &mut run.tr, &mut layers)?;
    run.tr.end(root);
    run.tally.add(drives.attempted, drives.failed);
    layers.set(
        "trace.overhead_share",
        ctx.traced_wall_s / ctx.plain_wall_s - 1.0,
    );
    Ok(layers)
}

/// Runs `w` under the protocol. See the module docs.
pub fn drive<W: Workload>(w: &W, args: &Args) -> Result<Outcome, Error> {
    let mut run = Runner {
        w,
        seed: args.seed,
        tr: Tracer::new(args.trace),
        tally: Tally::default(),
        digest: None,
        counts: BTreeMap::new(),
    };

    // Peak RSS is read after one set-up and one rep. Everything later only
    // adds what the allocator retains from earlier beds and reps, which is
    // the harness's doing, not the workload's.
    let (mut bed, secs) = run.setup()?;
    let mut setup_s = vec![secs];
    let first = run.rep(&bed, Pass::Plain)?;
    let peak_rss_mb = host::peak_rss_mib()?;
    for _ in 1..W::SETUPS {
        // Free the previous bed first, so memory never holds two.
        drop(bed);
        let secs;
        (bed, secs) = run.setup()?;
        setup_s.push(secs);
    }

    let passes = 1 + if args.trace { W::TRACE_PASSES.len() } else { 0 };
    let budget_s = args.seconds / passes as f64;
    let plain = run.pass(&bed, Pass::Plain, budget_s, 1, vec![first])?;
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();

    let metrics = if args.trace {
        let ctx = LayerCtx {
            seed: args.seed,
            plain_wall_s: median(&walls),
            traced_wall_s: 0.0,
            ops: plain[0].ops,
        };
        let layers = per_layer(&mut run, &bed, ctx, budget_s)?;
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        run.tr.write_json(&path, &args.workload, args.seed)?;
        PER_LAYER
            .iter()
            .map(|def| measured(def, &[layers.get(def.name)]))
            .collect()
    } else {
        let rates: Vec<f64> = plain.iter().map(|r| r.ops as f64 / r.wall_s).collect();
        END_TO_END
            .iter()
            .map(|def| match def.name {
                "wall_s" => measured(def, &walls),
                "ops_per_s" => measured(def, &rates),
                "peak_rss_mb" => measured(def, &[peak_rss_mb]),
                "setup_s" => measured(def, &setup_s),
                other => unreachable!("end-to-end metric {other} has no source"),
            })
            .collect()
    };

    Ok(Outcome {
        reps: plain.len(),
        tally: run.tally,
        digest: run.digest.expect("at least one rep ran"),
        counts: run.counts,
        metrics,
    })
}
