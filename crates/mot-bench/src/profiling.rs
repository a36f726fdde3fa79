//! `--profile-phases`: self-timing breakdowns of the hot experiments,
//! printed to stderr so the deterministic stdout tables stay
//! byte-identical with and without the flag.
//!
//! The sweep-shaped figure runners time themselves as they go
//! ([`SweepPhases`]: seconds summed over cells for each shared input and
//! each per-cell phase, split by algorithm, plus how busy the runner
//! kept its workers); the flag only decides whether that is printed.
//!
//! Where `bench-baseline` commits coarse per-phase numbers as the CI
//! contract, this module answers the *why is it slow* question during
//! optimization work: a fig4 replay split into graph/oracle/hierarchy/
//! publish/replay/queries (followed by the heap bytes the oracle and
//! the overlay hold once the replay is over), and a service soak split
//! into bed build vs the soak loop, each phase with its share of the
//! total. For
//! instruction-level attribution below this granularity, PERFORMANCE.md
//! documents the flamegraph recipe (`perf record` against the
//! `experiments` binary — no extra tooling baked into the crate).

use crate::figures::BenchError;
use crate::service::ServiceSpec;
use crate::SizeSpec;
use mot_baselines::DetectionRates;
use mot_hierarchy::{build_doubling, OverlayConfig};
use mot_net::{DistanceOracle, OracleKind};
use mot_sim::{query_batch, replay, run_publish, Algo, Draw, TestBed, WorkloadSpec};
use std::time::Instant;

/// A labelled sequence of phase durations with a one-line context
/// header. Rendering is fixed-width and stderr-friendly.
#[derive(Clone, Debug)]
pub struct PhaseTimings {
    /// What was profiled (topology, scale, backend).
    pub title: String,
    /// `(phase name, seconds)`, in execution order.
    pub phases: Vec<(String, f64)>,
    /// `(what, heap bytes)` held when the last phase ended — the distance
    /// backend next to the overlay's detection-path table. Empty where
    /// the profiled run does not expose its bed.
    pub memory: Vec<(String, usize)>,
}

impl PhaseTimings {
    /// Sum over all phases.
    pub fn total(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }

    /// Aligned text table: one row per phase with seconds and share of
    /// the total, then a total row, then one row per memory entry.
    pub fn render(&self) -> String {
        let width = self
            .phases
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let total = self.total();
        let mut out = format!("profile-phases: {}\n", self.title);
        for (name, secs) in &self.phases {
            let share = if total > 0.0 {
                secs / total * 100.0
            } else {
                0.0
            };
            out.push_str(&format!("  {name:width$}  {secs:>10.4}s  {share:>5.1}%\n"));
        }
        out.push_str(&format!("  {:width$}  {total:>10.4}s\n", "total"));
        for (what, bytes) in &self.memory {
            let mib = *bytes as f64 / (1024.0 * 1024.0);
            out.push_str(&format!("  {what:width$}  {mib:>10.2} MiB\n"));
        }
        out
    }
}

/// The per-cell phases of a sweep, in execution order: getting the
/// shared inputs (building them, or waiting for the worker that is),
/// instantiating the tracker, publishing, the one-by-one replay or the
/// concurrent engine — whichever the figure runs — and the queries.
pub(crate) const CELL_PHASES: usize = 5;
pub(crate) const INPUTS: usize = 0;
pub(crate) const TRACKER: usize = 1;
pub(crate) const PUBLISH: usize = 2;
pub(crate) const RUN: usize = 3;
pub(crate) const QUERIES: usize = 4;

/// A cell's stopwatch: [`Laps::lap`] bills the time since the previous
/// lap (or the start) to one phase.
pub(crate) struct Laps {
    last: Instant,
    pub secs: [f64; CELL_PHASES],
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            secs: [0.0; CELL_PHASES],
        }
    }

    pub fn lap(&mut self, phase: usize) {
        let now = Instant::now();
        self.secs[phase] += (now - self.last).as_secs_f64();
        self.last = now;
    }
}

/// Where one sweep's time went: what `--profile-phases` prints for the
/// sweep-shaped figures. All seconds are summed over cells, so with
/// `jobs` workers they add up to more than the wall clock.
#[derive(Clone, Debug)]
pub struct SweepPhases {
    /// Which sweep (the cells' figure key) and its size.
    pub title: String,
    /// Workers the runner used.
    pub jobs: usize,
    /// Wall clock of the whole fan-out.
    pub wall_secs: f64,
    /// Σ over cells of the cell's own wall clock, waits included.
    pub cell_secs: f64,
    /// Building the shared inputs, once per grid or per (grid, seed):
    /// `(what, seconds)`. These seconds are inside the first per-cell
    /// phase (`inputs`), whose remainder is waiting.
    pub shared: Vec<(String, f64)>,
    /// Column labels of [`SweepPhases::per_algo`].
    pub algos: Vec<String>,
    /// Per-cell phases, `inputs` first: `(phase, seconds per algorithm)`.
    pub per_algo: Vec<(String, Vec<f64>)>,
}

impl SweepPhases {
    /// `Σ cell seconds / (jobs × wall)`: the share of its workers' time
    /// the runner kept filled with cells.
    pub fn efficiency(&self) -> f64 {
        self.cell_secs / (self.jobs as f64 * self.wall_secs).max(1e-12)
    }

    /// Aligned text table: one row per cell phase with its per-algorithm
    /// split — under `inputs`, what building each shared input took, the
    /// rest of that row being cells waiting for a build — then what the
    /// cells spent outside any phase (a runner's own checks), the cell
    /// total, the wall clock and the runner efficiency.
    pub fn render(&self) -> String {
        let mut out = format!("profile-phases: {}\n", self.title);
        let cols: String = self.algos.iter().map(|a| format!(" {a:>16}")).collect();
        out.push_str(&format!("  {:18} {:>9}{cols}\n", "phase", "seconds"));
        let mut in_phases = 0.0;
        for (k, (phase, by_algo)) in self.per_algo.iter().enumerate() {
            let total: f64 = by_algo.iter().sum();
            in_phases += total;
            let split: String = by_algo.iter().map(|s| format!(" {s:>16.4}")).collect();
            out.push_str(&format!("  {phase:18} {total:>9.4}{split}\n"));
            if k == INPUTS {
                for (what, secs) in &self.shared {
                    out.push_str(&format!("    {what:16} {secs:>9.4}\n"));
                }
            }
        }
        out.push_str(&format!(
            "  {:18} {:>9.4}\n  {:18} {:>9.4}\n  {:18} {:>9.4}  x {} jobs, efficiency {:.2}\n",
            "other",
            (self.cell_secs - in_phases).max(0.0),
            "cells",
            self.cell_secs,
            "wall",
            self.wall_secs,
            self.jobs,
            self.efficiency(),
        ));
        out
    }
}

/// Times every phase of one fig4-style replay: graph build, oracle
/// build, hierarchy build, publish, the one-by-one move replay, and a
/// query batch.
pub fn profile_fig4_phases(
    spec: SizeSpec,
    objects: usize,
    moves_per_object: usize,
    oracle: OracleKind,
    seed: u64,
) -> Result<PhaseTimings, BenchError> {
    let mut phases = Vec::new();
    let mut timed = |name: &str, secs: f64| phases.push((name.to_string(), secs));

    let t = Instant::now();
    let g = match spec {
        SizeSpec::Grid { rows, cols } => mot_net::generators::grid(rows, cols)?,
        SizeSpec::Geometric {
            nodes,
            side,
            radius,
            seed,
        } => mot_net::generators::random_geometric(nodes, side, radius, seed)?,
    };
    timed("graph", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let m = oracle.build(&g)?;
    timed("oracle", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let overlay = build_doubling(&g, &*m, &OverlayConfig::practical(), seed);
    timed("hierarchy", t.elapsed().as_secs_f64());

    let bed = TestBed {
        graph: g,
        oracle: m,
        overlay,
        faults: None,
    };
    let w = WorkloadSpec::new(objects, moves_per_object, seed * 7 + 1).generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let mut tracker = bed.make_tracker(Algo::Mot, &rates)?;

    let t = Instant::now();
    run_publish(tracker.as_mut(), &w)?;
    timed("publish", t.elapsed().as_secs_f64());

    let t = Instant::now();
    replay(tracker.as_mut(), &w, &*bed.oracle, None)?;
    timed("replay", t.elapsed().as_secs_f64());

    let queries = (objects * 10).max(100);
    let t = Instant::now();
    query_batch(
        tracker.as_mut(),
        &*bed.oracle,
        objects,
        queries,
        seed + 2,
        Draw::UNIFORM,
        None,
    )?;
    timed("queries", t.elapsed().as_secs_f64());

    let (rows, cols) = spec.rows_cols();
    Ok(PhaseTimings {
        title: format!(
            "fig4 replay, {} {rows}x{cols} ({} nodes), {objects} objects x \
             {moves_per_object} moves, oracle {}",
            spec.topology(),
            spec.nodes(),
            oracle.label(),
        ),
        phases,
        memory: vec![
            ("oracle".into(), bed.oracle.memory_bytes()),
            ("overlay".into(), bed.overlay.memory_bytes()),
        ],
    })
}

/// A service soak split into bed construction and the soak loop itself,
/// with throughput in the title, for a caller that timed the soak end to
/// end (the `experiments` binary times its normal `service` run and
/// feeds it here). The soak number is the report's own wall clock (the
/// same value `bench-baseline` gates).
pub fn service_phase_timings(
    spec: &ServiceSpec,
    rep: &mot_sim::ServiceReport,
    end_to_end_secs: f64,
) -> PhaseTimings {
    let setup = (end_to_end_secs - rep.wall_secs).max(0.0);
    let (rows, cols) = spec.grid;
    PhaseTimings {
        title: format!(
            "service soak, {rows}x{cols} grid, {} objects, {} ops, {} shards, jobs {} \
             ({:.0} ops/s)",
            spec.cfg.stream.objects,
            spec.cfg.stream.ops,
            spec.cfg.shards,
            spec.cfg.jobs,
            spec.cfg.stream.ops as f64 / rep.wall_secs.max(1e-12),
        ),
        phases: vec![("bed_build".into(), setup), ("soak".into(), rep.wall_secs)],
        memory: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_profile_times_every_phase() {
        let t = profile_fig4_phases(
            SizeSpec::Grid { rows: 6, cols: 6 },
            4,
            20,
            OracleKind::Auto,
            1,
        )
        .unwrap();
        let names: Vec<&str> = t.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "graph",
                "oracle",
                "hierarchy",
                "publish",
                "replay",
                "queries"
            ]
        );
        assert!(t.phases.iter().all(|&(_, s)| s >= 0.0));
        assert!(t.total() > 0.0);
        let rendered = t.render();
        assert!(rendered.contains("hierarchy"));
        assert!(rendered.contains("total"));
        assert!(rendered.contains('%'));
        let memory: Vec<&str> = t.memory.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(memory, ["oracle", "overlay"]);
        assert!(t.memory.iter().all(|&(_, bytes)| bytes > 0));
        assert!(rendered.contains("MiB"));
    }

    #[test]
    fn sweep_phases_account_for_the_cells_and_leave_the_table_alone() {
        use crate::figures::{figure_pair, maintenance_figure, query_figure, Profile};
        let p = Profile::quick(5).with_jobs(2);
        let pair = figure_pair(&p, true, true).unwrap();
        assert_eq!(
            pair.maintenance.to_csv(),
            maintenance_figure(&p, true).unwrap().to_csv()
        );
        assert_eq!(
            pair.query.map(|t| t.to_csv()),
            Some(query_figure(&p, true).unwrap().to_csv())
        );
        let phases = pair.phases;
        assert_eq!(phases.algos, ["MOT", "STUN", "Z-DAT", "Z-DAT+shortcuts"]);
        let names: Vec<&str> = phases.per_algo.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["inputs", "tracker", "publish", "engine", "queries"]);
        let in_phases: f64 = phases.per_algo.iter().flat_map(|(_, s)| s).sum();
        let built: f64 = phases.shared.iter().map(|(_, s)| s).sum();
        assert!(built > 0.0 && built <= phases.per_algo[INPUTS].1.iter().sum::<f64>());
        assert!(in_phases > 0.0 && in_phases <= phases.cell_secs);
        assert!(phases.efficiency() > 0.0 && phases.efficiency() <= 1.01);
        let rendered = phases.render();
        for needle in ["query-conc sweep", "graph+oracle", "engine", "efficiency"] {
            assert!(rendered.contains(needle), "{needle} missing:\n{rendered}");
        }
    }

    #[test]
    fn service_profile_reports_setup_and_soak() {
        let mut s = ServiceSpec::smoke();
        s.cfg.stream.ops = 500;
        s.cfg.stream.objects = 20;
        let start = Instant::now();
        let (_, rep) = crate::service::service_run(&s).unwrap();
        let t = service_phase_timings(&s, &rep, start.elapsed().as_secs_f64());
        assert_eq!(t.phases.len(), 2);
        assert!(t.phases[1].1 > 0.0, "soak wall clock missing");
        assert!(t.title.contains("ops/s"));
    }
}
