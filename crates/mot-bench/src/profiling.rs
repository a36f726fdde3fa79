//! `--profile-phases`: where a sweep's time went, printed to stderr so
//! the deterministic stdout tables stay byte-identical with and without
//! the flag.
//!
//! The sweep-shaped figure runners time themselves as they go
//! ([`SweepPhases`]: seconds summed over cells for each shared input —
//! the graph, the distance backend, the overlay, the workload — and
//! each per-cell phase, split by algorithm, plus how busy the runner
//! kept its workers); the flag only decides whether that is printed.
//! Heap bytes of the bed are reported by `--metrics` (`memory`) and
//! `bench-baseline`, not here. For instruction-level attribution below
//! this granularity, PERFORMANCE.md documents the flamegraph recipe
//! (`perf record` against the `experiments` binary — no extra tooling
//! baked into the crate).

use std::time::Instant;

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

#[cfg(test)]
mod tests {
    use super::*;

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
        let builds: Vec<&str> = phases.shared.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(builds, ["graph", "oracle", "overlay", "workload+rates"]);
        let built: f64 = phases.shared.iter().map(|(_, s)| s).sum();
        assert!(built > 0.0 && built <= phases.per_algo[INPUTS].1.iter().sum::<f64>());
        assert!(in_phases > 0.0 && in_phases <= phases.cell_secs);
        assert!(phases.efficiency() > 0.0 && phases.efficiency() <= 1.01);
        let rendered = phases.render();
        for needle in [
            "query-conc sweep",
            "graph",
            "oracle",
            "engine",
            "efficiency",
        ] {
            assert!(rendered.contains(needle), "{needle} missing:\n{rendered}");
        }
    }
}
