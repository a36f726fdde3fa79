//! Experiment definitions regenerating every figure of the paper's §8,
//! plus the ablations DESIGN.md calls out.
//!
//! The `experiments` binary prints the tables. Figures:
//!
//! | id       | paper figure | metric |
//! |----------|--------------|--------|
//! | `fig4`   | Fig. 4  | maintenance cost ratio, one-by-one, 100 objects |
//! | `fig5`   | Fig. 5  | maintenance cost ratio, one-by-one, 1000 objects |
//! | `fig6`   | Fig. 6  | query cost ratio, one-by-one, 100 objects |
//! | `fig7`   | Fig. 7  | query cost ratio, one-by-one, 1000 objects |
//! | `fig8`…`fig11` | Figs. 8–11 | load/node vs STUN and Z-DAT |
//! | `fig12`/`fig13` | Figs. 12–13 | maintenance ratio, concurrent |
//! | `fig14`/`fig15` | Figs. 14–15 | query ratio, concurrent |
//! | `faults` | — | fault sweep: drop rates × crashes, MOT vs STUN, 32×32 grid |
//! | `faults-smoke` | — | fixed-seed 16×16 fault sweep (CI health check) |
//! | `service` | — | chaos soak of the long-lived service loop (DESIGN.md §15) |
//! | `service-smoke` | — | short fixed-seed service soak (CI zero-silent-loss check) |
//! | `churn` | §7 | amortized hierarchy-repair cost under seeded join/leave schedules |
//! | `churn-smoke` | §7 | per-delta divergence gate + churn service soak (CI) |
//! | `scenarios` | §8 | mobility/workload scenario suite: waypoint, Lévy, hotspot, Zipf, adversarial |
//! | `scenarios-smoke` | §8 | fixed-spec scenario sweep + gated claims + scenario service soak (CI) |
//! | `level-decomp` | — | per-level cost decomposition of an instrumented MOT run |
//! | `bench-baseline` | — | wall-clock phase timings per size and service soak (`BENCH_*.json`) |
//!
//! `--metrics out.json` additionally writes a machine-readable
//! [`RunReport`]; `--trace out.ndjson` dumps the fixed-seed instrumented
//! run's raw event stream as NDJSON.
//!
//! # Place in the workspace
//!
//! The top of the crate DAG — depends on everything, nothing depends
//! on it. Reproduces §8's evaluation; the table above maps each
//! experiment id to its paper figure. See DESIGN.md §4
//! (per-experiment index) and §12 (the `--jobs` determinism contract).

#![warn(missing_docs)]

pub mod baseline;
pub mod churn;
pub mod figures;
pub mod profiling;
pub mod report;
pub mod scenarios;
pub mod service;
mod shared;

pub use baseline::{
    run_baseline, BaselineProfile, BaselineReport, ServiceTiming, SizeSpec, SizeTiming,
    BENCH_SCHEMA,
};
pub use churn::{churn_smoke_table, churn_table};
pub use figures::{
    ablation_table, faults_table, figure_pair, general_graph_table, instrumented_run,
    level_decomposition_table, load_figure, locality_table, maintenance_figure, mobility_table,
    publish_cost_table, query_figure, scale_table, state_size_table, trace_events, BenchError,
    BenchResult, FigurePair, Profile,
};
pub use profiling::SweepPhases;
pub use report::{BedMemory, FigureTable, RunReport};
pub use scenarios::{scenario_tables, scenarios_smoke_table, ScenarioProfile};
pub use service::{service_run, service_table, ServiceSpec};
