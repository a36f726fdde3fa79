//! The `service` / `service-smoke` experiments: a chaos soak of the
//! long-lived sharded event loop (DESIGN.md §15).
//!
//! Each spec runs [`mot_sim::run_service`] over a seeded
//! publish/move/query stream under a composed fault plan (drops,
//! duplicates, delays, dead links, shard crashes) and renders the
//! deterministic slice of the [`mot_sim::ServiceReport`] as a metric
//! table. Two health checks fail the experiment (nonzero exit, like
//! every other runner's checks):
//!
//! * any full-path query whose tracker answer disagreed with the shard
//!   ledger, and
//! * — whenever the retry budget absorbed every fault (`lost == 0`) —
//!   a final object→location map that is not bit-identical to the
//!   fault-free oracle replay of the same stream.
//!
//! `run_service` itself already rejects unaccounted ops
//! (`sent != applied + shed + lost`) and ledger/tracker disagreement,
//! so a table coming out of here certifies the zero-silent-loss
//! invariant. Wall-clock throughput is intentionally *not* a table row
//! (tables must be byte-identical across `--jobs`); the binary prints
//! it to stderr and `--metrics` carries it in the report's `service`
//! trailer.

use crate::figures::{BenchError, BenchResult};
use crate::report::FigureTable;
use mot_net::OracleKind;
use mot_sim::{
    run_service, FaultConfig, OpStream, ServiceConfig, ServiceReport, StreamSpec, TestBed,
};

/// One service-soak configuration: the topology plus the full
/// [`ServiceConfig`] (stream, sharding, fault plan, policy).
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Grid topology to run on.
    pub grid: (usize, usize),
    /// Distance backend for the bed.
    pub oracle: OracleKind,
    /// The service loop configuration.
    pub cfg: ServiceConfig,
}

/// The composed chaos plan every profile runs: drops, duplicates,
/// delays, dead links, and `crashes` shard crashes. `max_attempts`
/// scales with the op count so the retry budget keeps the expected
/// exhaustion count at zero and the bit-identical end-state check
/// stays in force.
fn composed_plan(seed: u64, crashes: usize, max_attempts: u32) -> FaultConfig {
    FaultConfig {
        seed,
        drop_rate: 0.15,
        duplicate_rate: 0.05,
        delay_rate: 0.05,
        link_failure_rate: 0.02,
        crashes,
        max_attempts,
    }
}

impl ServiceSpec {
    fn base(
        grid: (usize, usize),
        objects: usize,
        ops: u64,
        shards: usize,
        batch: usize,
        faults: FaultConfig,
    ) -> Self {
        let mut cfg = ServiceConfig::new(StreamSpec::new(objects, ops, 0xC0FFEE));
        cfg.shards = shards;
        cfg.jobs = 0;
        cfg.batch = batch;
        cfg.faults = faults;
        ServiceSpec {
            grid,
            oracle: OracleKind::Auto,
            cfg,
        }
    }

    /// Seconds-scale soak: 2·10⁴ ops over 500 objects on a 16×16 grid.
    pub fn quick() -> Self {
        Self::base((16, 16), 500, 20_000, 8, 256, composed_plan(7, 4, 8))
    }

    /// The default soak: 2·10⁵ ops over 5000 objects on a 24×24 grid.
    pub fn standard() -> Self {
        Self::base((24, 24), 5_000, 200_000, 16, 512, composed_plan(7, 8, 10))
    }

    /// The full-profile soak the acceptance criteria name: 10⁶ ops over
    /// 2·10⁵ objects on a 32×32 grid.
    pub fn paper() -> Self {
        Self::base(
            (32, 32),
            200_000,
            1_000_000,
            32,
            1024,
            composed_plan(7, 16, 12),
        )
    }

    /// The CI `service-smoke` job: a short composed-fault soak pinned to
    /// `--jobs 2`, small enough for seconds-scale turnaround.
    pub fn smoke() -> Self {
        let mut s = Self::base((12, 12), 100, 10_000, 4, 128, composed_plan(7, 3, 8));
        s.cfg.jobs = 2;
        s
    }

    /// Maps the binary's `--profile` names onto soak scales.
    pub fn for_profile(name: &str) -> Result<Self, BenchError> {
        Ok(match name {
            "quick" => Self::quick(),
            "standard" => Self::standard(),
            "paper" => Self::paper(),
            other => return Err(format!("unknown profile '{other}' (quick|standard|paper)").into()),
        })
    }

    /// Overrides the distance backend.
    pub fn with_oracle(mut self, kind: OracleKind) -> Self {
        self.oracle = kind;
        self
    }

    /// Overrides the worker count (`0` = auto). Has no effect on any
    /// table byte — the determinism contract of DESIGN.md §12 extends
    /// to service mode.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.cfg.jobs = jobs;
        self
    }
}

/// Runs the soak and returns both renderings: the deterministic metric
/// table and the full report (whose `wall` trailer has the throughput).
pub fn service_run(spec: &ServiceSpec) -> Result<(FigureTable, ServiceReport), BenchError> {
    let (r, c) = spec.grid;
    let bed = TestBed::grid_with_oracle(r, c, spec.cfg.stream.seed, spec.oracle)?;
    let out = run_service(&bed, &spec.cfg)?;
    let rep = out.report;

    if rep.queries_wrong > 0 {
        return Err(format!(
            "{} queries answered against the tracker disagreed with the shard ledger",
            rep.queries_wrong
        )
        .into());
    }
    if rep.lost == 0 {
        let mut oracle = OpStream::new(&bed.graph, spec.cfg.stream);
        while oracle.next_op().is_some() {}
        if out.final_positions != oracle.positions() {
            return Err("no op was lost, yet the final object→location map \
                 differs from the fault-free oracle replay"
                .into());
        }
    }

    let f = &spec.cfg.faults;
    let table = FigureTable {
        title: format!(
            "Service soak: {r}x{c} grid, {} objects, {} ops, \
             drop {} dup {} delay {} link {} crashes {}",
            spec.cfg.stream.objects,
            spec.cfg.stream.ops,
            f.drop_rate,
            f.duplicate_rate,
            f.delay_rate,
            f.link_failure_rate,
            f.crashes
        ),
        x_label: "metric".into(),
        columns: vec!["value".into()],
        rows: vec![
            ("sent".into(), vec![rep.sent as f64]),
            ("applied".into(), vec![rep.applied as f64]),
            ("shed".into(), vec![rep.shed as f64]),
            ("lost".into(), vec![rep.lost as f64]),
            ("superseded".into(), vec![rep.superseded as f64]),
            ("fenced_dups".into(), vec![rep.fenced as f64]),
            ("degraded_queries".into(), vec![rep.degraded as f64]),
            ("queries_correct".into(), vec![rep.queries_correct as f64]),
            ("dropped_attempts".into(), vec![rep.dropped_attempts as f64]),
            ("retries".into(), vec![rep.retries as f64]),
            ("dup_deliveries".into(), vec![rep.dup_deliveries as f64]),
            ("delayed".into(), vec![rep.delayed as f64]),
            ("crash_events".into(), vec![rep.crash_events as f64]),
            ("replayed_ops".into(), vec![rep.replayed_ops as f64]),
            ("redelivered".into(), vec![rep.redelivered as f64]),
            ("recovery_cost".into(), vec![rep.recovery_cost]),
            (
                "backlog_p50_depth".into(),
                vec![rep.backlog_depth.quantile(0.5)],
            ),
            (
                "backlog_p99_depth".into(),
                vec![rep.backlog_depth.quantile(0.99)],
            ),
            ("backlog_max_depth".into(), vec![rep.max_depth as f64]),
            ("backlog_max_age".into(), vec![rep.max_age as f64]),
            (
                "publish_p50_cost".into(),
                vec![rep.publish_cost.quantile(0.5)],
            ),
            ("move_p50_cost".into(), vec![rep.move_cost.quantile(0.5)]),
            ("move_p99_cost".into(), vec![rep.move_cost.quantile(0.99)]),
            ("query_p50_cost".into(), vec![rep.query_cost.quantile(0.5)]),
            ("query_p99_cost".into(), vec![rep.query_cost.quantile(0.99)]),
            ("ticks".into(), vec![rep.ticks as f64]),
        ],
    };
    Ok((table, rep))
}

/// The table alone (testing convenience; the binary uses
/// [`service_run`] to also print throughput and fill `--metrics`).
pub fn service_table(spec: &ServiceSpec) -> BenchResult {
    service_run(spec).map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_core::JsonWriter;

    fn tiny() -> ServiceSpec {
        let mut s = ServiceSpec::smoke();
        s.cfg.stream.ops = 2_000;
        s.cfg.stream.objects = 50;
        s
    }

    #[test]
    fn smoke_spec_soaks_clean_and_reports_every_account() {
        let (table, rep) = service_run(&tiny()).unwrap();
        assert!(rep.accounted());
        assert_eq!(table.column("value").unwrap().len(), table.rows.len());
        let row = |name: &str| {
            table
                .rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[0])
                .unwrap()
        };
        assert_eq!(row("sent"), 2_000.0);
        assert_eq!(row("sent"), row("applied") + row("shed") + row("lost"));
        assert!(row("crash_events") > 0.0);
        assert!(row("queries_correct") > 0.0);
    }

    #[test]
    fn service_table_is_byte_identical_across_jobs() {
        let a = service_table(&tiny().with_jobs(1)).unwrap();
        let b = service_table(&tiny().with_jobs(4)).unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(JsonWriter::render(&a), JsonWriter::render(&b));
    }

    #[test]
    fn profile_names_map_and_unknown_is_an_error() {
        assert_eq!(ServiceSpec::for_profile("quick").unwrap().grid, (16, 16));
        assert_eq!(
            ServiceSpec::for_profile("paper").unwrap().cfg.stream.ops,
            1_000_000
        );
        assert!(ServiceSpec::for_profile("nope").is_err());
    }
}
