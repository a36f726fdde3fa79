//! The `churn` / `churn-smoke` experiments: amortized hierarchy repair
//! under topology churn (§7).
//!
//! Both experiments replay seeded, connectivity-preserving join/leave
//! schedules ([`mot_net::ChurnSchedule`]) against a
//! [`RepairableHierarchy`] and measure the *structural* repair cost:
//! membership flips (the paper's per-cluster update events — §7 argues
//! O(1) amortized per level), total repaired units (flips + parent
//! recomputations + station rebuilds, O(log D) per event), and the
//! rebuild-vs-repair ledger's fallback decisions.
//!
//! Every replay ends in a **zero-divergence gate**: the repaired
//! hierarchy must be bit-identical (levels, parents, stations) to a
//! from-scratch build on the final topology, or the experiment fails
//! with a nonzero exit — same contract the differential test suites
//! enforce (DESIGN.md §17). `churn-smoke` checks divergence after
//! *every* delta across three schedule seeds and additionally soaks a
//! short churn-enabled service run (`StreamSpec::churn_every`), whose
//! own quiescence gate re-verifies the coordinator mirror.

use crate::figures::{BenchError, BenchResult};
use crate::report::FigureTable;
use mot_hierarchy::{OverlayConfig, RepairableHierarchy};
use mot_net::{generators, ChurnSchedule, ChurnSpec, Graph};
use mot_sim::{
    run_service, CellKey, FaultConfig, Keyed, ParallelRunner, ServiceConfig, StreamSpec, TestBed,
};

/// Hierarchy priority seed shared by the churn experiments.
const HIER_SEED: u64 = 6;

/// What one schedule replay measures.
struct ReplayStats {
    events: u64,
    flips: u64,
    units: u64,
    repairs: u64,
    rebuilds: u64,
    settled: u64,
    height: usize,
}

/// Replays a full schedule, gating on end-state divergence; with
/// `check_every_delta`, gates after every single delta (smoke mode).
fn replay_schedule(
    base: &Graph,
    spec: &ChurnSpec,
    check_every_delta: bool,
    ctx: &str,
) -> Result<ReplayStats, BenchError> {
    let cfg = OverlayConfig::practical();
    let sched = ChurnSchedule::generate(base, spec)?;
    let mut hier = RepairableHierarchy::build(base, &cfg, HIER_SEED)?;
    for (i, delta) in sched.deltas().iter().enumerate() {
        hier.repair(delta)?;
        if check_every_delta {
            let fresh = RepairableHierarchy::build(hier.graph(), &cfg, HIER_SEED)?;
            if hier.snapshot() != fresh.snapshot() {
                return Err(format!("{ctx}: repair diverged from rebuild at delta {i}").into());
            }
        }
    }
    let fresh = RepairableHierarchy::build(hier.graph(), &cfg, HIER_SEED)?;
    if hier.snapshot() != fresh.snapshot() {
        return Err(format!("{ctx}: repaired end state diverged from a rebuild").into());
    }
    let l = hier.ledger();
    Ok(ReplayStats {
        events: l.events,
        flips: l.membership_flips,
        units: l.repaired_units + l.rebuild_units,
        repairs: l.repairs,
        rebuilds: l.rebuilds,
        settled: l.settled_nodes,
        height: hier.height(),
    })
}

/// §7: amortized repair under churn. Each grid row replays a seeded
/// join/leave schedule of `2n` deltas and reports per-event structural
/// costs; the paper's claim is that `flips/event` stays O(1) per level
/// (so bounded by the height column) as the network grows. `jobs`
/// sizes the worker pool exactly as `Profile::jobs` does (0 = one per
/// hardware thread); the table itself is identical for every value.
pub fn churn_table(jobs: usize) -> BenchResult {
    let grids = [(8usize, 8usize), (12, 12), (16, 16)];
    let cells: Vec<Keyed<(usize, usize)>> = grids
        .iter()
        .map(|&(r, c)| Keyed::new(CellKey::new("churn", r * c, "repair", 9), (r, c)))
        .collect();
    let rows = ParallelRunner::new(jobs).run(&cells, |cell| -> Result<_, BenchError> {
        let (r, c) = cell.data;
        let n = r * c;
        let g = generators::grid(r, c)?;
        let spec = ChurnSpec::new(2 * n, (n / 8).max(1), cell.key.seed);
        let s = replay_schedule(&g, &spec, false, &format!("churn {n}"))?;
        let ev = s.events.max(1) as f64;
        Ok((
            n.to_string(),
            vec![
                s.flips as f64 / ev,
                s.units as f64 / ev,
                s.settled as f64 / ev,
                s.repairs as f64,
                s.rebuilds as f64,
                s.height as f64,
            ],
        ))
    })?;
    Ok(FigureTable {
        title: "Amortized repair under churn \
                (§7: O(1) cluster updates per event per level)"
            .into(),
        x_label: "nodes".into(),
        columns: vec![
            "flips/event".into(),
            "units/event".into(),
            "settled/event".into(),
            "repairs".into(),
            "rebuilds".into(),
            "height".into(),
        ],
        rows,
    })
}

/// The CI `churn-smoke` job: three seeded schedules on a 10×10 grid
/// with the zero-divergence gate checked after **every** delta, plus a
/// short churn-enabled service soak whose coordinator mirror is
/// re-verified at quiescence. Fails on any divergence, a wrong query
/// answer, a soak without topology deltas, or fewer than 90 replay
/// events. Seconds-scale; every row is byte-identical for any `jobs`.
pub fn churn_smoke_table(jobs: usize) -> BenchResult {
    let g = generators::grid(10, 10)?;
    let seeds = [41u64, 42, 43];
    let cells: Vec<Keyed<u64>> = seeds
        .iter()
        .map(|&s| Keyed::new(CellKey::new("churn-smoke", 100, "repair", s), s))
        .collect();
    let stats = ParallelRunner::new(jobs).run(&cells, |cell| {
        let spec = ChurnSpec::new(30, 12, cell.data);
        replay_schedule(&g, &spec, true, &format!("churn-smoke seed {}", cell.data))
    })?;

    let (mut events, mut flips, mut units) = (0u64, 0u64, 0u64);
    let (mut repairs, mut rebuilds) = (0u64, 0u64);
    for s in &stats {
        events += s.events;
        flips += s.flips;
        units += s.units;
        repairs += s.repairs;
        rebuilds += s.rebuilds;
    }
    let ev = events.max(1) as f64;

    // A churn-enabled service soak: the coordinator absorbs topology
    // deltas through its hierarchy mirror while faults rage; run_service
    // fails hard if the mirror diverges from a quiescence rebuild.
    let mut stream = StreamSpec::new(100, 4_000, 0xC0FFEE);
    stream.churn_every = 40;
    let mut cfg = ServiceConfig::new(stream);
    cfg.shards = 4;
    cfg.jobs = jobs;
    cfg.batch = 128;
    cfg.faults = FaultConfig {
        seed: 7,
        drop_rate: 0.15,
        duplicate_rate: 0.05,
        delay_rate: 0.05,
        link_failure_rate: 0.02,
        crashes: 2,
        max_attempts: 8,
    };
    let bed = TestBed::grid(12, 12, stream.seed)?;
    let rep = run_service(&bed, &cfg)?.report;
    if rep.hier_divergence > 0 {
        return Err("churn-smoke: service mirror diverged".into());
    }
    if rep.topology_ops == 0 {
        return Err("churn-smoke: service stream carried no topology deltas".into());
    }
    if rep.queries_wrong > 0 {
        return Err(format!(
            "churn-smoke: service soak answered {} queries wrong",
            rep.queries_wrong
        )
        .into());
    }
    if events < 90 {
        return Err(format!("churn-smoke: only {events} replay events, expected ≥ 90").into());
    }

    Ok(FigureTable {
        title: format!(
            "Churn smoke: {} replay events across {} schedules \
             (divergence gate after every delta) + {}-op churn service soak",
            events,
            seeds.len(),
            stream.ops
        ),
        x_label: "metric".into(),
        columns: vec!["value".into()],
        rows: vec![
            ("replay_events".into(), vec![events as f64]),
            ("replay_flips_per_event".into(), vec![flips as f64 / ev]),
            ("replay_units_per_event".into(), vec![units as f64 / ev]),
            ("replay_repairs".into(), vec![repairs as f64]),
            ("replay_rebuilds".into(), vec![rebuilds as f64]),
            ("replay_divergence".into(), vec![0.0]),
            ("service_sent".into(), vec![rep.sent as f64]),
            ("service_topology_ops".into(), vec![rep.topology_ops as f64]),
            ("service_hier_repairs".into(), vec![rep.hier_repairs as f64]),
            (
                "service_hier_rebuilds".into(),
                vec![rep.hier_rebuilds as f64],
            ),
            (
                "service_hier_units".into(),
                vec![rep.hier_repair_units as f64],
            ),
            (
                "service_hier_divergence".into(),
                vec![rep.hier_divergence as f64],
            ),
            (
                "service_queries_wrong".into(),
                vec![rep.queries_wrong as f64],
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_repair_cost_is_constant_like() {
        let t = churn_table(0).unwrap();
        assert_eq!(t.rows.len(), 3);
        let flips = t.column("flips/event").unwrap();
        let heights = t.column("height").unwrap();
        for (f, h) in flips.iter().zip(heights) {
            assert!(*f > 0.0);
            // §7: O(1) flips per level — bounded by a small constant
            // times the hierarchy height.
            assert!(*f <= 4.0 * h, "flips/event {f} vs height {h}");
        }
        let rebuilds = t.column("rebuilds").unwrap();
        assert!(
            rebuilds.iter().all(|&x| x >= 0.0),
            "ledger decisions are reported"
        );
    }

    #[test]
    fn churn_smoke_gates_divergence_and_runs_the_service() {
        let t = churn_smoke_table(2).unwrap();
        let row = |name: &str| {
            t.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[0])
                .unwrap()
        };
        assert!(row("replay_events") >= 90.0, "3 schedules x 30 deltas");
        assert_eq!(row("replay_divergence"), 0.0);
        assert_eq!(row("service_hier_divergence"), 0.0);
        assert!(row("service_topology_ops") > 0.0);
        assert_eq!(row("service_queries_wrong"), 0.0);
    }
}
