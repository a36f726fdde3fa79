//! The `scenarios` / `scenarios-smoke` experiment family: the mobility
//! and workload scenario suite (DESIGN.md §18, EXPERIMENTS.md "Scenario
//! handbook").
//!
//! Five families, each a (workload × algorithm) sweep of deterministic
//! [`CellKey`]-seeded cells:
//!
//! * `waypoint` — shortest-path tours toward uniform waypoints,
//! * `levy` — heavy-tailed Lévy flights (`α = 1.6`),
//! * `hotspot` — rank-weighted flows onto 5 shared anchors,
//! * `zipf` — random-walk mobility with Zipf-skewed query popularity
//!   (skews 0 / 0.8 / 1.6) reported through the Jain-index path,
//! * `adversarial` — ping-pong movers pinned at each structure's
//!   empirically worst edge on a ring and a line (the tree baselines'
//!   lower-bound topologies, probed with *uniform* detection rates so
//!   the trees cannot foresee the adversary) and at the overlay's
//!   deepest cluster boundary on the grid.
//!
//! Every MOT cell additionally grounds two PAPERS.md comparisons: the
//! trajectory's greedy few-handover assignment (arXiv:1105.0392) and
//! the duty-cycled wake-up energy ledger it implies (arXiv:1108.1321).
//! `scenarios-smoke` reruns the whole suite at a fixed seconds-scale
//! spec, gates the qualitative claims in-code (Zipf skew-0 ⇒ Jain ≈ 1,
//! ping-pong tree blowup vs MOT, handover fraction ≤ 1), and soaks the
//! service loop on a scenario stream — all byte-identical across
//! `--jobs` (DESIGN.md §12).

use crate::figures::{all_correct, BenchError, BenchResult};
use crate::report::FigureTable;
use mot_baselines::DetectionRates;
use mot_core::dynamics::{min_handovers, EnergyLedger, EnergyModel};
use mot_core::ObjectId;
use mot_net::{DistanceOracle, NodeId};
use mot_sim::{
    query_batch, replay, run_publish, Algo, CellKey, Draw, FaultConfig, Keyed, LoadStats,
    MobilityModel, ParallelRunner, QueryModel, ServiceConfig, StreamSpec, TestBed, Workload,
    WorkloadSpec,
};

/// Bed/overlay seed shared by every scenario cell.
const BED_SEED: u64 = 12;
/// Salt separating the query-batch RNG stream from the workload stream.
const QUERY_SALT: u64 = 0x51_52_59;

/// Scale knobs of the scenario suite. The five families and their
/// parameters are fixed (they are the handbook's contract); profiles
/// only change workload sizes.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioProfile {
    /// Tracked objects per cell.
    pub objects: usize,
    /// Moves generated per object.
    pub moves_per_object: usize,
    /// Queries per cell.
    pub queries: usize,
    /// Grid shape for the non-adversarial families.
    pub grid: (usize, usize),
    /// Ring/line size for the adversarial family.
    pub adversarial_n: usize,
    /// Sensor coverage radius of the few-handover assignment
    /// (arXiv:1105.0392) — a sensor tracks positions within this
    /// distance without a handover.
    pub coverage_radius: f64,
    /// Worker-pool size (0 = one per hardware thread); tables are
    /// byte-identical for every value.
    pub jobs: usize,
}

impl ScenarioProfile {
    /// Seconds-scale sweep for local iteration.
    pub fn quick() -> Self {
        ScenarioProfile {
            objects: 6,
            moves_per_object: 40,
            queries: 120,
            grid: (10, 10),
            adversarial_n: 32,
            coverage_radius: 2.0,
            jobs: 0,
        }
    }

    /// The default sweep.
    pub fn standard() -> Self {
        ScenarioProfile {
            objects: 16,
            moves_per_object: 120,
            queries: 400,
            grid: (16, 16),
            adversarial_n: 64,
            coverage_radius: 2.0,
            jobs: 0,
        }
    }

    /// The publication-scale sweep.
    pub fn paper() -> Self {
        ScenarioProfile {
            objects: 40,
            moves_per_object: 300,
            queries: 1_000,
            grid: (16, 16),
            adversarial_n: 64,
            coverage_radius: 2.0,
            jobs: 0,
        }
    }

    /// The fixed CI smoke spec: `--profile` has no effect on it.
    pub fn smoke() -> Self {
        ScenarioProfile {
            objects: 4,
            moves_per_object: 30,
            // Enough queries that the skew-0 Zipf gate (Jain ≥ 0.97) has
            // ~100 expected hits per object — multinomial noise alone
            // keeps 4 objects × 80 queries down at Jain ≈ 0.95.
            queries: 400,
            grid: (10, 10),
            adversarial_n: 32,
            coverage_radius: 2.0,
            jobs: 0,
        }
    }

    /// Maps a `--profile` name onto a scenario scale.
    pub fn for_profile(name: &str) -> Result<Self, BenchError> {
        Ok(match name {
            "quick" => Self::quick(),
            "standard" => Self::standard(),
            "paper" => Self::paper(),
            other => return Err(format!("unknown profile '{other}' (quick|standard|paper)").into()),
        })
    }

    /// This profile with an explicit worker-pool size.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// What one (workload × algorithm) cell measures.
#[derive(Clone, Debug)]
struct CellRow {
    family: &'static str,
    label: String,
    maint_ratio: f64,
    query_ratio: f64,
    max_load: f64,
    jain_node: f64,
    /// Jain index of per-object query popularity (≈ 1 when uniform).
    jain_pop: f64,
    /// Few-handover segments / naive per-hop wake-ups (MOT cells only).
    handover_frac: f64,
    /// Energy saved by the few-handover duty cycle, percent (MOT only).
    energy_saved_pct: f64,
}

/// One cell's work order.
#[derive(Clone)]
enum CellSpec {
    Mobility {
        family: &'static str,
        model: MobilityModel,
        algo: Algo,
    },
    Zipf {
        skew: f64,
        algo: Algo,
    },
    Adversarial {
        topo: &'static str,
        algo: Algo,
    },
}

/// The greedy few-handover assignment and its energy ledger over one
/// workload (both arXiv comparisons are workload-intrinsic, so they are
/// computed once, in the MOT cell).
fn handover_energy(
    w: &Workload,
    oracle: &dyn DistanceOracle,
    radius: f64,
    optimal_total: f64,
) -> (f64, f64) {
    let mut trajs: Vec<Vec<NodeId>> = w.initial.iter().map(|&p| vec![p]).collect();
    for m in &w.moves {
        trajs[m.object.index()].push(m.to);
    }
    let segments: u64 = trajs
        .iter()
        .map(|t| min_handovers(t, oracle, radius) as u64)
        .sum();
    let moves = w.moves.len() as u64;
    if moves == 0 {
        return (0.0, 0.0);
    }
    let model = EnergyModel::default();
    // Naive duty cycle: wake the detecting sensor on every hop.
    let mut naive = EnergyLedger::default();
    naive.record_wakeups(moves);
    naive.record_tx(optimal_total);
    // Few-handover duty cycle: wake one sensor per greedy segment; the
    // update traffic itself is unchanged.
    let mut few = EnergyLedger::default();
    few.record_wakeups(segments);
    few.record_tx(optimal_total);
    (
        segments as f64 / moves as f64,
        few.saving_over(&naive, &model) * 100.0,
    )
}

/// Generates the cell's workload, drives `algo` through it, and scores
/// maintenance, queries (under `qmodel`), and per-node load.
#[allow(clippy::too_many_arguments)]
fn tracked_run(
    p: &ScenarioProfile,
    bed: &TestBed,
    family: &'static str,
    label: String,
    model: MobilityModel,
    algo: Algo,
    qmodel: QueryModel,
    uniform_rates: bool,
    seed: u64,
) -> Result<CellRow, BenchError> {
    let w = WorkloadSpec {
        objects: p.objects,
        moves_per_object: p.moves_per_object,
        model,
        seed,
    }
    .generate(&bed.graph);
    // The adversarial family hands the trees *uniform* rates: the
    // adversary attacks a structure that could not foresee it. Every
    // other family keeps the usual traffic-conscious construction.
    let rates = if uniform_rates {
        DetectionRates::uniform(&bed.graph)
    } else {
        DetectionRates::from_moves(&bed.graph, &w.move_pairs())
    };
    let mut t = bed.make_tracker(algo, &rates)?;
    run_publish(t.as_mut(), &w)?;
    let maint = replay(t.as_mut(), &w, &*bed.oracle, None)?.cost;
    let q = query_batch(
        t.as_mut(),
        &*bed.oracle,
        p.objects,
        p.queries,
        seed ^ QUERY_SALT,
        Draw::Model(qmodel),
        None,
    )?;
    all_correct(&format!("{family}/{label}"), q.correct, p.queries)?;
    let loads = LoadStats::from_loads(&t.node_loads());
    let (handover_frac, energy_saved_pct) = if algo == Algo::Mot {
        handover_energy(&w, &*bed.oracle, p.coverage_radius, maint.optimal)
    } else {
        (0.0, 0.0)
    };
    Ok(CellRow {
        family,
        label,
        maint_ratio: maint.ratio(),
        query_ratio: q.cost.ratio(),
        max_load: loads.max as f64,
        jain_node: loads.jain_index,
        jain_pop: q.popularity_jain(),
        handover_frac,
        energy_saved_pct,
    })
}

/// Probes every edge of the bed for the structure's empirical
/// worst-case unit move: fresh tracker, publish at `u`, move `u → v`,
/// take the argmax cost/dist (first maximum — deterministic). This is
/// the constructive side of the lower-bound argument: for any fixed
/// tree some adjacent pair pays Ω(n), and the probe finds that pair
/// without peeking at the structure's internals.
fn worst_edge(
    bed: &TestBed,
    algo: Algo,
    rates: &DetectionRates,
) -> Result<(NodeId, NodeId), BenchError> {
    let mut best: Option<(f64, NodeId, NodeId)> = None;
    for u in bed.graph.nodes() {
        for &v in bed.graph.neighbors(u) {
            if u >= v {
                continue;
            }
            let mut t = bed.make_tracker(algo, rates)?;
            t.publish(ObjectId(0), u)?;
            let out = t.move_object(ObjectId(0), v)?;
            let stretch = out.cost / bed.oracle.dist(u, v).max(1e-9);
            if best.map(|(bs, _, _)| stretch > bs).unwrap_or(true) {
                best = Some((stretch, u, v));
            }
        }
    }
    let (_, a, b) = best.ok_or("adversarial probe: graph has no edges")?;
    Ok((a, b))
}

fn run_cell(p: &ScenarioProfile, cell: &Keyed<CellSpec>) -> Result<CellRow, BenchError> {
    let seed = cell.key.seed;
    match &cell.data {
        CellSpec::Mobility {
            family,
            model,
            algo,
        } => {
            let bed = TestBed::grid(p.grid.0, p.grid.1, BED_SEED)?;
            tracked_run(
                p,
                &bed,
                family,
                algo.label().to_string(),
                *model,
                *algo,
                QueryModel::Uniform,
                false,
                seed,
            )
        }
        CellSpec::Zipf { skew, algo } => {
            let bed = TestBed::grid(p.grid.0, p.grid.1, BED_SEED)?;
            tracked_run(
                p,
                &bed,
                "zipf",
                format!("s={:.1}/{}", skew, algo.label()),
                MobilityModel::RandomWalk,
                *algo,
                QueryModel::zipf(*skew),
                false,
                seed,
            )
        }
        CellSpec::Adversarial { topo, algo } => {
            let bed = match *topo {
                "ring" => TestBed::ring(p.adversarial_n, BED_SEED)?,
                "line" => TestBed::line(p.adversarial_n, BED_SEED)?,
                _ => TestBed::grid(p.grid.0, p.grid.1, BED_SEED)?,
            };
            let rates = DetectionRates::uniform(&bed.graph);
            // Grid: pin the mover at the overlay's deepest cluster
            // boundary (MOT's own worst cut). Ring/line: probe the
            // structure under attack for its worst edge.
            let (a, b) = if *topo == "grid" {
                bed.boundary_pair()
            } else {
                worst_edge(&bed, *algo, &rates)?
            };
            tracked_run(
                p,
                &bed,
                "adversarial",
                format!("{topo}/{}", algo.label()),
                MobilityModel::ping_pong(a, b),
                *algo,
                QueryModel::Uniform,
                true,
                seed,
            )
        }
    }
}

/// The suite's cell plan: five families, fixed parameters, seeded per
/// cell through [`CellKey`] so the sweep is deterministic and
/// jobs-invariant.
fn plan_cells(p: &ScenarioProfile) -> Vec<Keyed<CellSpec>> {
    let n = p.grid.0 * p.grid.1;
    let mut cells = Vec::new();
    let mobility: [(&'static str, MobilityModel); 3] = [
        ("waypoint", MobilityModel::Waypoint),
        ("levy", MobilityModel::levy(1.6)),
        ("hotspot", MobilityModel::hotspot(5, 0.8)),
    ];
    for (family, model) in mobility {
        for algo in [Algo::Mot, Algo::Stun, Algo::Zdat] {
            cells.push(Keyed::new(
                CellKey::new(format!("scenarios/{family}"), n, algo.label(), 31),
                CellSpec::Mobility {
                    family,
                    model,
                    algo,
                },
            ));
        }
    }
    for skew in [0.0, 0.8, 1.6] {
        for algo in [Algo::Mot, Algo::Stun] {
            cells.push(Keyed::new(
                CellKey::new(format!("scenarios/zipf/s={skew:.1}"), n, algo.label(), 33),
                CellSpec::Zipf { skew, algo },
            ));
        }
    }
    for topo in ["ring", "line", "grid"] {
        let size = if topo == "grid" { n } else { p.adversarial_n };
        for algo in [Algo::Mot, Algo::Stun] {
            cells.push(Keyed::new(
                CellKey::new(
                    format!("scenarios/adversarial/{topo}"),
                    size,
                    algo.label(),
                    37,
                ),
                CellSpec::Adversarial { topo, algo },
            ));
        }
    }
    cells
}

/// Runs the whole sweep and returns its rows in canonical cell order.
fn scenario_cells(p: &ScenarioProfile) -> Result<Vec<CellRow>, BenchError> {
    let cells = plan_cells(p);
    ParallelRunner::new(p.jobs).run(&cells, |cell| run_cell(p, cell))
}

/// Looks up the sweep row of `family` whose label is `label`.
fn pick<'r>(rows: &'r [CellRow], family: &str, label: &str) -> Result<&'r CellRow, BenchError> {
    rows.iter()
        .find(|r| r.family == family && r.label == label)
        .ok_or_else(|| format!("scenario sweep produced no row {family}/{label}").into())
}

const DETAIL_COLUMNS: [&str; 5] = [
    "maint_ratio",
    "query_ratio",
    "max_load",
    "jain_node",
    "jain_pop",
];

fn detail_table(title: String, rows: &[CellRow], family: &str) -> FigureTable {
    FigureTable {
        title,
        x_label: "workload/algo".into(),
        columns: DETAIL_COLUMNS.iter().map(|c| c.to_string()).collect(),
        rows: rows
            .iter()
            .filter(|r| r.family == family)
            .map(|r| {
                (
                    r.label.clone(),
                    vec![
                        r.maint_ratio,
                        r.query_ratio,
                        r.max_load,
                        r.jain_node,
                        r.jain_pop,
                    ],
                )
            })
            .collect(),
    }
}

/// The `scenarios` experiment: runs the five-family sweep and returns
/// one detail table per family plus the cross-family summary, as
/// `(experiment id, table)` pairs with the summary (`"scenarios"`)
/// last. The summary compares MOT against STUN on each family's
/// representative workload and carries the arXiv:1105.0392 handover
/// fraction and arXiv:1108.1321 energy saving of the MOT run.
pub fn scenario_tables(p: &ScenarioProfile) -> Result<Vec<(String, FigureTable)>, BenchError> {
    let rows = scenario_cells(p)?;
    let mut out = Vec::new();
    for (family, what) in [
        ("waypoint", "shortest-path tours, uniform waypoints"),
        ("levy", "Lévy flights, α = 1.6"),
        (
            "hotspot",
            "rank-weighted flows onto 5 anchors, locality 0.8",
        ),
        ("zipf", "random walk + Zipf query popularity"),
        ("adversarial", "ping-pong at each structure's worst cut"),
    ] {
        out.push((
            format!("scenarios-{family}"),
            detail_table(format!("Scenario '{family}' ({what})"), &rows, family),
        ));
    }
    // Representative pairs per family for the summary: the MOT and STUN
    // cells of the family's headline variant.
    let reps: [(&str, &str, &str); 5] = [
        ("waypoint", "MOT", "STUN"),
        ("levy", "MOT", "STUN"),
        ("hotspot", "MOT", "STUN"),
        ("zipf", "s=1.6/MOT", "s=1.6/STUN"),
        ("adversarial", "ring/MOT", "ring/STUN"),
    ];
    let mut summary_rows = Vec::new();
    for (family, mot_label, tree_label) in reps {
        let mot = pick(&rows, family, mot_label)?;
        let tree = pick(&rows, family, tree_label)?;
        summary_rows.push((
            family.to_string(),
            vec![
                mot.maint_ratio,
                tree.maint_ratio,
                tree.maint_ratio / mot.maint_ratio,
                mot.jain_pop,
                mot.handover_frac,
                mot.energy_saved_pct,
            ],
        ));
    }
    out.push((
        "scenarios".to_string(),
        FigureTable {
            title: format!(
                "Scenario suite summary: MOT vs STUN per family \
                 ({} objects × {} moves, {} queries)",
                p.objects, p.moves_per_object, p.queries
            ),
            x_label: "family".into(),
            columns: vec![
                "mot_maint".into(),
                "tree_maint".into(),
                "tree_over_mot".into(),
                "jain_pop".into(),
                "handover_frac".into(),
                "energy_saved_pct".into(),
            ],
            rows: summary_rows,
        },
    ));
    Ok(out)
}

/// The CI `scenarios-smoke` job: the full five-family sweep at a fixed
/// seconds-scale spec with the handbook's qualitative claims gated
/// in-code, plus a faulty service soak on a scenario stream (waypoint
/// mobility × Zipf queries) whose zero-silent-loss accounting is
/// re-gated. Every row is byte-identical for any `jobs`.
pub fn scenarios_smoke_table(jobs: usize) -> BenchResult {
    let p = ScenarioProfile::smoke().with_jobs(jobs);
    let rows = scenario_cells(&p)?;
    for r in &rows {
        if r.maint_ratio < 1.0 - 1e-9 {
            return Err(format!(
                "scenarios-smoke: {}/{} beat the optimal maintenance cost ({})",
                r.family, r.label, r.maint_ratio
            )
            .into());
        }
    }
    let families: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.family).collect();
    if families.len() != 5 {
        return Err(format!("scenarios-smoke: expected 5 families, saw {families:?}").into());
    }

    // Zipf sanity: skew 0 is uniform (Jain ≈ 1) and skew concentrates.
    let jain_uniform = pick(&rows, "zipf", "s=0.0/MOT")?.jain_pop;
    let jain_skewed = pick(&rows, "zipf", "s=1.6/MOT")?.jain_pop;
    if jain_uniform < 0.97 {
        return Err(format!("scenarios-smoke: skew-0 Zipf Jain {jain_uniform} ≉ 1").into());
    }
    if jain_skewed > jain_uniform - 0.1 {
        return Err(format!(
            "scenarios-smoke: skew 1.6 did not concentrate queries \
             (Jain {jain_skewed} vs uniform {jain_uniform})"
        )
        .into());
    }

    // Ping-pong adversary: the probed tree pays a multiple of MOT on
    // the ring (the tree's missing ring edge costs the circumference).
    let ring_mot = pick(&rows, "adversarial", "ring/MOT")?.maint_ratio;
    let ring_tree = pick(&rows, "adversarial", "ring/STUN")?.maint_ratio;
    let blowup = ring_tree / ring_mot;
    if blowup < 2.0 {
        return Err(format!(
            "scenarios-smoke: ring adversary blowup {blowup:.2} \
             (STUN {ring_tree:.2} vs MOT {ring_mot:.2}) — expected ≥ 2"
        )
        .into());
    }

    // Few-handover + energy claims on the waypoint family's MOT run.
    let way = pick(&rows, "waypoint", "MOT")?;
    if !(way.handover_frac > 0.0 && way.handover_frac <= 1.0) {
        return Err(format!(
            "scenarios-smoke: handover fraction {} outside (0, 1]",
            way.handover_frac
        )
        .into());
    }
    if way.energy_saved_pct < 0.0 {
        return Err(format!(
            "scenarios-smoke: few-handover duty cycle lost energy ({}%)",
            way.energy_saved_pct
        )
        .into());
    }

    // Service soak on a scenario stream: waypoint flights and Zipf
    // query popularity through the sharded loop under faults — the
    // stream/service threading the tentpole adds, end to end.
    let stream = StreamSpec::new(40, 2_000, 0x5C_E2)
        .with_mobility(MobilityModel::Waypoint)
        .with_query_model(QueryModel::zipf(1.2));
    let mut cfg = ServiceConfig::new(stream);
    cfg.shards = 4;
    cfg.jobs = jobs;
    cfg.batch = 128;
    cfg.faults = FaultConfig {
        seed: 7,
        drop_rate: 0.1,
        duplicate_rate: 0.05,
        delay_rate: 0.05,
        link_failure_rate: 0.01,
        crashes: 1,
        max_attempts: 8,
    };
    let bed = TestBed::grid(10, 10, stream.seed)?;
    let rep = mot_sim::run_service(&bed, &cfg)?.report;
    if rep.queries_wrong > 0 {
        return Err("scenarios-smoke: scenario service soak answered queries wrong".into());
    }
    if rep.sent != stream.ops {
        return Err(format!(
            "scenarios-smoke: service soak sent {} of {} ops",
            rep.sent, stream.ops
        )
        .into());
    }

    let mut table_rows = vec![("families_run".to_string(), vec![families.len() as f64])];
    for (family, mot_label, tree_label) in [
        ("waypoint", "MOT", "STUN"),
        ("levy", "MOT", "STUN"),
        ("hotspot", "MOT", "STUN"),
        ("zipf", "s=1.6/MOT", "s=1.6/STUN"),
        ("adversarial", "ring/MOT", "ring/STUN"),
    ] {
        let mot = pick(&rows, family, mot_label)?;
        let tree = pick(&rows, family, tree_label)?;
        table_rows.push((format!("{family}_mot_maint"), vec![mot.maint_ratio]));
        table_rows.push((
            format!("{family}_tree_over_mot"),
            vec![tree.maint_ratio / mot.maint_ratio],
        ));
    }
    table_rows.push(("zipf_jain_uniform".into(), vec![jain_uniform]));
    table_rows.push(("zipf_jain_skewed".into(), vec![jain_skewed]));
    table_rows.push(("pingpong_blowup".into(), vec![blowup]));
    table_rows.push(("handover_frac".into(), vec![way.handover_frac]));
    table_rows.push(("energy_saved_pct".into(), vec![way.energy_saved_pct]));
    table_rows.push(("service_sent".into(), vec![rep.sent as f64]));
    table_rows.push(("service_lost".into(), vec![rep.lost as f64]));
    table_rows.push((
        "service_queries_wrong".into(),
        vec![rep.queries_wrong as f64],
    ));

    Ok(FigureTable {
        title: format!(
            "Scenarios smoke: 5 families × fixed spec ({} objects × {} moves) \
             + {}-op scenario service soak",
            p.objects, p.moves_per_object, stream.ops
        ),
        x_label: "metric".into(),
        columns: vec!["value".into()],
        rows: table_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render_all(tables: &[(String, FigureTable)]) -> String {
        tables
            .iter()
            .map(|(id, t)| format!("== {id} ==\n{}", t.render()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn scenario_sweep_is_deterministic_and_jobs_invariant() {
        let one = scenario_tables(&ScenarioProfile::smoke().with_jobs(1)).unwrap();
        let four = scenario_tables(&ScenarioProfile::smoke().with_jobs(4)).unwrap();
        assert_eq!(
            render_all(&one),
            render_all(&four),
            "scenario tables must be byte-identical across --jobs"
        );
        let again = scenario_tables(&ScenarioProfile::smoke().with_jobs(1)).unwrap();
        assert_eq!(render_all(&one), render_all(&again));
    }

    #[test]
    fn scenario_tables_cover_all_five_families_plus_summary() {
        let tables = scenario_tables(&ScenarioProfile::smoke()).unwrap();
        let ids: Vec<&str> = tables.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "scenarios-waypoint",
                "scenarios-levy",
                "scenarios-hotspot",
                "scenarios-zipf",
                "scenarios-adversarial",
                "scenarios",
            ]
        );
        let (_, summary) = tables.last().unwrap();
        assert_eq!(summary.rows.len(), 5, "one summary row per family");
        for (_, vals) in &summary.rows {
            assert!(vals[0] >= 1.0, "MOT maintenance ratio below optimal");
            assert!(vals[1] >= 1.0, "tree maintenance ratio below optimal");
        }
    }

    #[test]
    fn zipf_family_reports_the_skew_through_jain() {
        let p = ScenarioProfile::smoke();
        let rows = scenario_cells(&p).unwrap();
        let uniform = pick(&rows, "zipf", "s=0.0/MOT").unwrap().jain_pop;
        let skewed = pick(&rows, "zipf", "s=1.6/MOT").unwrap().jain_pop;
        assert!(uniform > 0.97, "skew-0 popularity Jain {uniform} ≉ 1");
        assert!(
            skewed < uniform - 0.1,
            "skew 1.6 Jain {skewed} vs uniform {uniform}"
        );
    }

    #[test]
    fn ping_pong_adversary_blows_up_the_tree_but_not_mot() {
        let p = ScenarioProfile::smoke();
        let rows = scenario_cells(&p).unwrap();
        let mot = pick(&rows, "adversarial", "ring/MOT").unwrap().maint_ratio;
        let tree = pick(&rows, "adversarial", "ring/STUN").unwrap().maint_ratio;
        assert!(
            tree / mot >= 2.0,
            "ring adversary: STUN {tree:.2} vs MOT {mot:.2} — no blowup"
        );
        // MOT stays within its hierarchy bound even at its own worst
        // cut (the grid boundary-pair case).
        let grid_mot = pick(&rows, "adversarial", "grid/MOT").unwrap().maint_ratio;
        assert!(
            grid_mot < tree,
            "MOT at its worst cut ({grid_mot:.2}) must stay below the \
             tree's ring blowup ({tree:.2})"
        );
    }

    #[test]
    fn smoke_table_carries_the_gated_metrics() {
        let t = scenarios_smoke_table(2).unwrap();
        let row = |name: &str| {
            t.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[0])
                .unwrap_or_else(|| panic!("missing smoke row {name}"))
        };
        assert_eq!(row("families_run"), 5.0);
        assert!(row("pingpong_blowup") >= 2.0);
        assert!(row("zipf_jain_uniform") >= 0.97);
        assert!(row("zipf_jain_skewed") < row("zipf_jain_uniform"));
        assert!(row("handover_frac") > 0.0 && row("handover_frac") <= 1.0);
        assert!(row("energy_saved_pct") >= 0.0);
        assert_eq!(row("service_queries_wrong"), 0.0);
    }
}
