//! Runners that regenerate the paper's tables and figures.
//!
//! Every sweep-shaped figure family fans its *(grid × seed × algorithm)*
//! cells out on a [`ParallelRunner`] and folds the per-cell statistics
//! back in canonical cell order, so tables are bit-identical whatever
//! `Profile::jobs` says (DESIGN.md §12). The instrumented single-run
//! paths (`level-decomp`, `--trace`, `--metrics` aggregates) stay
//! sequential — they are one fixed-seed run by construction.
//!
//! The cells of a sweep differ in the algorithm and share everything
//! else, so the five sweep-shaped runners (`figure_pair`, `load_figure`,
//! `locality_table`, `mobility_table`, `faults_table`) take their graph,
//! distance backend, overlay, workload and detection rates from one
//! `SharedInputs` per call (`shared.rs`): built once per grid or per
//! (grid, seed) by whichever worker needs them first, dropped when that
//! grid's last cell is done. A cell instantiates only its tracker. Each
//! of the five returns its table(s) with where the time went
//! ([`SweepPhases`]).
//!
//! The paper measures maintenance (Figs. 4/5, 12/13) and queries after
//! the maintenance workload (Figs. 6/7, 14/15) on the same runs, so a
//! maintenance figure is the maintenance half of its query figure's
//! sweep: [`figure_pair`] runs the sweep once, with or without the
//! queries, and reduces it to one table or both. [`maintenance_figure`]
//! runs it without queries and [`query_figure`] with them.

use crate::profiling::{Laps, SweepPhases, CELL_PHASES, INPUTS, PUBLISH, QUERIES, RUN, TRACKER};
use crate::report::{BedMemory, FigureTable};
use crate::shared::{CellInputs, InputSpec, SharedInputs};
use mot_baselines::DetectionRates;
use mot_core::{LedgerKind, MemorySink, MotConfig, MotTracker, TraceEvent, TraceSink, Tracker};
use mot_hierarchy::OverlayConfig;
use mot_net::{generators, CacheLedger, DistanceOracle, OracleKind};
use mot_sim::{
    graph_center, query_batch, repair_all, replay, run_publish, unrepaired_objects, Algo, CellKey,
    ConcurrentConfig, ConcurrentEngine, CostStats, Draw, FaultConfig, Keyed, LoadStats,
    ParallelRunner, Recorder, TestBed, TraceAggregates, WorkloadSpec,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;
use std::time::Instant;

/// Errors a figure run can surface: tracker/simulation failures plus the
/// runners' own sanity checks (e.g. a query batch answering wrong).
/// `Send + Sync` so cell failures cross worker-thread boundaries intact.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// Every runner returns the table or a readable error — the
/// `experiments` binary turns these into a nonzero exit, not a panic.
pub type BenchResult = Result<FigureTable, BenchError>;

/// Workload scale for a figure run.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Tracked objects per repetition.
    pub objects: usize,
    /// Moves per object per repetition.
    pub moves_per_object: usize,
    /// Repetitions averaged (the paper averages 5).
    pub seeds: u64,
    /// Queries per repetition for the query figures.
    pub queries: usize,
    /// Grid sizes swept (paper: ~10 → 1024 nodes).
    pub grids: Vec<(usize, usize)>,
    /// Distance backend every bed in the run is built on.
    pub oracle: OracleKind,
    /// Worker threads for the cell fan-out (0 = one per hardware
    /// thread). Output is bit-identical for any value — see DESIGN.md
    /// §12 — so this is purely a wall-clock knob.
    pub jobs: usize,
}

impl Profile {
    /// Seconds-scale smoke profile (integration tests, criterion).
    pub fn quick(objects: usize) -> Self {
        Profile {
            objects,
            moves_per_object: 30,
            seeds: 2,
            queries: 100,
            grids: vec![(3, 3), (6, 6), (10, 10)],
            oracle: OracleKind::Auto,
            jobs: 0,
        }
    }

    /// Minutes-scale profile covering the full grid sweep.
    pub fn standard(objects: usize) -> Self {
        Profile {
            objects,
            moves_per_object: 200,
            seeds: 3,
            queries: 500,
            grids: generators::paper_grid_sizes(),
            oracle: OracleKind::Auto,
            jobs: 0,
        }
    }

    /// The paper's full scale: 1000 moves/object, 5 repetitions.
    pub fn paper(objects: usize) -> Self {
        Profile {
            objects,
            moves_per_object: 1000,
            seeds: 5,
            queries: 1000,
            grids: generators::paper_grid_sizes(),
            oracle: OracleKind::Auto,
            jobs: 0,
        }
    }

    /// Same profile on an explicit distance backend.
    pub fn with_oracle(mut self, kind: OracleKind) -> Self {
        self.oracle = kind;
        self
    }

    /// Same profile with an explicit fan-out width (0 = auto).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The cell fan-out engine this profile asks for.
    fn runner(&self) -> ParallelRunner {
        ParallelRunner::new(self.jobs)
    }
}

fn lineup() -> Vec<Algo> {
    Algo::paper_lineup().to_vec()
}

/// Fans `cells` out on the profile's runner over `shared` and times the
/// sweep. Each cell is handed the inputs `slot_of` names — asked for
/// here, exactly once per cell, which is what lets an input count its
/// users down — and runs `f` on them. Timings: every cell's own wall
/// clock and [`Laps`], folded per algorithm (the cells' `key.algo`, in
/// first-seen order), next to what `shared` spent building.
/// `run_phase` names the [`RUN`] lap.
fn run_sweep<C: Sync, T: Send>(
    p: &Profile,
    run_phase: &str,
    shared: &SharedInputs,
    cells: &[Keyed<C>],
    slot_of: impl Fn(&C) -> (usize, usize) + Sync,
    f: impl Fn(&C, &CellInputs, &mut Laps) -> Result<T, BenchError> + Sync,
) -> Result<(Vec<T>, SweepPhases), BenchError> {
    let runner = p.runner();
    let wall = Instant::now();
    let timed = runner.run(cells, |cell| -> Result<_, BenchError> {
        let began = Instant::now();
        let mut laps = Laps::start();
        let (grid, spec) = slot_of(&cell.data);
        let inp = shared.cell(grid, spec)?;
        laps.lap(INPUTS);
        let out = f(&cell.data, &inp, &mut laps)?;
        Ok((out, laps.secs, began.elapsed().as_secs_f64()))
    })?;
    let wall_secs = wall.elapsed().as_secs_f64();

    let mut algos: Vec<String> = Vec::new();
    let mut by_algo: Vec<[f64; CELL_PHASES]> = Vec::new();
    let mut cell_secs = 0.0;
    let mut results = Vec::with_capacity(timed.len());
    for (cell, (out, laps, secs)) in cells.iter().zip(timed) {
        let col = algos
            .iter()
            .position(|a| *a == cell.key.algo)
            .unwrap_or_else(|| {
                algos.push(cell.key.algo.clone());
                by_algo.push([0.0; CELL_PHASES]);
                algos.len() - 1
            });
        for (acc, lap) in by_algo[col].iter_mut().zip(laps) {
            *acc += lap;
        }
        cell_secs += secs;
        results.push(out);
    }
    // Families that fold extra coordinates into the key (`mobility/…`,
    // `faults/…`) are one sweep: title it by the family.
    let figure = cells
        .first()
        .and_then(|c| c.key.figure.split('/').next())
        .unwrap_or_default();
    let names = ["inputs", "tracker", "publish", run_phase, "queries"];
    let phases = SweepPhases {
        title: format!("{figure} sweep, {} cells", cells.len()),
        jobs: runner.jobs().min(cells.len()).max(1),
        wall_secs,
        cell_secs,
        shared: shared.build_secs(),
        algos,
        per_algo: names
            .iter()
            .enumerate()
            .map(|(k, name)| (name.to_string(), by_algo.iter().map(|a| a[k]).collect()))
            .collect(),
    };
    Ok((results, phases))
}

/// A cell of the grid × seed × algorithm sweeps: `(grid index, seed,
/// algorithm)`.
type SweepCell = Keyed<(usize, u64, Algo)>;

/// The sweep-shaped figures share one cell layout — grid-major, then
/// seed, then algorithm — mirroring the historical sequential loop
/// nesting, so the canonical merge below reproduces its exact
/// floating-point accumulation order. The inputs are one [`InputSpec`]
/// per seed, each asked for by one cell per algorithm.
fn sweep_cells(p: &Profile, figure: &str, algos: &[Algo]) -> (SharedInputs, Vec<SweepCell>) {
    let specs = (0..p.seeds)
        .map(|seed| InputSpec {
            overlay_seed: seed,
            workload: WorkloadSpec::new(p.objects, p.moves_per_object, seed * 7 + 1),
        })
        .collect();
    let shared = SharedInputs::new(p.oracle, &p.grids, specs, algos.len());
    let mut cells = Vec::with_capacity(p.grids.len() * p.seeds as usize * algos.len());
    for (gi, &(r, c)) in p.grids.iter().enumerate() {
        for seed in 0..p.seeds {
            for &algo in algos {
                cells.push(Keyed::new(
                    CellKey::new(figure, r * c, algo.label(), seed),
                    (gi, seed, algo),
                ));
            }
        }
    }
    (shared, cells)
}

/// Folds per-cell stats from [`sweep_cells`] order back into one
/// accumulator per (grid, algorithm), merging seeds in ascending order —
/// the canonical order that keeps output independent of worker count.
fn merge_sweep(
    p: &Profile,
    algo_count: usize,
    results: Vec<CostStats>,
) -> Result<Vec<Vec<CostStats>>, BenchError> {
    let mut per_grid = Vec::with_capacity(p.grids.len());
    let mut it = results.into_iter();
    for _ in &p.grids {
        let mut per_algo = vec![CostStats::default(); algo_count];
        for _seed in 0..p.seeds {
            for acc in per_algo.iter_mut() {
                acc.merge(&it.next().ok_or("sweep returned fewer results than cells")?);
            }
        }
        per_grid.push(per_algo);
    }
    Ok(per_grid)
}

/// Fails a cell whose batch answered any of its `issued` queries wrong.
pub(crate) fn all_correct(what: &str, correct: usize, issued: usize) -> Result<(), BenchError> {
    if correct == issued {
        return Ok(());
    }
    Err(format!(
        "{what}: {}/{issued} queries answered wrong",
        issued - correct
    )
    .into())
}

/// One cell of a figure pair: publish, then the workload one by one or
/// through the concurrent engine, then the queries if `queries` asks
/// for them — after the replay, or racing the engine's maintenance
/// batches (§4.2.2). Returns the maintenance and the query costs (the
/// latter empty without queries). Wrong answers fail the cell.
fn pair_cell(
    p: &Profile,
    inp: &CellInputs,
    algo: Algo,
    seed: u64,
    concurrent: bool,
    queries: bool,
    laps: &mut Laps,
) -> Result<(CostStats, CostStats), BenchError> {
    let w = &inp.drawn.workload;
    let mut t = inp.tracker(algo)?;
    laps.lap(TRACKER);
    run_publish(t.as_mut(), w)?;
    laps.lap(PUBLISH);
    if concurrent {
        let cfg = ConcurrentConfig {
            max_inflight_per_object: 10,
            queries_per_batch: queries as usize,
            seed,
        };
        let out = ConcurrentEngine::run(t.as_mut(), w, inp.oracle(), &cfg)?;
        laps.lap(RUN);
        let what = format!("{} concurrent", algo.label());
        all_correct(&what, out.queries_correct, out.queries_issued)?;
        return Ok((out.maintenance, out.queries));
    }
    let maintenance = replay(t.as_mut(), w, inp.oracle(), None)?.cost;
    laps.lap(RUN);
    if !queries {
        return Ok((maintenance, CostStats::default()));
    }
    let q = query_batch(
        t.as_mut(),
        inp.oracle(),
        p.objects,
        p.queries,
        seed + 31,
        Draw::UNIFORM,
        None,
    )?;
    laps.lap(QUERIES);
    all_correct(algo.label(), q.correct, p.queries)?;
    Ok((maintenance, q.cost))
}

/// What [`figure_pair`] returns: one sweep's maintenance table, its
/// query table when the sweep ran the queries, and where its time went.
pub struct FigurePair {
    /// Fig. 4, 5, 12 or 13.
    pub maintenance: FigureTable,
    /// Fig. 6, 7, 14 or 15; `None` when the sweep ran no queries.
    pub query: Option<FigureTable>,
    /// The sweep's timings.
    pub phases: SweepPhases,
}

/// Figs. 4/5 (one-by-one) and 12/13 (concurrent), the maintenance cost
/// ratio across network sizes, and, when `queries`, Figs. 6/7 and 14/15
/// on the same runs: the query cost ratio after (or, concurrently,
/// during) the maintenance workload. One sweep, two reductions.
pub fn figure_pair(p: &Profile, concurrent: bool, queries: bool) -> Result<FigurePair, BenchError> {
    let algos = lineup();
    let figure = match (queries, concurrent) {
        (false, false) => "maint",
        (false, true) => "maint-conc",
        (true, false) => "query",
        (true, true) => "query-conc",
    };
    let (shared, cells) = sweep_cells(p, figure, &algos);
    let (results, phases) = run_sweep(
        p,
        if concurrent { "engine" } else { "replay" },
        &shared,
        &cells,
        |&(grid, seed, _)| (grid, seed as usize),
        |&(_, seed, algo), inp, laps| pair_cell(p, inp, algo, seed, concurrent, queries, laps),
    )?;
    let (maintenance, query): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    // A query figure's number is two past its maintenance figure's.
    let fig = match (concurrent, p.objects >= 1000) {
        (false, false) => 4,
        (false, true) => 5,
        (true, false) => 12,
        (true, true) => 13,
    };
    let execution = if concurrent {
        "concurrent"
    } else {
        "one-by-one"
    };
    let table = |what: &str, fig: u32, stats, reduce: fn(&CostStats) -> f64| -> BenchResult {
        let rows = p
            .grids
            .iter()
            .zip(merge_sweep(p, algos.len(), stats)?)
            .map(|(&(r, c), per_algo)| ((r * c).to_string(), per_algo.iter().map(reduce).collect()))
            .collect();
        Ok(FigureTable {
            title: format!(
                "{what} cost ratio, {} objects, {execution} execution (paper Fig. {fig})",
                p.objects
            ),
            x_label: "nodes".into(),
            columns: algos.iter().map(|a| a.label().to_string()).collect(),
            rows,
        })
    };
    Ok(FigurePair {
        maintenance: table("Maintenance", fig, maintenance, CostStats::ratio)?,
        query: if queries {
            Some(table("Query", fig + 2, query, CostStats::mean_ratio)?)
        } else {
            None
        },
        phases,
    })
}

/// The maintenance half of [`figure_pair`], run without queries.
pub fn maintenance_figure(p: &Profile, concurrent: bool) -> BenchResult {
    Ok(figure_pair(p, concurrent, false)?.maintenance)
}

/// The query half of [`figure_pair`].
pub fn query_figure(p: &Profile, concurrent: bool) -> BenchResult {
    figure_pair(p, concurrent, true)?
        .query
        .ok_or_else(|| "a sweep with queries returned no query table".into())
}

/// Figs. 8–11: per-node load of MOT(+LB) against a baseline, on the
/// largest grid of the profile, `moves_per_object` moves after
/// initialization (0 = "just after initialization").
pub fn load_figure(
    p: &Profile,
    vs: Algo,
    moves_per_object: usize,
) -> Result<(FigureTable, SweepPhases), BenchError> {
    let &(r, c) = p.grids.last().ok_or("profile has no grids")?;
    let cells: Vec<Keyed<Algo>> = [Algo::MotLb, vs]
        .into_iter()
        .map(|algo| Keyed::new(CellKey::new("load", r * c, algo.label(), 1), algo))
        .collect();
    let spec = InputSpec {
        overlay_seed: 1,
        workload: WorkloadSpec::new(p.objects, moves_per_object.max(1), 5),
    };
    let shared = SharedInputs::new(p.oracle, &[(r, c)], vec![spec], cells.len());
    let (rows, phases) = run_sweep(
        p,
        "replay",
        &shared,
        &cells,
        |_| (0, 0),
        |&algo, inp, laps| {
            let mut t = inp.tracker(algo)?;
            laps.lap(TRACKER);
            run_publish(t.as_mut(), &inp.drawn.workload)?;
            laps.lap(PUBLISH);
            if moves_per_object > 0 {
                replay(t.as_mut(), &inp.drawn.workload, inp.oracle(), None)?;
                laps.lap(RUN);
            }
            let stats = LoadStats::from_loads(&t.node_loads());
            Ok((
                algo.label().to_string(),
                vec![
                    stats.max as f64,
                    stats.mean,
                    stats.nodes_above_10 as f64,
                    stats.jain_index,
                ],
            ))
        },
    )?;
    let fig = match (vs, moves_per_object > 0) {
        (Algo::Stun, false) => "8",
        (Algo::Stun, true) => "9",
        (_, false) => "10",
        (_, true) => "11",
    };
    let table = FigureTable {
        title: format!(
            "Load per node, {} objects on {} nodes, {} (paper Fig. {fig})",
            p.objects,
            r * c,
            if moves_per_object == 0 {
                "after initialization".to_string()
            } else {
                format!("after {moves_per_object} moves/object")
            },
        ),
        x_label: "algorithm".into(),
        columns: vec![
            "max_load".into(),
            "mean_load".into(),
            "nodes>10".into(),
            "jain".into(),
        ],
        rows,
    };
    Ok((table, phases))
}

/// Theorem 4.1 sanity: publish cost stays `O(D)` as the diameter grows.
pub fn publish_cost_table(p: &Profile) -> BenchResult {
    let cells: Vec<Keyed<(usize, usize)>> = p
        .grids
        .iter()
        .map(|&(r, c)| Keyed::new(CellKey::new("pub-cost", r * c, "MOT", 2), (r, c)))
        .collect();
    let rows = p.runner().run(&cells, |cell| -> Result<_, BenchError> {
        let (r, c) = cell.data;
        let bed = TestBed::grid_with_oracle(r, c, 2, p.oracle)?;
        let mut t = MotTracker::new(&bed.overlay, &*bed.oracle, MotConfig::plain());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = bed.graph.node_count();
        let objects = p.objects.min(100);
        let mut total = 0.0;
        for k in 0..objects {
            let proxy = mot_net::NodeId::from_index(rng.gen_range(0..n));
            total += t.publish(mot_core::ObjectId(k as u32), proxy)?;
        }
        let d = bed.oracle.diameter();
        let per_object = total / objects as f64;
        Ok(((r * c).to_string(), vec![d, per_object, per_object / d]))
    })?;
    Ok(FigureTable {
        title: "Publish cost vs diameter (Theorem 4.1: O(D) per object)".into(),
        x_label: "nodes".into(),
        columns: vec!["diameter".into(), "publish/object".into(), "cost/D".into()],
        rows,
    })
}

/// Ablations over MOT's design choices on one mid-size grid: special
/// parents, parent sets, load balancing.
pub fn ablation_table(p: &Profile) -> BenchResult {
    let (r, c) = (16, 16);
    let seed = 3;
    let variants: Vec<(&str, OverlayConfig, MotConfig)> = vec![
        ("MOT", OverlayConfig::practical(), MotConfig::plain()),
        (
            "MOT-noSP",
            OverlayConfig::practical(),
            MotConfig::no_special_parents(),
        ),
        (
            "MOT-singletonPS",
            OverlayConfig::singleton_parents(),
            MotConfig::plain(),
        ),
        (
            "MOT+LB",
            OverlayConfig::practical(),
            MotConfig::load_balanced(),
        ),
    ];
    let cells: Vec<Keyed<(&'static str, OverlayConfig, MotConfig)>> = variants
        .into_iter()
        .map(|v| Keyed::new(CellKey::new("ablations", r * c, v.0, seed), v))
        .collect();
    let rows = p.runner().run(&cells, |cell| -> Result<_, BenchError> {
        let (label, ocfg, mcfg) = &cell.data;
        let bed = TestBed::with_oracle(generators::grid(r, c)?, ocfg, seed, p.oracle)?;
        let w = WorkloadSpec::new(p.objects.min(100), p.moves_per_object, 9).generate(&bed.graph);
        let mut t = MotTracker::new(&bed.overlay, &*bed.oracle, mcfg.clone());
        run_publish(&mut t, &w)?;
        let maint = replay(&mut t, &w, &*bed.oracle, None)?.cost;
        let q = query_batch(
            &mut t,
            &*bed.oracle,
            w.object_count(),
            p.queries,
            17,
            Draw::UNIFORM,
            None,
        )?;
        let loads = LoadStats::from_loads(&t.node_loads());
        Ok((
            label.to_string(),
            vec![maint.ratio(), q.cost.mean_ratio(), loads.max as f64],
        ))
    })?;
    Ok(FigureTable {
        title: format!("Ablations on a {r}x{c} grid (maintenance / query / max load)"),
        x_label: "variant".into(),
        columns: vec![
            "maint_ratio".into(),
            "query_ratio".into(),
            "max_load".into(),
        ],
        rows,
    })
}

/// §6: MOT over the general-network overlay on non-grid topologies.
pub fn general_graph_table(p: &Profile) -> BenchResult {
    let topologies: Vec<(&str, mot_net::Graph)> = vec![
        ("grid-10x10", generators::grid(10, 10)?),
        ("ring-100", generators::ring(100)?),
        ("rgg-100", generators::random_geometric(100, 12.0, 2.2, 7)?),
    ];
    let mut cells = Vec::new();
    for (name, g) in &topologies {
        for kind in ["doubling", "general"] {
            cells.push(Keyed::new(
                CellKey::new(format!("general/{name}"), g.node_count(), kind, 4),
                (*name, g, kind),
            ));
        }
    }
    let rows = p.runner().run(&cells, |cell| -> Result<_, BenchError> {
        let (name, g, kind) = cell.data;
        let bed = match kind {
            "doubling" => TestBed::new(g.clone(), 4)?,
            _ => TestBed::general(g.clone(), &OverlayConfig::practical(), 4)?,
        };
        let w = WorkloadSpec::new(p.objects.min(50), p.moves_per_object, 13).generate(&bed.graph);
        let mut t = MotTracker::new(&bed.overlay, &*bed.oracle, MotConfig::plain());
        run_publish(&mut t, &w)?;
        let maint = replay(&mut t, &w, &*bed.oracle, None)?.cost;
        let q = query_batch(
            &mut t,
            &*bed.oracle,
            w.object_count(),
            p.queries,
            23,
            Draw::UNIFORM,
            None,
        )?;
        Ok((
            format!("{name}/{kind}"),
            vec![maint.ratio(), q.cost.mean_ratio()],
        ))
    })?;
    Ok(FigureTable {
        title: "MOT on doubling vs general (sparse-partition) overlays".into(),
        x_label: "topology/overlay".into(),
        columns: vec!["maint_ratio".into(), "query_ratio".into()],
        rows,
    })
}

/// §5's routing-state argument: with the embedded de Bruijn graph every
/// cluster member keeps a constant-size neighbor table; without it, a
/// member would need the physical addresses of the whole cluster
/// (`O(|X|)`) to resolve hashed placements. This table measures both on
/// the overlay's actual clusters.
pub fn state_size_table(p: &Profile) -> BenchResult {
    use mot_core::lb::ClusterTable;
    let cells: Vec<Keyed<(usize, usize)>> = p
        .grids
        .iter()
        .map(|&(r, c)| Keyed::new(CellKey::new("state-size", r * c, "MOT+LB", 1), (r, c)))
        .collect();
    let rows = p.runner().run(&cells, |cell| -> Result<_, BenchError> {
        let (r, c) = cell.data;
        let bed = TestBed::grid_with_oracle(r, c, 1, p.oracle)?;
        let table = ClusterTable::build(&bed.overlay, &*bed.oracle);
        let (mut max_table, mut max_cluster, mut sum_table, mut count) =
            (0usize, 0usize, 0usize, 0usize);
        for level in 1..=bed.overlay.height() {
            for &center in bed.overlay.level_members(level) {
                let e = table
                    .embedding(center, level)
                    .ok_or("overlay cluster without embedding")?;
                max_cluster = max_cluster.max(e.len());
                for &member in e.members() {
                    let t = e.neighbor_table(member).len();
                    max_table = max_table.max(t);
                    sum_table += t;
                    count += 1;
                }
            }
        }
        Ok((
            (r * c).to_string(),
            vec![
                max_cluster as f64, // naive per-member state O(|X|)
                max_table as f64,   // de Bruijn per-member state
                sum_table as f64 / count.max(1) as f64,
            ],
        ))
    })?;
    Ok(FigureTable {
        title: "Per-member routing state: naive cluster tables vs de Bruijn embedding (§5)".into(),
        x_label: "nodes".into(),
        columns: vec![
            "naive_max(|X|)".into(),
            "debruijn_max".into(),
            "debruijn_mean".into(),
        ],
        rows,
    })
}

/// Distance-sensitivity: mean query cost ratio as a function of how far
/// the requester is from the object. MOT's O(1) promise (Thm 4.11) is
/// strongest for nearby requesters; sink-routed STUN pays its full
/// root detour exactly there.
pub fn locality_table(p: &Profile) -> Result<(FigureTable, SweepPhases), BenchError> {
    let &(r, c) = p.grids.last().ok_or("profile has no grids")?;
    let algos = [Algo::Mot, Algo::Stun, Algo::Zdat, Algo::ZdatShortcuts];
    let cells: Vec<Keyed<Algo>> = algos
        .iter()
        .map(|&a| Keyed::new(CellKey::new("locality", r * c, a.label(), 2), a))
        .collect();
    let spec = InputSpec {
        overlay_seed: 2,
        workload: WorkloadSpec::new(p.objects.min(100), p.moves_per_object, 4),
    };
    let shared = SharedInputs::new(p.oracle, &[(r, c)], vec![spec], cells.len());
    // One cell per algorithm: replay the shared workload once, then
    // sweep every radius on the settled tracker. Each cell returns
    // (diameter, per-radius series); the diameter labels the last row.
    let (per_algo, phases): (Vec<(f64, Vec<f64>)>, _) = run_sweep(
        p,
        "replay",
        &shared,
        &cells,
        |_| (0, 0),
        |&algo, inp, laps| {
            let w = &inp.drawn.workload;
            let mut t = inp.tracker(algo)?;
            laps.lap(TRACKER);
            run_publish(t.as_mut(), w)?;
            laps.lap(PUBLISH);
            replay(t.as_mut(), w, inp.oracle(), None)?;
            laps.lap(RUN);
            let diameter = inp.oracle().diameter();
            let radii = [2.0, 4.0, 8.0, 16.0, diameter];
            let mut ys = Vec::with_capacity(radii.len());
            for &radius in &radii {
                let q = query_batch(
                    t.as_mut(),
                    inp.oracle(),
                    w.object_count(),
                    p.queries,
                    11,
                    Draw::Local { radius },
                    None,
                )?;
                let what = format!("{} local (radius {radius})", algo.label());
                all_correct(&what, q.correct, p.queries)?;
                ys.push(q.cost.mean_ratio());
            }
            laps.lap(QUERIES);
            Ok((diameter, ys))
        },
    )?;
    let diameter = per_algo[0].0;
    let radii = [2.0, 4.0, 8.0, 16.0, diameter];
    let mut rows = Vec::new();
    for (ri, &radius) in radii.iter().enumerate() {
        let label = if radius >= diameter {
            "any".to_string()
        } else {
            format!("<={radius:.0}")
        };
        rows.push((label, per_algo.iter().map(|(_, ys)| ys[ri]).collect()));
    }
    let table = FigureTable {
        title: format!(
            "Query cost ratio by requester distance ({}x{} grid, {} objects)",
            r,
            c,
            p.objects.min(100)
        ),
        x_label: "distance".into(),
        columns: algos.iter().map(|a| a.label().to_string()).collect(),
        rows,
    };
    Ok((table, phases))
}

/// Mobility-model stress test: maintenance cost ratios under the three
/// mobility models, including the *commuter* model — perfectly
/// predictable traffic, the best case for rate-built trees and the
/// honest worst case for MOT's traffic-obliviousness.
pub fn mobility_table(p: &Profile) -> Result<(FigureTable, SweepPhases), BenchError> {
    use mot_sim::MobilityModel;
    let (r, c) = (16usize, 16usize);
    let algos = [Algo::Mot, Algo::Stun, Algo::Dat, Algo::Zdat];
    let models = [
        ("random-walk", MobilityModel::RandomWalk),
        ("waypoint", MobilityModel::Waypoint),
        ("commuter", MobilityModel::Commuter),
    ];
    // Model-major, algo-minor — the historical nesting, so merge order
    // (and f64 placement) is unchanged. A cell is (model index, algo);
    // the algorithms of one model share its workload, all share the net.
    let cells: Vec<Keyed<(usize, Algo)>> = models
        .iter()
        .enumerate()
        .flat_map(|(mi, &(label, _))| {
            algos.iter().map(move |&algo| {
                Keyed::new(
                    CellKey::new(format!("mobility/{label}"), r * c, algo.label(), 5),
                    (mi, algo),
                )
            })
        })
        .collect();
    let specs = models
        .iter()
        .map(|&(_, model)| InputSpec {
            overlay_seed: 3,
            workload: WorkloadSpec {
                objects: p.objects.min(50),
                moves_per_object: p.moves_per_object,
                model,
                seed: 5,
            },
        })
        .collect();
    let shared = SharedInputs::new(p.oracle, &[(r, c)], specs, algos.len());
    let (ratios, phases) = run_sweep(
        p,
        "replay",
        &shared,
        &cells,
        |&(model, _)| (0, model),
        |&(_, algo), inp, laps| {
            let mut t = inp.tracker(algo)?;
            laps.lap(TRACKER);
            run_publish(t.as_mut(), &inp.drawn.workload)?;
            laps.lap(PUBLISH);
            let stats = replay(t.as_mut(), &inp.drawn.workload, inp.oracle(), None)?;
            laps.lap(RUN);
            Ok(stats.cost.ratio())
        },
    )?;
    let rows = models
        .iter()
        .enumerate()
        .map(|(mi, &(label, _))| {
            let ys = ratios[mi * algos.len()..(mi + 1) * algos.len()].to_vec();
            (label.to_string(), ys)
        })
        .collect();
    let table = FigureTable {
        title: format!("Maintenance cost ratio by mobility model ({r}x{c} grid)"),
        x_label: "mobility".into(),
        columns: algos.iter().map(|a| a.label().to_string()).collect(),
        rows,
    };
    Ok((table, phases))
}

/// Backend scaling: fig4-style MOT maintenance over the profile's
/// grids, reporting the distance backend's *measured* memory footprint
/// next to the dense matrix it replaces (EXPERIMENTS.md `scale` has
/// the measured table): the cached backend stores no distances, so its
/// column is 0 at every size.
pub fn scale_table(p: &Profile) -> BenchResult {
    const MIB: f64 = (1024 * 1024) as f64;
    let cells: Vec<Keyed<(usize, usize)>> = p
        .grids
        .iter()
        .map(|&(r, c)| Keyed::new(CellKey::new("scale", r * c, "MOT", 1), (r, c)))
        .collect();
    let rows = p.runner().run(&cells, |cell| -> Result<_, BenchError> {
        let (r, c) = cell.data;
        let bed = TestBed::grid_with_oracle(r, c, 1, p.oracle)?;
        let w = WorkloadSpec::new(p.objects.min(50), p.moves_per_object.min(100), 5)
            .generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        let mut t = bed.make_tracker(Algo::Mot, &rates)?;
        run_publish(t.as_mut(), &w)?;
        let stats = replay(t.as_mut(), &w, &*bed.oracle, None)?.cost;
        let n = bed.graph.node_count();
        let dense_bytes = (n * n * std::mem::size_of::<f32>()) as f64;
        Ok((
            (r * c).to_string(),
            vec![
                stats.ratio(),
                bed.oracle.memory_bytes() as f64 / MIB,
                dense_bytes / MIB,
            ],
        ))
    })?;
    Ok(FigureTable {
        title: format!(
            "MOT maintenance at scale, {} distance backend (measured memory vs dense matrix)",
            p.oracle.label()
        ),
        x_label: "nodes".into(),
        columns: vec![
            "maint_ratio".into(),
            "oracle_MiB".into(),
            "dense_matrix_MiB".into(),
        ],
        rows,
    })
}

/// The fixed-seed instrumented MOT run behind `level-decomp`, `--trace`,
/// and the `--metrics` report's observability section: publish +
/// maintenance replay + a query batch over the profile's largest grid,
/// every billed hop mirrored to `sink`. Returns the maintenance stats so
/// callers can cross-check the ledger against [`CostStats`] totals,
/// plus the bed oracle's cache counters when its backend keeps them and
/// the bed's footprint once the run is over.
fn observed_mot_run(
    p: &Profile,
    seed: u64,
    sink: &dyn TraceSink,
) -> Result<(CostStats, Option<CacheLedger>, BedMemory), BenchError> {
    let &(r, c) = p.grids.last().ok_or("profile has no grids")?;
    let bed = TestBed::grid_with_oracle(r, c, seed, p.oracle)?;
    let w = WorkloadSpec::new(p.objects.min(100), p.moves_per_object, seed * 7 + 1)
        .generate(&bed.graph);
    let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
    let mut t = bed.make_tracker_traced(Algo::Mot, &rates, sink)?;
    run_publish(t.as_mut(), &w)?;
    let maint = replay(t.as_mut(), &w, &*bed.oracle, None)?.cost;
    query_batch(
        t.as_mut(),
        &*bed.oracle,
        w.object_count(),
        p.queries,
        seed + 31,
        Draw::UNIFORM,
        None,
    )?;
    let memory = BedMemory {
        oracle_bytes: bed.oracle.memory_bytes(),
        overlay_bytes: bed.overlay.memory_bytes(),
    };
    Ok((maint, bed.oracle.cache_stats(), memory))
}

/// Raw event stream of the fixed-seed instrumented run (the `--trace`
/// NDJSON export). Deterministic for a fixed profile and seed.
pub fn trace_events(p: &Profile, seed: u64) -> Result<Vec<TraceEvent>, BenchError> {
    let sink = MemorySink::new();
    observed_mot_run(p, seed, &sink)?;
    Ok(sink.events())
}

/// Mergeable aggregates of the fixed-seed instrumented run (the
/// `--metrics` report's observability section), plus the run's oracle
/// counters (the `cached` backend's solve count; `None` for backends
/// without a ledger) and the bed's memory footprint.
pub fn instrumented_run(
    p: &Profile,
    seed: u64,
) -> Result<(TraceAggregates, Option<CacheLedger>, BedMemory), BenchError> {
    let rec = Recorder::new();
    let (_, cache, memory) = observed_mot_run(p, seed, &rec)?;
    Ok((rec.finish(), cache, memory))
}

/// Per-level cost decomposition of the instrumented MOT run: one row per
/// hierarchy level, one column per cost ledger plus the level total.
///
/// Two built-in health checks fail the run with a readable error:
/// the maintenance column must sum to the replay's [`CostStats::total`]
/// (the trace must account for every billed unit of distance, within
/// float-summation tolerance), and level-ℓ maintenance spend must decay
/// up the hierarchy — under a diffusive workload only a geometrically
/// shrinking fraction of moves climbs past level ℓ, so the top half of
/// the populated levels has to spend strictly less than the bottom half.
pub fn level_decomposition_table(p: &Profile) -> BenchResult {
    let rec = Recorder::new();
    let (maint, _, _) = observed_mot_run(p, 1, &rec)?;
    let agg = rec.finish();
    let ledger = &agg.ledger;
    let maint_sum = ledger.ledger_total(LedgerKind::Maintenance);
    let rel = (maint_sum - maint.total).abs() / maint.total.max(1.0);
    if rel > 1e-6 {
        return Err(format!(
            "per-level maintenance decomposition {maint_sum} does not sum to \
             CostStats::total {} (relative error {rel:.2e})",
            maint.total
        )
        .into());
    }
    let height = ledger.height();
    let maint_by_level: Vec<f64> = (0..height)
        .map(|l| ledger.get(l, LedgerKind::Maintenance))
        .collect();
    if height >= 2 {
        let mid = height.div_ceil(2);
        let bottom: f64 = maint_by_level[..mid].iter().sum();
        let top: f64 = maint_by_level[mid..].iter().sum();
        if top >= bottom {
            return Err(format!(
                "maintenance spend does not decay up the hierarchy: \
                 levels 0..{mid} spend {bottom}, levels {mid}..{height} spend {top}"
            )
            .into());
        }
    }
    let kinds = LedgerKind::all();
    let mut rows = Vec::new();
    for l in 0..height {
        let mut ys: Vec<f64> = kinds.iter().map(|&k| ledger.get(l, k)).collect();
        ys.push(ledger.level_total(l));
        rows.push((format!("L{l}"), ys));
    }
    let mut columns: Vec<String> = kinds.iter().map(|k| k.label().to_string()).collect();
    columns.push("total".into());
    Ok(FigureTable {
        title: format!(
            "Per-level cost decomposition, instrumented MOT run \
             (maintenance column sums to {maint_sum:.3})"
        ),
        x_label: "level".into(),
        columns,
        rows,
    })
}

/// Robustness sweep: the fig-4 grid workload replayed under injected
/// faults — message drop rates × sensor crash counts — for MOT vs STUN.
/// Per cell the table reports maintenance and query stretch of the
/// *effective* traffic plus two overhead percentages (relative to the
/// effective maintenance distance): `retry%`, the distance wasted on
/// lost/duplicated transmissions, and `repair%`, the distance spent on
/// crash handoffs and pointer-path re-publishes.
///
/// Every cell is also a health check: all queries must answer correctly
/// (after self-repair) and a final repair pass must leave zero
/// unrepaired objects, or the run fails with a readable error.
pub fn faults_table(
    p: &Profile,
    grid: (usize, usize),
) -> Result<(FigureTable, SweepPhases), BenchError> {
    let (r, c) = grid;
    let drop_rates = [0.0, 0.01, 0.05, 0.10];
    let crash_counts = [0usize, 4, 16];
    let algos = [Algo::Mot, Algo::Stun];
    // Crashes → drop → algo → seed, matching the historical loop nesting
    // so the merge below reproduces the exact f64 accumulation order.
    let mut cells: Vec<Keyed<(usize, f64, Algo, u64)>> = Vec::new();
    for &crashes in &crash_counts {
        for &drop_rate in &drop_rates {
            for &algo in &algos {
                for seed in 0..p.seeds {
                    cells.push(Keyed::new(
                        CellKey::new(
                            format!("faults/d{drop_rate}/x{crashes}"),
                            r * c,
                            algo.label(),
                            seed,
                        ),
                        (crashes, drop_rate, algo, seed),
                    ));
                }
            }
        }
    }
    // One bed and one workload per seed, shared by every fault mix and
    // both algorithms.
    let specs: Vec<InputSpec> = (0..p.seeds)
        .map(|seed| InputSpec {
            overlay_seed: seed,
            workload: WorkloadSpec::new(p.objects, p.moves_per_object, seed * 7 + 1),
        })
        .collect();
    let cells_per_seed = crash_counts.len() * drop_rates.len() * algos.len();
    let shared = SharedInputs::new(p.oracle, &[grid], specs, cells_per_seed);
    // The repair probe, found by the first cell to need it: every cell
    // runs on the sweep's one graph.
    let center = OnceLock::new();
    // Each cell replays one (fault mix, algo, seed) run, keeping its
    // health checks (query correctness + full repair) inside the cell so
    // a failure names the exact run that broke.
    let (per_cell, phases): (Vec<(CostStats, CostStats, f64, f64)>, _) = run_sweep(
        p,
        "replay",
        &shared,
        &cells,
        |&(_, _, _, seed)| (0, seed as usize),
        |&(crashes, drop_rate, algo, seed), inp, laps| {
            let w = &inp.drawn.workload;
            let mut plan = FaultConfig {
                seed: seed * 101 + 13,
                drop_rate,
                crashes,
                ..FaultConfig::default()
            }
            .plan(inp.net.graph.node_count(), w.moves.len())?;
            let mut t = inp.tracker(algo)?;
            laps.lap(TRACKER);
            run_publish(t.as_mut(), w)?;
            laps.lap(PUBLISH);
            let run = replay(t.as_mut(), w, inp.oracle(), Some(&mut plan))?;
            laps.lap(RUN);
            let q = query_batch(
                t.as_mut(),
                inp.oracle(),
                p.objects,
                p.queries,
                seed + 31,
                Draw::UNIFORM,
                Some(&mut plan),
            )?;
            laps.lap(QUERIES);
            let what = format!("{} (drop {drop_rate}, {crashes} crashes)", algo.label());
            all_correct(&what, q.correct, p.queries)?;
            repair_all(t.as_mut(), p.objects)?;
            let probe = *center.get_or_init(|| graph_center(&inp.net.graph));
            let unrepaired = unrepaired_objects(t.as_ref(), p.objects, probe);
            if unrepaired != 0 {
                return Err(format!(
                    "{} (drop {drop_rate}, {crashes} crashes): {unrepaired} \
                 objects unrepaired after the repair pass",
                    algo.label()
                )
                .into());
            }
            Ok((
                run.cost,
                q.cost,
                run.retry_overhead + q.retry_overhead,
                t.repair_cost(),
            ))
        },
    )?;
    let mut rows = Vec::new();
    let mut next = per_cell.into_iter();
    for &crashes in &crash_counts {
        for &drop_rate in &drop_rates {
            let mut ys = Vec::new();
            for _ in &algos {
                let mut maint = CostStats::default();
                let mut query = CostStats::default();
                let (mut retry, mut repair) = (0.0, 0.0);
                for _ in 0..p.seeds {
                    let (m, q, rt, rp) = next
                        .next()
                        .ok_or("fault sweep returned fewer results than cells")?;
                    maint.merge(&m);
                    query.merge(&q);
                    retry += rt;
                    repair += rp;
                }
                let effective = maint.total.max(f64::EPSILON);
                ys.push(maint.ratio());
                ys.push(query.mean_ratio());
                ys.push(100.0 * retry / effective);
                ys.push(100.0 * repair / effective);
            }
            rows.push((format!("d={:.0}% x={crashes}", drop_rate * 100.0), ys));
        }
    }
    let table = FigureTable {
        title: format!(
            "Fault sweep on a {r}x{c} grid, {} objects (drop rate × crashes; \
             overheads relative to effective maintenance distance)",
            p.objects
        ),
        x_label: "faults".into(),
        columns: algos
            .iter()
            .flat_map(|a| {
                ["maint", "query", "retry%", "repair%"]
                    .iter()
                    .map(move |m| format!("{}_{m}", a.label()))
            })
            .collect(),
        rows,
    };
    Ok((table, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot_core::JsonWriter;
    use mot_net::NetError;
    use mot_sim::SimError;

    /// A figure-pair cell the way every runner built it before the
    /// inputs were shared: its own bed, its own workload, its own rates.
    /// Returns the maintenance and query costs, the latter empty without
    /// queries.
    fn fresh_cell(
        p: &Profile,
        (r, c): (usize, usize),
        seed: u64,
        algo: Algo,
        concurrent: bool,
        queries: bool,
    ) -> (CostStats, CostStats) {
        let bed = TestBed::grid_with_oracle(r, c, seed, p.oracle).unwrap();
        let w = WorkloadSpec::new(p.objects, p.moves_per_object, seed * 7 + 1).generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        let mut t = bed.make_tracker(algo, &rates).unwrap();
        run_publish(t.as_mut(), &w).unwrap();
        if concurrent {
            let cfg = ConcurrentConfig {
                max_inflight_per_object: 10,
                queries_per_batch: queries as usize,
                seed,
            };
            let out = ConcurrentEngine::run(t.as_mut(), &w, &*bed.oracle, &cfg).unwrap();
            return (out.maintenance, out.queries);
        }
        let maint = replay(t.as_mut(), &w, &*bed.oracle, None).unwrap().cost;
        if !queries {
            return (maint, CostStats::default());
        }
        let q = query_batch(
            t.as_mut(),
            &*bed.oracle,
            p.objects,
            p.queries,
            seed + 31,
            Draw::UNIFORM,
            None,
        )
        .unwrap();
        (maint, q.cost)
    }

    fn bits(s: &CostStats) -> (u64, u64, u64, usize, usize) {
        (
            s.total.to_bits(),
            s.optimal.to_bits(),
            s.ratio_sum.to_bits(),
            s.operations,
            s.zero_optimal_ops,
        )
    }

    #[test]
    fn shared_inputs_equal_fresh_beds() {
        let mut p = Profile::quick(6).with_jobs(1);
        p.grids = vec![(4, 4), (7, 5)];
        p.queries = 40;
        let algos = lineup();
        for (concurrent, queries) in [(false, false), (false, true), (true, false), (true, true)] {
            let (shared, cells) = sweep_cells(&p, "parity", &algos);
            for cell in &cells {
                let (grid, seed, algo) = cell.data;
                let inp = shared.cell(grid, seed as usize).unwrap();
                let mut laps = Laps::start();
                let (maint, query) =
                    pair_cell(&p, &inp, algo, seed, concurrent, queries, &mut laps).unwrap();
                let fresh = fresh_cell(&p, p.grids[grid], seed, algo, concurrent, queries);
                assert!(fresh.0.operations > 0, "{}: nothing compared", cell.key);
                assert_eq!(fresh.1.operations > 0, queries, "{}", cell.key);
                let what = format!("{} (concurrent {concurrent}, queries {queries})", cell.key);
                assert_eq!(bits(&maint), bits(&fresh.0), "{what}: maintenance");
                assert_eq!(bits(&query), bits(&fresh.1), "{what}: queries");
            }
        }
    }

    #[test]
    fn an_input_that_cannot_be_built_fails_the_sweep_with_its_own_error() {
        // Every cell of the empty grid sees the one failed build; the
        // runner reports the canonically-first of them — the same error
        // whatever the worker count, not a panic wrapped as a cell.
        for jobs in [1, 2] {
            let mut p = Profile::quick(4).with_jobs(jobs);
            p.grids = vec![(3, 3), (0, 5)];
            let err = maintenance_figure(&p, false).unwrap_err();
            assert_eq!(
                err.downcast_ref::<SimError>(),
                Some(&SimError::Net(NetError::EmptyGraph)),
                "jobs {jobs}: {err}"
            );
            assert!(err.to_string().contains(&NetError::EmptyGraph.to_string()));
            let err = faults_table(&p, (0, 5)).unwrap_err();
            assert!(
                err.to_string().contains(&NetError::EmptyGraph.to_string()),
                "jobs {jobs}: {err}"
            );
        }
    }

    #[test]
    fn quick_maintenance_figure_has_expected_shape() {
        let p = Profile::quick(5);
        let t = maintenance_figure(&p, false).unwrap();
        assert_eq!(t.rows.len(), p.grids.len());
        assert_eq!(t.columns.len(), 4);
        // every ratio at least 1 (costs can't beat optimal)
        for (_, ys) in &t.rows {
            for &y in ys {
                assert!(y >= 1.0, "ratio {y} below optimal");
            }
        }
    }

    #[test]
    fn quick_query_figure_runs_both_modes() {
        let p = Profile::quick(4);
        let a = query_figure(&p, false).unwrap();
        let b = query_figure(&p, true).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
    }

    #[test]
    fn load_figure_shows_balanced_mot() {
        let mut p = Profile::quick(30);
        p.grids = vec![(10, 10)];
        let (t, _) = load_figure(&p, Algo::Stun, 0).unwrap();
        let mot = &t.rows[0];
        let stun = &t.rows[1];
        assert_eq!(mot.0, "MOT+LB");
        // STUN's root carries every object: max load >= objects
        assert!(stun.1[0] >= 30.0, "STUN max load {}", stun.1[0]);
        assert!(mot.1[0] < stun.1[0], "MOT load not below STUN");
    }

    #[test]
    fn publish_cost_is_linear_in_diameter() {
        let p = Profile::quick(20);
        let t = publish_cost_table(&p).unwrap();
        for (_, ys) in &t.rows {
            let cost_over_d = ys[2];
            assert!(
                cost_over_d < 16.0,
                "publish cost {cost_over_d} x D not O(D)"
            );
        }
    }

    #[test]
    fn state_size_is_constant_in_cluster_size() {
        let mut p = Profile::quick(10);
        p.grids = vec![(4, 4), (10, 10)];
        let t = state_size_table(&p).unwrap();
        for (_, ys) in &t.rows {
            let (naive, db_max) = (ys[0], ys[1]);
            assert!(db_max <= 8.0, "de Bruijn table {db_max} not constant");
            assert!(naive >= db_max, "naive {naive} below de Bruijn {db_max}");
        }
        // naive state grows with n; de Bruijn stays flat
        assert!(t.rows[1].1[0] > t.rows[0].1[0]);
        assert!(t.rows[1].1[1] <= t.rows[0].1[1] + 1.0);
    }

    #[test]
    fn locality_shows_mot_flat_and_stun_steep() {
        let mut p = Profile::quick(20);
        p.grids = vec![(12, 12)];
        p.queries = 150;
        let (t, _) = locality_table(&p).unwrap();
        let mot = t.column("MOT").unwrap();
        let stun = t.column("STUN").unwrap();
        // STUN pays far more than MOT for the nearest requesters
        assert!(
            stun[0] > 2.0 * mot[0],
            "nearby queries: STUN {} vs MOT {}",
            stun[0],
            mot[0]
        );
        // MOT stays within a small band across distances (O(1))
        let (lo, hi) = mot
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        assert!(hi <= 4.0 * lo, "MOT locality profile not flat: {mot:?}");
    }

    #[test]
    fn scale_table_reports_ratio_and_memory() {
        let mut p = Profile::quick(5).with_oracle(OracleKind::Cached);
        p.grids = vec![(8, 8)];
        let t = scale_table(&p).unwrap();
        assert_eq!(t.rows.len(), 1);
        let ys = &t.rows[0].1;
        assert!(ys[0] >= 1.0, "ratio {} below optimal", ys[0]);
        assert_eq!(ys[1], 0.0, "the cached backend stores no distances");
        // 64 nodes: dense matrix is 64*64*4 bytes
        assert!((ys[2] - (64.0 * 64.0 * 4.0) / (1024.0 * 1024.0)).abs() < 1e-9);
    }

    #[test]
    fn faults_table_covers_the_sweep_and_recovers_everything() {
        let mut p = Profile::quick(6);
        p.seeds = 1;
        p.queries = 60;
        let (t, _) = faults_table(&p, (8, 8)).unwrap();
        assert_eq!(t.rows.len(), 12, "4 drop rates x 3 crash counts");
        assert_eq!(t.columns.len(), 8, "4 metrics per algorithm");
        // the clean cell pays no overhead at all
        let clean = &t.rows[0];
        assert_eq!(clean.0, "d=0% x=0");
        assert_eq!(clean.1[2], 0.0, "MOT retry overhead in the clean cell");
        assert_eq!(clean.1[3], 0.0, "MOT repair overhead in the clean cell");
        // the harshest cell pays retry overhead and keeps stretch sane
        let harsh = t.rows.last().unwrap();
        assert_eq!(harsh.0, "d=10% x=16");
        assert!(harsh.1[2] > 0.0, "10% drops must waste distance");
        for (_, ys) in &t.rows {
            assert!(ys[0] >= 1.0 && ys[4] >= 1.0, "stretch below optimal");
        }
    }

    #[test]
    fn level_decomposition_sums_to_cost_stats_total() {
        let mut p = Profile::quick(10);
        p.grids = vec![(12, 12)];
        p.moves_per_object = 60;
        // the runner itself errors if the maintenance column mismatches
        // CostStats::total or spend fails to decay up the hierarchy
        let t = level_decomposition_table(&p).unwrap();
        assert!(t.rows.len() >= 2, "expected multiple populated levels");
        assert_eq!(t.columns.last().map(String::as_str), Some("total"));
        let maint = t.column("maintenance").unwrap();
        assert!(maint.iter().sum::<f64>() > 0.0);
        // row totals equal the sum of their ledger columns
        for (x, ys) in &t.rows {
            let parts: f64 = ys[..ys.len() - 1].iter().sum();
            assert!(
                (parts - ys[ys.len() - 1]).abs() < 1e-9,
                "{x} total mismatch"
            );
        }
    }

    #[test]
    fn trace_exports_are_deterministic_for_a_fixed_seed() {
        let mut p = Profile::quick(6);
        p.grids = vec![(8, 8)];
        let a = trace_events(&p, 3).unwrap();
        let b = trace_events(&p, 3).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same profile + seed must produce identical traces");
        let (agg1, _, _) = instrumented_run(&p, 3).unwrap();
        let (agg2, _, _) = instrumented_run(&p, 3).unwrap();
        assert_eq!(JsonWriter::render(&agg1), JsonWriter::render(&agg2));
    }

    #[test]
    fn mobility_table_covers_three_models() {
        let mut p = Profile::quick(8);
        p.moves_per_object = 40;
        let (t, _) = mobility_table(&p).unwrap();
        assert_eq!(t.rows.len(), 3);
        let labels: Vec<&str> = t.rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["random-walk", "waypoint", "commuter"]);
        for (_, ys) in &t.rows {
            for &y in ys {
                assert!(y >= 1.0);
            }
        }
    }
}
