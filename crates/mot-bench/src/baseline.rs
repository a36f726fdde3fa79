//! Phase-timed benchmark baseline behind `experiments bench-baseline`.
//!
//! Everything else in `mot-bench` measures *cost ratios* — numbers the
//! determinism contract (DESIGN.md §12) pins bit-exactly. This module
//! measures *wall-clock*, phase by phase, and serializes the result as
//! the schema'd JSON committed at the repo root (`BENCH_pr8.json`).
//!
//! Per size the harness times, strictly in order and sequentially (so
//! phases never contend with each other):
//!
//! 1. `graph_build_secs` — CSR construction via [`generators`];
//! 2. `oracle_warmup_secs` — distance-backend build
//!    ([`OracleKind::build`] after `resolve`). Since the cached backend
//!    became the default past [`OracleKind::DENSE_NODE_LIMIT`] this is
//!    validation + bookkeeping, not an n² warm-up, and the column
//!    records exactly that collapse;
//! 3. `hierarchy_secs` — [`build_doubling`], the bounded-ball builder
//!    every caller runs at every size;
//! 4. `fig4_replay_secs` — publish + one-by-one move replay of a Fig. 4
//!    MOT arm, plus its cost ratio as a cross-check value. The bed
//!    reuses the already-built oracle and overlay.
//!
//! After the sizes, the profile's service soaks run (the `service`
//! section of the report): end-to-end wall-clock and throughput of the
//! chaos-hardened event loop plus its deterministic move/query cost
//! quantiles, turning PERFORMANCE.md's service numbers into a delta-
//! gated contract rather than a snapshot.
//!
//! After the replay the report captures the backend's
//! [`CacheLedger`](mot_net::CacheLedger) counters (zero on ledger-free
//! backends) and its `memory_bytes`, making the "no n² footprint" claim
//! auditable from the committed artifact.
//!
//! `jobs` is recorded for provenance only: timed phases are sequential
//! by design so numbers stay comparable across runs and machines.

use crate::figures::BenchError;
use crate::service::{service_run, ServiceSpec};
use mot_baselines::DetectionRates;
use mot_core::{JsonWriter, ToJson};
use mot_hierarchy::{build_doubling, OverlayConfig};
use mot_net::{generators, Graph, OracleKind};
use mot_sim::{replay, run_publish, Algo, TestBed, WorkloadSpec};
use std::time::Instant;

/// Schema identifier stamped into every report this module writes.
///
/// `/2` added `topology`, the cache hit/miss/memory counters, and a
/// nullable reference-builder phase. `/3` added the `service` phase
/// family: wall-clock throughput plus deterministic cost quantiles from
/// the chaos-soak specs of [`crate::service`]. `/4` dropped `/3`'s
/// dispatch-phase column: [`build_doubling`] no longer chooses between
/// builders, so `hierarchy_secs` already is what callers pay. `/5`
/// dropped the reference-builder phase and its speedup column with the
/// builder: overlays are held to the doubling rules by
/// `mot_hierarchy::validate`, not to a second construction.
pub const BENCH_SCHEMA: &str = "mot-bench-baseline/5";

/// One benchmark topology, sized and seeded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeSpec {
    /// `rows × cols` unit grid — the paper's topology.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Random geometric graph (uniform points in a `side × side` square,
    /// edges under `radius`, bridged to connectivity).
    Geometric {
        /// Node count.
        nodes: usize,
        /// Square side length.
        side: f64,
        /// Connection radius.
        radius: f64,
        /// Placement seed.
        seed: u64,
    },
}

impl SizeSpec {
    /// Node count of the topology this spec describes.
    pub fn nodes(&self) -> usize {
        match *self {
            SizeSpec::Grid { rows, cols } => rows * cols,
            SizeSpec::Geometric { nodes, .. } => nodes,
        }
    }

    /// Topology label recorded in the report (`grid` / `geometric`).
    pub fn topology(&self) -> &'static str {
        match self {
            SizeSpec::Grid { .. } => "grid",
            SizeSpec::Geometric { .. } => "geometric",
        }
    }

    /// `(rows, cols)` for grids, `(0, 0)` for non-grid topologies.
    pub fn rows_cols(&self) -> (usize, usize) {
        match *self {
            SizeSpec::Grid { rows, cols } => (rows, cols),
            SizeSpec::Geometric { .. } => (0, 0),
        }
    }

    fn build(&self) -> Result<Graph, mot_net::NetError> {
        match *self {
            SizeSpec::Grid { rows, cols } => generators::grid(rows, cols),
            SizeSpec::Geometric {
                nodes,
                side,
                radius,
                seed,
            } => generators::random_geometric(nodes, side, radius, seed),
        }
    }
}

/// Scale knobs for one `bench-baseline` run.
#[derive(Clone, Debug)]
pub struct BaselineProfile {
    /// Profile name recorded in the report (`smoke` / `full`).
    pub name: String,
    /// Topologies timed, in order.
    pub sizes: Vec<SizeSpec>,
    /// Objects in the fig4-replay phase.
    pub objects: usize,
    /// Moves per object in the fig4-replay phase.
    pub moves_per_object: usize,
    /// Distance backend for the oracle-warmup and replay phases.
    pub oracle: OracleKind,
    /// Recorded for provenance; phases are timed sequentially.
    pub jobs: usize,
    /// Seed for overlay construction and the replay workload.
    pub seed: u64,
    /// Service-mode soaks timed after the per-size phases, as
    /// `(name, spec)` pairs; the name keys the delta gate in CI.
    pub service: Vec<(String, ServiceSpec)>,
}

impl BaselineProfile {
    /// CI-scale run: three small grids, seconds of wall-clock.
    pub fn smoke() -> Self {
        BaselineProfile {
            name: "smoke".into(),
            sizes: vec![
                SizeSpec::Grid { rows: 8, cols: 8 },
                SizeSpec::Grid { rows: 12, cols: 12 },
                SizeSpec::Grid { rows: 16, cols: 16 },
            ],
            objects: 10,
            moves_per_object: 30,
            oracle: OracleKind::Auto,
            jobs: 1,
            seed: 1,
            service: vec![("smoke".into(), ServiceSpec::smoke())],
        }
    }

    /// The committed-artifact run: from the paper's grids up to a
    /// 1024×1024 grid (2^20 nodes) and a 131072-node random-geometric
    /// network — sizes only reachable because no phase performs an n²
    /// warm-up. Runs on the cached backend at *every* size (not `Auto`,
    /// which would still pick the dense matrix at ≤4096 nodes and spend
    /// over a second of n² warm-up there): the artifact documents the
    /// on-demand cost profile, and cached-vs-dense bit-parity is pinned
    /// separately by the differential suites.
    pub fn full() -> Self {
        BaselineProfile {
            name: "full".into(),
            sizes: vec![
                SizeSpec::Grid { rows: 16, cols: 16 },
                SizeSpec::Grid { rows: 32, cols: 32 },
                SizeSpec::Grid { rows: 64, cols: 64 },
                SizeSpec::Grid {
                    rows: 256,
                    cols: 256,
                },
                SizeSpec::Grid {
                    rows: 512,
                    cols: 512,
                },
                SizeSpec::Grid {
                    rows: 1024,
                    cols: 1024,
                },
                SizeSpec::Geometric {
                    nodes: 131072,
                    side: 362.0,
                    radius: 2.0,
                    seed: 1,
                },
            ],
            objects: 100,
            moves_per_object: 100,
            oracle: OracleKind::Cached,
            jobs: 1,
            seed: 1,
            // The smoke spec rides along so CI's smoke run and the
            // committed full artifact share a delta-gate key; quick and
            // standard document the scales PERFORMANCE.md tabulates.
            service: vec![
                ("smoke".into(), ServiceSpec::smoke()),
                ("quick".into(), ServiceSpec::quick()),
                ("standard".into(), ServiceSpec::standard()),
            ],
        }
    }

    /// Profile by CLI name.
    pub fn for_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// Same profile on an explicit distance backend.
    pub fn with_oracle(mut self, kind: OracleKind) -> Self {
        self.oracle = kind;
        self
    }

    /// Same profile with an explicit recorded jobs value.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Phase timings for one size.
#[derive(Clone, Debug)]
pub struct SizeTiming {
    /// Topology label (`grid` / `geometric`).
    pub topology: &'static str,
    /// Grid rows (0 for non-grid topologies).
    pub rows: usize,
    /// Grid columns (0 for non-grid topologies).
    pub cols: usize,
    /// Node count.
    pub nodes: usize,
    /// CSR graph construction.
    pub graph_build_secs: f64,
    /// Distance-backend build.
    pub oracle_warmup_secs: f64,
    /// Doubling-overlay construction ([`build_doubling`]).
    pub hierarchy_secs: f64,
    /// Publish + one-by-one replay of the fig4 MOT arm.
    pub fig4_replay_secs: f64,
    /// Maintenance cost ratio of that arm (cross-check value).
    pub fig4_mot_ratio: f64,
    /// Oracle ledger hits after the replay (0 without a ledger).
    pub oracle_cache_hits: u64,
    /// Oracle ledger misses (solves) after the replay (0 without one).
    pub oracle_cache_misses: u64,
    /// Backend-reported resident bytes after the replay.
    pub oracle_memory_bytes: usize,
}

/// Wall-clock and deterministic cost numbers for one service soak.
///
/// `wall_secs` / `ops_per_sec` drift with the machine and are
/// delta-gated with a tolerance in CI; the cost quantiles come from the
/// deterministic per-op ledgers (bit-identical across `--jobs` and
/// machines) and are gated *exactly*.
#[derive(Clone, Debug)]
pub struct ServiceTiming {
    /// Spec name (`smoke` / `quick` / `standard` / `paper`).
    pub name: String,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Node count.
    pub nodes: usize,
    /// Tracked objects.
    pub objects: usize,
    /// Ops in the stream.
    pub ops: u64,
    /// Shard count.
    pub shards: usize,
    /// Worker threads the soak ran with (`0` = auto).
    pub jobs: usize,
    /// End-to-end soak wall-clock.
    pub wall_secs: f64,
    /// `ops / wall_secs`.
    pub ops_per_sec: f64,
    /// Median move cost (deterministic).
    pub move_p50_cost: f64,
    /// 99th-percentile move cost (deterministic).
    pub move_p99_cost: f64,
    /// Median query cost (deterministic).
    pub query_p50_cost: f64,
    /// 99th-percentile query cost (deterministic).
    pub query_p99_cost: f64,
}

/// A full `bench-baseline` report, serializable as schema'd JSON.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// Always [`BENCH_SCHEMA`].
    pub schema: &'static str,
    /// Profile name the run used.
    pub profile: String,
    /// Distance-backend label.
    pub oracle: String,
    /// Recorded `--jobs` value (provenance only).
    pub jobs: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub hardware_threads: usize,
    /// One entry per size, in run order.
    pub sizes: Vec<SizeTiming>,
    /// One entry per service soak, in run order.
    pub service: Vec<ServiceTiming>,
}

/// The report as one line of JSON, matching the schema documented in
/// PERFORMANCE.md.
impl ToJson for BaselineReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("schema", self.schema)
                .field("profile", &self.profile)
                .field("oracle", &self.oracle)
                .field("jobs", self.jobs)
                .field("hardware_threads", self.hardware_threads)
                .field("sizes", &self.sizes)
                .field("service", &self.service);
        });
    }
}

impl ToJson for SizeTiming {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("topology", self.topology)
                .field("rows", self.rows)
                .field("cols", self.cols)
                .field("nodes", self.nodes)
                .field("graph_build_secs", self.graph_build_secs)
                .field("oracle_warmup_secs", self.oracle_warmup_secs)
                .field("hierarchy_secs", self.hierarchy_secs)
                .field("fig4_replay_secs", self.fig4_replay_secs)
                .field("fig4_mot_ratio", self.fig4_mot_ratio)
                .field("oracle_cache_hits", self.oracle_cache_hits)
                .field("oracle_cache_misses", self.oracle_cache_misses)
                .field("oracle_memory_bytes", self.oracle_memory_bytes);
        });
    }
}

impl ToJson for ServiceTiming {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("name", &self.name)
                .field("rows", self.rows)
                .field("cols", self.cols)
                .field("nodes", self.nodes)
                .field("objects", self.objects)
                .field("ops", self.ops)
                .field("shards", self.shards)
                .field("jobs", self.jobs)
                .field("wall_secs", self.wall_secs)
                .field("ops_per_sec", self.ops_per_sec)
                .field("move_p50_cost", self.move_p50_cost)
                .field("move_p99_cost", self.move_p99_cost)
                .field("query_p50_cost", self.query_p50_cost)
                .field("query_p99_cost", self.query_p99_cost);
        });
    }
}

impl BaselineReport {
    /// Human-readable summary table (same rendering pipeline as the
    /// figure experiments; seconds, plus the fig4 cost ratio).
    pub fn to_table(&self) -> crate::report::FigureTable {
        crate::report::FigureTable {
            title: format!(
                "bench-baseline phase timings, profile {}, oracle {}",
                self.profile, self.oracle
            ),
            x_label: "nodes".into(),
            columns: vec![
                "graph_s".into(),
                "oracle_s".into(),
                "hier_s".into(),
                "fig4_s".into(),
                "fig4_ratio".into(),
            ],
            rows: self
                .sizes
                .iter()
                .map(|s| {
                    let x = if s.topology == "grid" {
                        s.nodes.to_string()
                    } else {
                        format!("{} ({})", s.nodes, s.topology)
                    };
                    (
                        x,
                        vec![
                            s.graph_build_secs,
                            s.oracle_warmup_secs,
                            s.hierarchy_secs,
                            s.fig4_replay_secs,
                            s.fig4_mot_ratio,
                        ],
                    )
                })
                .collect(),
        }
    }

    /// Summary table of the service soaks; `None` when the profile ran
    /// none. Wall-clock columns are machine-dependent by nature — this
    /// table is a human summary, not a determinism surface.
    pub fn service_to_table(&self) -> Option<crate::report::FigureTable> {
        if self.service.is_empty() {
            return None;
        }
        Some(crate::report::FigureTable {
            title: format!("bench-baseline service soaks, profile {}", self.profile),
            x_label: "spec".into(),
            columns: vec![
                "wall_s".into(),
                "ops_per_s".into(),
                "move_p50".into(),
                "move_p99".into(),
                "query_p50".into(),
                "query_p99".into(),
            ],
            rows: self
                .service
                .iter()
                .map(|s| {
                    (
                        format!("{} ({}x{}, {} ops)", s.name, s.rows, s.cols, s.ops),
                        vec![
                            s.wall_secs,
                            s.ops_per_sec,
                            s.move_p50_cost,
                            s.move_p99_cost,
                            s.query_p50_cost,
                            s.query_p99_cost,
                        ],
                    )
                })
                .collect(),
        })
    }
}

/// Runs every phase of the baseline for every size in the profile.
///
/// Fails if any phase fails.
pub fn run_baseline(p: &BaselineProfile) -> Result<BaselineReport, BenchError> {
    let cfg = OverlayConfig::practical();
    let mut sizes = Vec::with_capacity(p.sizes.len());
    for &spec in &p.sizes {
        let t = Instant::now();
        let g = spec.build()?;
        let graph_build_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let oracle = p.oracle.build(&g)?;
        let oracle_warmup_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let overlay = build_doubling(&g, &*oracle, &cfg, p.seed);
        let hierarchy_secs = t.elapsed().as_secs_f64();

        let nodes = g.node_count();

        // Reuse the timed oracle and overlay instead of rebuilding a
        // bed from scratch: at these sizes a second hierarchy build
        // would dominate the phase, and the replay must bill against
        // the same backend whose warm-up was measured.
        let bed = TestBed {
            graph: g,
            oracle,
            overlay,
            faults: None,
        };
        let w =
            WorkloadSpec::new(p.objects, p.moves_per_object, p.seed * 7 + 1).generate(&bed.graph);
        let rates = DetectionRates::from_moves(&bed.graph, &w.move_pairs());
        let mut tracker = bed.make_tracker(Algo::Mot, &rates)?;
        let t = Instant::now();
        run_publish(tracker.as_mut(), &w)?;
        let stats = replay(tracker.as_mut(), &w, &bed.oracle, None)?.cost;
        let fig4_replay_secs = t.elapsed().as_secs_f64();
        drop(tracker);

        let ledger = bed.oracle.cache_stats().unwrap_or_default();
        let (rows, cols) = spec.rows_cols();
        sizes.push(SizeTiming {
            topology: spec.topology(),
            rows,
            cols,
            nodes,
            graph_build_secs,
            oracle_warmup_secs,
            hierarchy_secs,
            fig4_replay_secs,
            fig4_mot_ratio: stats.ratio(),
            oracle_cache_hits: ledger.hits,
            oracle_cache_misses: ledger.misses,
            oracle_memory_bytes: bed.oracle.memory_bytes(),
        });
    }
    let mut service = Vec::with_capacity(p.service.len());
    for (name, spec) in &p.service {
        let (_, rep) = service_run(spec)?;
        // The report's own wall clock wraps just the soak loop; bed
        // construction cost is the sizes section's concern.
        let wall_secs = rep.trailer.wall_secs;
        let (rows, cols) = spec.grid;
        let ops = spec.cfg.stream.ops;
        service.push(ServiceTiming {
            name: name.clone(),
            rows,
            cols,
            nodes: rows * cols,
            objects: spec.cfg.stream.objects,
            ops,
            shards: spec.cfg.shards,
            jobs: spec.cfg.jobs,
            wall_secs,
            ops_per_sec: ops as f64 / wall_secs.max(1e-12),
            move_p50_cost: rep.move_cost.quantile(0.5),
            move_p99_cost: rep.move_cost.quantile(0.99),
            query_p50_cost: rep.query_cost.quantile(0.5),
            query_p99_cost: rep.query_cost.quantile(0.99),
        });
    }
    Ok(BaselineReport {
        schema: BENCH_SCHEMA,
        profile: p.name.clone(),
        oracle: p.oracle.label().to_string(),
        jobs: p.jobs,
        hardware_threads: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        sizes,
        service,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BaselineProfile {
        BaselineProfile {
            name: "tiny".into(),
            sizes: vec![
                SizeSpec::Grid { rows: 4, cols: 4 },
                SizeSpec::Grid { rows: 5, cols: 5 },
            ],
            objects: 3,
            moves_per_object: 10,
            oracle: OracleKind::Auto,
            jobs: 1,
            seed: 1,
            service: vec![],
        }
    }

    /// A seconds-scale service spec for serialization coverage.
    fn micro_service() -> (String, ServiceSpec) {
        let mut s = ServiceSpec::smoke();
        s.cfg.stream.ops = 1_000;
        s.cfg.stream.objects = 30;
        ("micro".into(), s)
    }

    #[test]
    fn baseline_runs_and_serializes() {
        let mut p = tiny();
        p.service = vec![micro_service()];
        let report = run_baseline(&p).unwrap();
        assert_eq!(report.schema, BENCH_SCHEMA);
        assert_eq!(report.sizes.len(), 2);
        for s in &report.sizes {
            assert_eq!(s.topology, "grid");
            assert!(s.hierarchy_secs > 0.0);
            assert!(s.fig4_mot_ratio >= 1.0 - 1e-9, "ratio {}", s.fig4_mot_ratio);
        }
        assert_eq!(report.service.len(), 1);
        let sv = &report.service[0];
        assert_eq!((sv.name.as_str(), sv.nodes, sv.ops), ("micro", 144, 1_000));
        assert!(sv.wall_secs > 0.0 && sv.ops_per_sec > 0.0);
        assert!(sv.move_p99_cost >= sv.move_p50_cost);
        let json = JsonWriter::render(&report);
        assert!(json.contains("\"schema\":\"mot-bench-baseline/5\""));
        assert!(json.contains("\"topology\":\"grid\""));
        assert!(json.contains("\"nodes\":25"));
        assert!(json.contains("\"hierarchy_secs\""));
        assert!(json.contains("\"oracle_cache_hits\""));
        assert!(json.contains("\"name\":\"micro\""));
        assert!(json.contains("\"ops_per_sec\""));
        // No trailing commas before closers.
        assert!(!json.contains(",}") && !json.contains(",]"), "{json}");
        let service_table = report.service_to_table().unwrap();
        assert_eq!(service_table.rows.len(), 1);
    }

    #[test]
    fn geometric_sizes_run_and_are_labelled() {
        let mut p = tiny();
        p.sizes = vec![SizeSpec::Geometric {
            nodes: 60,
            side: 8.0,
            radius: 2.0,
            seed: 2,
        }];
        let report = run_baseline(&p).unwrap();
        let s = &report.sizes[0];
        assert_eq!(
            (s.topology, s.rows, s.cols, s.nodes),
            ("geometric", 0, 0, 60)
        );
        let json = JsonWriter::render(&report);
        assert!(json.contains("\"topology\":\"geometric\""));
        let table = report.to_table();
        assert_eq!(table.rows[0].0, "60 (geometric)");
    }

    #[test]
    fn cached_backend_reports_ledger_counters() {
        let mut p = tiny();
        p.sizes = vec![SizeSpec::Grid { rows: 5, cols: 5 }];
        p.oracle = OracleKind::Cached;
        let report = run_baseline(&p).unwrap();
        let s = &report.sizes[0];
        assert!(s.oracle_cache_misses > 0, "no misses recorded");
        assert_eq!(s.oracle_memory_bytes, 0, "the solver stores no distances");
        // Dense has no ledger: counters stay zero.
        let dense = run_baseline(&tiny()).unwrap();
        assert_eq!(dense.sizes[0].oracle_cache_hits, 0);
        assert_eq!(dense.sizes[0].oracle_cache_misses, 0);
    }

    #[test]
    fn report_serializes_without_the_reference_phase() {
        // A large size's report built by hand, so no 65 536-node bench
        // runs: schema /5 carries no reference-builder phase.
        let report = BaselineReport {
            schema: BENCH_SCHEMA,
            profile: "test".into(),
            oracle: "cached".into(),
            jobs: 1,
            hardware_threads: 1,
            sizes: vec![SizeTiming {
                topology: "grid",
                rows: 256,
                cols: 256,
                nodes: 65536,
                graph_build_secs: 0.1,
                oracle_warmup_secs: 0.1,
                hierarchy_secs: 0.1,
                fig4_replay_secs: 0.1,
                fig4_mot_ratio: 1.5,
                oracle_cache_hits: 10,
                oracle_cache_misses: 5,
                oracle_memory_bytes: 1024,
            }],
            service: vec![],
        };
        let json = JsonWriter::render(&report);
        // A key is a quoted token with a colon after it.
        let tokens: Vec<&str> = json.split('"').collect();
        let keys: Vec<&str> = tokens
            .windows(2)
            .filter(|t| t[1].starts_with(':'))
            .map(|t| t[0])
            .collect();
        let size_keys = [
            "topology",
            "rows",
            "cols",
            "nodes",
            "graph_build_secs",
            "oracle_warmup_secs",
            "hierarchy_secs",
            "fig4_replay_secs",
            "fig4_mot_ratio",
            "oracle_cache_hits",
            "oracle_cache_misses",
            "oracle_memory_bytes",
        ];
        let head = [
            "schema",
            "profile",
            "oracle",
            "jobs",
            "hardware_threads",
            "sizes",
        ];
        assert_eq!(
            keys,
            [&head[..], &size_keys, &["service"]].concat(),
            "{json}"
        );
        assert!(!json.contains(",}") && !json.contains(",]"), "{json}");
        let table = report.to_table();
        assert_eq!(
            table.columns,
            ["graph_s", "oracle_s", "hier_s", "fig4_s", "fig4_ratio"]
        );
        assert_eq!(table.rows[0].1[3], 0.1);
        assert!(report.service_to_table().is_none());
    }

    #[test]
    fn named_profiles_resolve() {
        let smoke = BaselineProfile::for_name("smoke").unwrap();
        assert_eq!(smoke.name, "smoke");
        assert_eq!(smoke.service[0].0, "smoke");
        let full = BaselineProfile::for_name("full").unwrap();
        assert_eq!(full.name, "full");
        assert!(full.sizes.iter().any(|s| s.nodes() >= 100_000));
        // CI delta-gates service phases by name against the committed
        // full artifact, so the smoke spec must appear in both.
        assert!(full.service.iter().any(|(n, _)| n == "smoke"));
        // The committed artifact documents the on-demand cost profile,
        // so the full run must not fall back to a dense warm-up at any
        // size.
        assert_eq!(full.oracle, OracleKind::Cached);
        assert!(BaselineProfile::for_name("nope").is_none());
    }
}
