//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--profile quick|standard|paper] [--jobs N]
//!             [--oracle auto|dense|cached]
//!             [--csv DIR] [--metrics FILE.json] [--trace FILE.ndjson]
//!             [--bench-out FILE.json] [--profile-phases]
//!             [--experiment ID] [IDS...]
//! ```
//!
//! `--jobs N` sizes the fan-out worker pool (default 0 = one worker per
//! hardware thread). Output is bit-identical for every value — see
//! DESIGN.md §12 — so the flag only changes wall-clock time.
//!
//! The maintenance and query figures of one execution mode and object
//! count are one sweep (fig4/fig6, fig5/fig7, fig12/fig14, fig13/fig15):
//! when both ids of a pair are asked for (`all` always asks), the sweep
//! runs once, with its queries, for the first of them, and the other's
//! table is printed and written in its own turn, so its `[figN took …]`
//! reads near zero. A lone maintenance id runs the sweep without queries.
//!
//! `IDS` default to every figure. Examples:
//!
//! ```text
//! cargo run --release -p mot-bench --bin experiments -- fig4 fig6
//! cargo run --release -p mot-bench --bin experiments -- --profile paper all
//! cargo run --release -p mot-bench --bin experiments -- --oracle cached scale
//! cargo run --release -p mot-bench --bin experiments -- --profile quick faults-smoke
//! cargo run --release -p mot-bench --bin experiments -- --jobs 2 --metrics svc.json service-smoke
//! cargo run --release -p mot-bench --bin experiments -- --experiment churn-smoke
//! cargo run --release -p mot-bench --bin experiments -- churn-smoke
//! cargo run --release -p mot-bench --bin experiments -- --profile quick --csv out scenarios
//! cargo run --release -p mot-bench --bin experiments -- --jobs 2 scenarios-smoke
//! cargo run --release -p mot-bench --bin experiments -- --metrics out.json fig4 level-decomp
//! cargo run --release -p mot-bench --bin experiments -- --profile smoke bench-baseline
//! ```
//!
//! `bench-baseline` is the wall-clock harness (PERFORMANCE.md): it times
//! graph build, oracle warm-up, hierarchy construction and a fig4
//! replay per size, plus the profile's service soaks, then writes the
//! schema'd JSON to `--bench-out` (default `BENCH_pr8.json`). Its profiles are `smoke`/`full`; the figure
//! profile names map onto them.
//!
//! `--profile-phases` additionally prints to stderr, for every
//! sweep-shaped figure (`fig4`…`fig15`, `locality`, `mobility`,
//! `faults`, `faults-smoke`), where the sweep's time went: seconds
//! summed over cells per shared input (graph, oracle, overlay,
//! workload) and per cell phase, split by algorithm, and the runner's
//! efficiency (a figure pair's sweep prints once, under the id that ran
//! it).
//! Stdout tables are unaffected, so the flag composes with `--csv` and
//! the determinism checks. See PERFORMANCE.md for the flamegraph recipe
//! when per-function attribution is needed below phase granularity.
//!
//! `--metrics` writes every produced table, per-experiment wall-clock,
//! and the fixed-seed instrumented run's aggregates as one JSON report;
//! `--trace` dumps that run's raw event stream as NDJSON (one event per
//! line, deterministic for a fixed profile).
//!
//! Any failure — bad arguments, an unwritable CSV directory, a tracker
//! error, or a runner's own health check (wrong query answers,
//! unrepaired objects) — exits nonzero with a readable message.

use mot_bench::{
    ablation_table, churn_smoke_table, churn_table, faults_table, figure_pair, general_graph_table,
    instrumented_run, level_decomposition_table, load_figure, locality_table, mobility_table,
    publish_cost_table, run_baseline, scale_table, scenario_tables, scenarios_smoke_table,
    service_run, state_size_table, trace_events, BaselineProfile, BenchError, FigurePair,
    FigureTable, Profile, RunReport, ScenarioProfile, ServiceSpec, SweepPhases,
};
use mot_core::JsonWriter;
use mot_net::OracleKind;
use mot_sim::{Algo, ServiceReport};
use std::io::Write;
use std::process::ExitCode;

const ALL_IDS: [&str; 29] = [
    "bench-baseline",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "pub-cost",
    "ablations",
    "general",
    "churn",
    "churn-smoke",
    "scenarios",
    "scenarios-smoke",
    "state-size",
    "locality",
    "mobility",
    "scale",
    "faults",
    "faults-smoke",
    "service",
    "service-smoke",
    "level-decomp",
];

/// The figure pairs one sweep serves (see the module docs):
/// `(maintenance id, query id, objects, concurrent)`.
const PAIRS: [(&str, &str, usize, bool); 4] = [
    ("fig4", "fig6", 100, false),
    ("fig5", "fig7", 1000, false),
    ("fig12", "fig14", 100, true),
    ("fig13", "fig15", 1000, true),
];

fn profile_for(
    objects: usize,
    name: &str,
    oracle: OracleKind,
    jobs: usize,
) -> Result<Profile, BenchError> {
    Ok(match name {
        "quick" => Profile::quick(objects),
        "standard" => Profile::standard(objects),
        "paper" => Profile::paper(objects),
        other => return Err(format!("unknown profile '{other}' (quick|standard|paper)").into()),
    }
    .with_oracle(oracle)
    .with_jobs(jobs))
}

/// The `scale` experiment sweeps grids past the paper's sizes; the
/// largest (64×64 = 4096 nodes) sits exactly at the dense limit, so
/// `--oracle cached` runs it well under the dense matrix's 64 MiB.
fn scale_profile(name: &str, oracle: OracleKind, jobs: usize) -> Result<Profile, BenchError> {
    let mut p = profile_for(50, name, oracle, jobs)?;
    p.grids = vec![(32, 32), (64, 64)];
    Ok(p)
}

/// The CI smoke environment: a fixed-seed quick profile on a 16×16 grid
/// whose health checks (all queries correct, zero unrepaired objects)
/// fail the process — the `--profile` flag deliberately has no effect.
fn smoke_profile(oracle: OracleKind, jobs: usize) -> Profile {
    let mut p = Profile::quick(10).with_oracle(oracle).with_jobs(jobs);
    p.moves_per_object = 60;
    p.queries = 120;
    p
}

/// `bench-baseline` measures wall-clock, not cost ratios, so it has its
/// own scale names: `smoke` (CI seconds-scale, `auto` backend) and
/// `full` (the committed `BENCH_pr8.json` artifact, up to 2^20 nodes on
/// the cached backend). The figure profile names map onto them so
/// `--profile quick all` keeps working. An explicit `--oracle` flag
/// overrides either profile's default backend; without it each profile
/// keeps its own.
fn baseline_profile_for(
    name: &str,
    oracle: Option<OracleKind>,
    jobs: usize,
) -> Result<BaselineProfile, BenchError> {
    let mut p = match name {
        "smoke" | "quick" => BaselineProfile::smoke(),
        "full" | "standard" | "paper" => BaselineProfile::full(),
        other => return Err(format!("unknown bench profile '{other}' (smoke|full)").into()),
    };
    if let Some(kind) = oracle {
        p = p.with_oracle(kind);
    }
    Ok(p.with_jobs(jobs))
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile_name = "standard".to_string();
    let mut oracle_flag: Option<OracleKind> = None;
    let mut csv_dir: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut jobs: usize = 0;
    let mut bench_out = "BENCH_pr8.json".to_string();
    let mut profile_phases = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => profile_name = it.next().ok_or("--profile needs a value")?,
            "--oracle" => {
                let v = it
                    .next()
                    .ok_or("--oracle needs a value (auto|dense|cached)")?;
                oracle_flag = Some(
                    OracleKind::parse(&v)
                        .ok_or_else(|| format!("unknown oracle '{v}' (auto|dense|cached)"))?,
                );
            }
            "--csv" => csv_dir = Some(it.next().ok_or("--csv needs a directory")?),
            "--metrics" => metrics_path = Some(it.next().ok_or("--metrics needs a file path")?),
            "--trace" => trace_path = Some(it.next().ok_or("--trace needs a file path")?),
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a worker count (0 = auto)")?;
                jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs needs a number, got '{v}'"))?;
            }
            "--bench-out" => bench_out = it.next().ok_or("--bench-out needs a file path")?,
            "--profile-phases" => profile_phases = true,
            // Alias for a positional id — reads naturally in scripts:
            // `experiments --experiment churn-smoke`.
            "--experiment" => ids.push(it.next().ok_or("--experiment needs an id")?),
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--profile quick|standard|paper] [--jobs N]\n\
                     \x20                  [--oracle auto|dense|cached] [--csv DIR]\n\
                     \x20                  [--metrics FILE.json] [--trace FILE.ndjson]\n\
                     \x20                  [--bench-out FILE.json] [--profile-phases]\n\
                     \x20                  [--experiment ID] [IDS...]\n\
                     ids: {}\n\
                     \x20    all\n\
                     fig4/fig6, fig5/fig7, fig12/fig14 and fig13/fig15 are one sweep\n\
                     each: asked for together they run it once (the second id's\n\
                     time reads near zero); a lone fig4/5/12/13 runs no queries;\n\
                     bench-baseline also accepts --profile smoke|full and writes\n\
                     its phase timings to --bench-out (default BENCH_pr8.json);\n\
                     --profile-phases prints where each sweep figure's time went\n\
                     (stderr);\n\
                     scenarios prints one table per family (waypoint levy hotspot\n\
                     zipf adversarial) before its summary — see EXPERIMENTS.md's\n\
                     scenario handbook",
                    ALL_IDS.join(" ")
                );
                return Ok(());
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    // Figure experiments default to Auto; bench-baseline profiles carry
    // their own backend default and only an explicit flag overrides it.
    let oracle = oracle_flag.unwrap_or(OracleKind::Auto);

    let emit = |table: FigureTable, id: &str| -> Result<(), BenchError> {
        println!("{}", table.render());
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create csv dir '{dir}': {e}"))?;
            let path = format!("{dir}/{id}.csv");
            let mut f =
                std::fs::File::create(&path).map_err(|e| format!("cannot create '{path}': {e}"))?;
            f.write_all(table.to_csv().as_bytes())
                .map_err(|e| format!("cannot write '{path}': {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    };

    let mut report = RunReport {
        profile: profile_name.clone(),
        oracle: oracle.label().to_string(),
        ..RunReport::default()
    };
    // Runs the chaos soak, prints its wall-clock throughput (stderr —
    // tables stay byte-identical across --jobs), and stashes the full
    // report for the --metrics trailer.
    let run_service_id = |spec: ServiceSpec,
                          service_out: &mut Option<ServiceReport>|
     -> Result<FigureTable, BenchError> {
        let (table, rep) = service_run(&spec)?;
        let wall = &rep.trailer;
        eprintln!(
            "[service: {} ops in {:.2}s = {:.0} ops/s, {} workers]",
            rep.sent,
            wall.wall_secs,
            rep.sent as f64 / wall.wall_secs.max(1e-9),
            wall.workers
        );
        *service_out = Some(rep);
        Ok(table)
    };
    // A sweep's timings go to stderr when asked for.
    let print_phases = |phases: &SweepPhases| {
        if profile_phases {
            eprint!("{}", phases.render());
        }
    };
    // A sweep-shaped figure: its timings as above, its table down the
    // common path.
    let sweep = |run: Result<(FigureTable, SweepPhases), BenchError>| {
        run.map(|(table, phases)| {
            print_phases(&phases);
            table
        })
    };
    // A figure pair's id: one sweep, with the queries if `fig` is the
    // query figure or its partner comes `later`, in which case the
    // partner's table is held for its turn.
    let run_pair = |fig: &str, later: &[String], held: &mut Vec<(&str, FigureTable)>| {
        let &(maint_id, query_id, objects, concurrent) = PAIRS
            .iter()
            .find(|&&(m, q, ..)| fig == m || fig == q)
            .ok_or("not a figure pair")?;
        let wants_query = fig == query_id;
        let partner = if wants_query { maint_id } else { query_id };
        let partner_later = later.iter().any(|id| id == partner);
        let p = profile_for(objects, &profile_name, oracle, jobs)?;
        let FigurePair {
            maintenance,
            query,
            phases,
        } = figure_pair(&p, concurrent, wants_query || partner_later)?;
        print_phases(&phases);
        let (mine, theirs) = if wants_query {
            (query, Some(maintenance))
        } else {
            (Some(maintenance), query)
        };
        if let (true, Some(table)) = (partner_later, theirs) {
            held.push((partner, table));
        }
        mine.ok_or_else(|| BenchError::from("the sweep ran no queries"))
    };
    let mut service_report = None;
    // Tables a figure pair's sweep made for an id still to come.
    let mut held: Vec<(&str, FigureTable)> = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let started = std::time::Instant::now();
        let name = profile_name.as_str();
        let table = match id.as_str() {
            fig if PAIRS.iter().any(|&(m, q, ..)| fig == m || fig == q) => {
                match held.iter().position(|(h, _)| *h == fig) {
                    // Its partner's sweep made it.
                    Some(at) => Ok(held.swap_remove(at).1),
                    None => run_pair(fig, &ids[i + 1..], &mut held),
                }
            }
            "bench-baseline" => baseline_profile_for(name, oracle_flag, jobs)
                .and_then(|bp| run_baseline(&bp))
                .and_then(|rep| {
                    std::fs::write(&bench_out, JsonWriter::render(&rep) + "\n")
                        .map_err(|e| format!("cannot write '{bench_out}': {e}"))?;
                    eprintln!("wrote {bench_out}");
                    if let Some(service) = rep.service_to_table() {
                        println!("{}", service.render());
                    }
                    Ok(rep.to_table())
                }),
            "fig8" => sweep(load_figure(
                &profile_for(100, name, oracle, jobs)?,
                Algo::Stun,
                0,
            )),
            "fig9" => sweep(load_figure(
                &profile_for(100, name, oracle, jobs)?,
                Algo::Stun,
                10,
            )),
            "fig10" => sweep(load_figure(
                &profile_for(100, name, oracle, jobs)?,
                Algo::Zdat,
                0,
            )),
            "fig11" => sweep(load_figure(
                &profile_for(100, name, oracle, jobs)?,
                Algo::Zdat,
                10,
            )),
            "pub-cost" => publish_cost_table(&profile_for(100, name, oracle, jobs)?),
            "ablations" => ablation_table(&profile_for(100, name, oracle, jobs)?),
            "general" => general_graph_table(&profile_for(50, name, oracle, jobs)?),
            "churn" => churn_table(jobs),
            // Fixed CI spec: --profile has no effect, --jobs does
            // (table parity across jobs is part of the contract).
            "churn-smoke" => churn_smoke_table(jobs),
            // Emits one detail table per scenario family, then hands the
            // cross-family summary back through the normal emit path so
            // `{csv}/scenarios.csv` and the metrics report stay uniform.
            "scenarios" => (|| {
                let p = ScenarioProfile::for_profile(name)?.with_jobs(jobs);
                let mut tables = scenario_tables(&p)?;
                let (_, summary) = tables.pop().ok_or("scenario sweep produced no summary")?;
                for (fid, t) in tables {
                    if metrics_path.is_some() {
                        report.tables.push((fid.clone(), t.clone()));
                    }
                    emit(t, &fid)?;
                }
                Ok(summary)
            })(),
            // Fixed CI spec: --profile has no effect, --jobs does.
            "scenarios-smoke" => scenarios_smoke_table(jobs),
            "state-size" => state_size_table(&profile_for(100, name, oracle, jobs)?),
            "locality" => sweep(locality_table(&profile_for(100, name, oracle, jobs)?)),
            "mobility" => sweep(mobility_table(&profile_for(50, name, oracle, jobs)?)),
            "scale" => scale_table(&scale_profile(name, oracle, jobs)?),
            "faults" => sweep(faults_table(
                &profile_for(100, name, oracle, jobs)?,
                (32, 32),
            )),
            "faults-smoke" => sweep(faults_table(&smoke_profile(oracle, jobs), (16, 16))),
            "service" => ServiceSpec::for_profile(name)
                .map(|s| s.with_oracle(oracle).with_jobs(jobs))
                .and_then(|s| run_service_id(s, &mut service_report)),
            "service-smoke" => {
                // Fixed CI spec: --profile has no effect, --jobs does
                // (parity is part of the contract being smoked).
                let mut spec = ServiceSpec::smoke().with_oracle(oracle);
                if jobs != 0 {
                    spec = spec.with_jobs(jobs);
                }
                run_service_id(spec, &mut service_report)
            }
            "level-decomp" => level_decomposition_table(&profile_for(100, name, oracle, jobs)?),
            other => {
                let known = ALL_IDS.join(" ");
                return Err(format!("unknown experiment id '{other}' (known: {known} all)").into());
            }
        };
        let table = table.map_err(|e| format!("experiment '{id}' failed: {e}"))?;
        if metrics_path.is_some() {
            report.tables.push((id.clone(), table.clone()));
        }
        emit(table, id)?;
        report
            .timings_secs
            .push((id.clone(), started.elapsed().as_secs_f64()));
        eprintln!("[{id} took {:.1?}]", started.elapsed());
    }
    if let Some(path) = &trace_path {
        let events = trace_events(&profile_for(100, profile_name.as_str(), oracle, jobs)?, 1)
            .map_err(|e| format!("--trace run failed: {e}"))?;
        let mut out = String::new();
        for ev in &events {
            out.push_str(&JsonWriter::render(ev));
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write '{path}': {e}"))?;
        eprintln!("wrote {path} ({} events)", events.len());
    }
    if let Some(path) = &metrics_path {
        let (agg, cache, memory) =
            instrumented_run(&profile_for(100, profile_name.as_str(), oracle, jobs)?, 1)
                .map_err(|e| format!("--metrics instrumented run failed: {e}"))?;
        report.trace = Some(agg);
        report.cache = cache;
        report.memory = Some(memory);
        report.service = service_report;
        std::fs::write(path, JsonWriter::render(&report))
            .map_err(|e| format!("cannot write '{path}': {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
