//! The determinism contract of the fan-out engine (DESIGN.md §12):
//! every figure table, CSV file, and metrics report must be
//! byte-identical whatever `--jobs` says. Cells derive their randomness
//! from their own (figure, size, algo, seed) key and merge in canonical
//! cell order, so worker count and scheduling can only change
//! wall-clock time — these tests fail on the first byte that differs.
//! That includes which worker happens to build the inputs a sweep's
//! cells share: with two and four workers the builder changes from run
//! to run, and the bytes may not.

use mot_bench::{
    churn_table, faults_table, figure_pair, load_figure, locality_table, maintenance_figure,
    mobility_table, query_figure, FigureTable, Profile,
};
use mot_core::JsonWriter;
use mot_sim::{Algo, CellKey, Keyed, ParallelRunner, SimError};

/// A small but non-trivial profile: 3 grids × 2 seeds × the full
/// algorithm lineup per sweep figure.
fn profile(jobs: usize) -> Profile {
    Profile::quick(8).with_jobs(jobs)
}

fn bytes_of(t: &FigureTable) -> (String, String) {
    (t.to_csv(), JsonWriter::render(&t))
}

/// Every runner on shared inputs but the fault sweep (below), one-by-one
/// and concurrent, at 1, 2 and 4 jobs.
#[test]
fn tables_are_byte_identical_for_1_and_4_jobs() {
    let runs: Vec<Vec<(String, String)>> = [1usize, 2, 4]
        .iter()
        .map(|&jobs| {
            let p = profile(jobs);
            vec![
                bytes_of(&maintenance_figure(&p, false).expect("maintenance")),
                bytes_of(&query_figure(&p, false).expect("query")),
                bytes_of(&maintenance_figure(&p, true).expect("concurrent maintenance")),
                bytes_of(&query_figure(&p, true).expect("concurrent query")),
                bytes_of(&load_figure(&p, Algo::Stun, 10).expect("load").0),
                bytes_of(&locality_table(&p).expect("locality").0),
                bytes_of(&mobility_table(&p).expect("mobility").0),
            ]
        })
        .collect();
    for (jobs, run) in [2, 4].iter().zip(&runs[1..]) {
        for (i, (a, b)) in runs[0].iter().zip(run).enumerate() {
            assert_eq!(a.0, b.0, "CSV bytes differ for table {i} at {jobs} jobs");
            assert_eq!(a.1, b.1, "JSON bytes differ for table {i} at {jobs} jobs");
        }
    }
}

/// A maintenance figure is the maintenance half of its query figure's
/// sweep: run alone (no queries) it has the same bytes, one-by-one and
/// concurrent, at 1 and 2 jobs.
#[test]
fn a_maintenance_figure_is_the_maintenance_half_of_its_query_sweep() {
    for jobs in [1, 2] {
        let p = profile(jobs);
        for concurrent in [false, true] {
            let lone = maintenance_figure(&p, concurrent).expect("maintenance");
            let pair = figure_pair(&p, concurrent, true).expect("pair");
            assert!(
                pair.query.is_some(),
                "the query-bearing sweep has its query table"
            );
            let what = format!("jobs {jobs}, concurrent {concurrent}");
            assert_eq!(bytes_of(&lone), bytes_of(&pair.maintenance), "{what}");
        }
    }
}

#[test]
fn churn_experiment_is_byte_identical_for_1_and_4_jobs() {
    // The churn table's cells mutate per-cell hierarchy state; parity
    // proves the repair replay never leans on shared mutable state.
    let a = churn_table(1).expect("churn jobs=1");
    let b = churn_table(4).expect("churn jobs=4");
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(JsonWriter::render(&a), JsonWriter::render(&b));
}

#[test]
fn fault_sweep_is_byte_identical_for_1_and_4_jobs() {
    // The faults table exercises the widest cell fan-out (crashes ×
    // drop × algo × seed) and the most merge accumulation.
    let mut p = profile(1);
    p.moves_per_object = 20;
    p.queries = 40;
    let (a, _) = faults_table(&p, (8, 8)).expect("faults jobs=1");
    let (b, _) = faults_table(&p.clone().with_jobs(4), (8, 8)).expect("faults jobs=4");
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(JsonWriter::render(&a), JsonWriter::render(&b));
}

/// Runs the `experiments` binary; it must succeed.
fn experiments(args: &[&str]) -> std::process::Output {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments");
    assert!(out.status.success(), "experiments {args:?} failed");
    out
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// End-to-end parity through the `experiments` binary: identical CSV
/// files and identical `--metrics` JSON (after dropping the wall-clock
/// `timings_secs` span, the one intentionally non-deterministic field).
/// `fig4 fig6` is one sweep with queries; `fig4` alone runs it without
/// them and must write the same `fig4.csv`.
#[test]
fn binary_output_is_byte_identical_across_jobs() {
    let tmp = scratch("jobs-parity");
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let csv = tmp.join(format!("csv{jobs}"));
        let metrics = tmp.join(format!("metrics{jobs}.json"));
        let (csv_dir, metrics_file) = (csv.to_str().unwrap(), metrics.to_str().unwrap());
        experiments(&[
            "--profile",
            "quick",
            "--jobs",
            jobs,
            "--csv",
            csv_dir,
            "--metrics",
            metrics_file,
            "fig4",
            "fig6",
        ]);
        let fig4 = std::fs::read(csv.join("fig4.csv")).expect("fig4.csv");
        let fig6 = std::fs::read(csv.join("fig6.csv")).expect("fig6.csv");
        let json = std::fs::read_to_string(&metrics).expect("metrics.json");
        outputs.push((fig4, fig6, strip_timings(&json)));
    }
    let lone = tmp.join("fig4-alone");
    experiments(&[
        "--profile",
        "quick",
        "--jobs",
        "2",
        "--csv",
        lone.to_str().unwrap(),
        "fig4",
    ]);
    let lone_fig4 = std::fs::read(lone.join("fig4.csv")).expect("lone fig4.csv");
    let _ = std::fs::remove_dir_all(&tmp);
    assert_eq!(
        lone_fig4, outputs[0].0,
        "fig4.csv differs alone and with fig6"
    );
    assert_eq!(outputs[0].0, outputs[1].0, "fig4.csv differs across --jobs");
    assert_eq!(outputs[0].1, outputs[1].1, "fig6.csv differs across --jobs");
    assert_eq!(
        outputs[0].2, outputs[1].2,
        "metrics JSON differs across --jobs (timings stripped)"
    );
}

/// `--profile-phases` writes only to stderr: stdout is byte-identical
/// with and without it, and every sweep-shaped id prints its block
/// (`fig4` alone runs the maintenance sweep), the shared-input builds
/// timed one by one.
#[test]
fn profile_phases_leave_stdout_alone_and_time_every_sweep() {
    let ids = ["fig4", "fig8", "locality", "mobility", "faults-smoke"];
    let args = ["--profile", "quick", "--jobs", "2"];
    let plain = experiments(&[&args[..], &ids].concat());
    let timed = experiments(&[&args[..], &["--profile-phases"], &ids].concat());
    assert_eq!(
        plain.stdout, timed.stdout,
        "--profile-phases changed stdout"
    );
    let stderr = String::from_utf8(timed.stderr).expect("utf-8 stderr");
    for sweep in ["maint", "load", "locality", "mobility", "faults"] {
        let block = format!("profile-phases: {sweep} sweep, ");
        assert_eq!(stderr.matches(&block).count(), 1, "{block}\n{stderr}");
    }
    for build in ["graph", "oracle", "overlay", "workload+rates"] {
        let row = format!("\n    {build} ");
        assert!(stderr.contains(&row), "{build}\n{stderr}");
    }
}

/// The `--metrics` report (timings stripped) and the `--trace` NDJSON of
/// one fixed quick run, pinned by digest: any change to how a table, a
/// ledger, a histogram or a trace event is written moves them.
#[test]
fn metrics_and_trace_bytes_are_pinned() {
    let tmp = scratch("json-pins");
    let (metrics, trace) = (tmp.join("metrics.json"), tmp.join("trace.ndjson"));
    experiments(&[
        "--profile",
        "quick",
        "--jobs",
        "2",
        "--metrics",
        metrics.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "fig4",
        "fig6",
        "level-decomp",
    ]);
    let json = std::fs::read_to_string(&metrics).expect("metrics.json");
    let events = std::fs::read(&trace).expect("trace.ndjson");
    let _ = std::fs::remove_dir_all(&tmp);
    let report = fnv1a(strip_timings(&json).as_bytes());
    assert_eq!(report, 0x57c0_d68a_892d_35a2, "metrics {report:#x}");
    let events = fnv1a(&events);
    assert_eq!(events, 0xe9e2_5c51_9312_56ba, "trace {events:#x}");
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Removes the `"timings_secs":{...}` span — wall-clock measurements,
/// the only part of the report allowed to vary between runs.
fn strip_timings(json: &str) -> String {
    let start = json
        .find("\"timings_secs\":{")
        .expect("report has timings_secs");
    let rest = &json[start..];
    let close = rest.find('}').expect("timings object closes");
    format!("{}{}", &json[..start], &rest[close + 1..])
}

#[test]
fn worker_panic_is_reported_as_the_cell_and_others_complete() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cells: Vec<Keyed<usize>> = (0..9)
        .map(|i| Keyed::new(CellKey::new("poison", 64, "MOT", i as u64), i))
        .collect();
    let completed = AtomicUsize::new(0);
    let err = ParallelRunner::new(4)
        .run(&cells, |cell| -> Result<usize, SimError> {
            if cell.data == 5 {
                panic!("poisoned cell");
            }
            completed.fetch_add(1, Ordering::SeqCst);
            Ok(cell.data)
        })
        .expect_err("poisoned cell must fail the run");
    match err {
        SimError::Cell { key, cause } => {
            assert_eq!(key.seed, 5, "wrong cell blamed: {key}");
            assert!(cause.contains("poisoned cell"), "cause lost: {cause}");
        }
        other => panic!("expected SimError::Cell, got {other}"),
    }
    // The panic poisons one cell, not the pool: every other cell ran.
    assert_eq!(completed.load(Ordering::SeqCst), 8);
}
