//! `mot-benchmark`: the repository's wall-clock benchmark. See README.md.
//!
//! ```text
//! mot-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! mot-benchmark [--seed N] [--seconds S]          # every workload, both passes
//! mot-benchmark compare A.json B.json
//! ```
//!
//! Use `run.sh`, which builds this binary and fixes the allocator
//! settings the memory metric depends on.

mod compare;
mod harness;
mod host;
mod json;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{drive, Args, Error, Outcome};
use metrics::WORKLOADS;
use workloads::{cold_start::ColdStart, figures::Figures, replay::Replay, service::Service};

/// Seconds one run measures for unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 12;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       run.sh compare A.json B.json
       run.sh --check";

/// Parses the flags. No `--workload` leaves the name empty: run them all.
fn parse_cli(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(n, _)| n == value) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!("unknown workload {value:?}; one of {names:?}"));
                }
                args.workload = value.clone();
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<Outcome, Error> {
    match args.workload.as_str() {
        "cold_start_grid256" => drive(&ColdStart, args),
        "replay_grid256" => drive(&Replay, args),
        "service_soak" => drive(&Service { reads: false }, args),
        "service_reads" => drive(&Service { reads: true }, args),
        "figures_standard" => drive(&Figures, args),
        other => unreachable!("workload {other} passed validation but has no runner"),
    }
}

/// The full record of one run, as `out/result-*.json` and `results.json`
/// hold it.
fn record_json(args: &Args, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{}}}",
                m.def.name, m.summary.median, m.def.unit, m.summary.q1, m.summary.q3, m.summary.n
            )
        })
        .collect();
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"reps\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{:#018x}\",\
         \"counts\":{{{}}},\"metrics\":{{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        out.reps,
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        out.digest,
        counts.join(","),
        metrics.join(","),
    )
}

/// The last line of standard output: the object the driver reads.
fn contract_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.def.name, m.summary.median, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(",")
    )
}

fn result_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("result-{workload}-trace{}.json", u8::from(trace)))
}

/// One workload in this process.
fn single(args: &Args) -> Result<bool, Error> {
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    let out = run_workload(args)?;
    println!(
        "reps {} checks {} failed {} digest {:#018x}",
        out.reps, out.tally.attempted, out.tally.failed, out.digest
    );
    for m in &out.metrics {
        let s = &m.summary;
        if s.n > 1 {
            println!(
                "{:<32} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {}",
                m.def.name, s.median, m.def.unit, s.q1, s.q3, s.n
            );
        } else {
            println!("{:<32} {:>16.6} {}", m.def.name, s.median, m.def.unit);
        }
    }
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(
        result_path(&args.out_dir, &args.workload, args.trace),
        record_json(args, &out) + "\n",
    )?;
    println!("{}", contract_json(&out));
    Ok(out.tally.failed == 0)
}

/// Every workload, one child process each per pass (so peak RSS belongs
/// to one workload), run one after the other; their records are gathered
/// into `out/results.json`.
fn all(cli: &Args) -> Result<bool, Error> {
    let exe = std::env::current_exe()?;
    let mut records = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .arg("--out")
                .arg(&cli.out_dir)
                .status()?;
            ok &= status.success();
            let path = result_path(&cli.out_dir, name, trace == "1");
            match std::fs::read_to_string(&path) {
                Ok(text) => records.push(text.trim_end().to_string()),
                Err(e) => {
                    return Err(format!("{name}: no result at {}: {e}", path.display()).into())
                }
            }
            println!();
        }
    }
    let env = |k: &str| json::escape(&std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let text = format!(
        "{{\"schema\":\"mot-benchmark/1\",\"nproc\":{},\"rustc\":\"{}\",\"git_sha\":\"{}\",\
         \"seed\":{},\"seconds\":{},\"runs\":[\n{}\n]}}\n",
        host::nproc(),
        env("BENCH_RUSTC"),
        env("BENCH_GIT_SHA"),
        cli.seed,
        cli.seconds,
        records.join(",\n")
    );
    let path = cli.out_dir.join("results.json");
    std::fs::write(&path, text)?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)).map_err(Error::from),
            _ => Err(USAGE.into()),
        }
    } else {
        parse_cli(&argv)
            .map_err(|e| Error::from(format!("{e}\n{USAGE}")))
            .and_then(|args| {
                if args.workload.is_empty() {
                    all(&args)
                } else {
                    single(&args)
                }
            })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
