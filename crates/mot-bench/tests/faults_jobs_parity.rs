//! FaultPlan × ParallelRunner interaction (ISSUE 7 satellite): faulty
//! replays must be byte-identical for `--jobs 1` vs `--jobs 4`.
//!
//! Fault coins are keyed on cell/op identity — never on scheduling —
//! so injected chaos composes with the fan-out engine without breaking
//! the DESIGN.md §12 determinism contract. These tests drive the
//! faulty paths (the fault-sweep figure and the chaos-soaked service
//! loop) through both the library and the `experiments` binary and
//! fail on the first byte that differs.

use mot_bench::{faults_table, service_table, Profile, ServiceSpec};
use mot_core::JsonWriter;

/// A fault sweep with more chaos per cell than the smoke default:
/// every drop-rate × crash-count × algo × seed cell replays a faulty
/// workload on its own RNG streams.
fn chaos_profile(jobs: usize) -> Profile {
    let mut p = Profile::quick(12).with_jobs(jobs);
    p.moves_per_object = 30;
    p.queries = 60;
    p.seeds = 3;
    p
}

#[test]
fn faulty_replay_tables_are_byte_identical_for_jobs_1_and_4() {
    let (a, _) = faults_table(&chaos_profile(1), (12, 12)).expect("faults jobs=1");
    let (b, _) = faults_table(&chaos_profile(4), (12, 12)).expect("faults jobs=4");
    assert_eq!(
        a.to_csv(),
        b.to_csv(),
        "fault sweep CSV differs across jobs"
    );
    assert_eq!(
        JsonWriter::render(&a),
        JsonWriter::render(&b),
        "fault sweep JSON differs across jobs"
    );
}

#[test]
fn service_soak_under_composed_faults_is_byte_identical_across_jobs() {
    let a = service_table(&ServiceSpec::smoke().with_jobs(1)).expect("service jobs=1");
    let b = service_table(&ServiceSpec::smoke().with_jobs(4)).expect("service jobs=4");
    assert_eq!(a.to_csv(), b.to_csv(), "service CSV differs across jobs");
    assert_eq!(
        JsonWriter::render(&a),
        JsonWriter::render(&b),
        "service JSON differs across jobs"
    );
}

/// End-to-end through the binary: `faults-smoke` + `service-smoke`
/// with `--metrics`, comparing stdout tables byte-for-byte and the
/// metrics JSON after stripping the intentionally wall-clock fields
/// (`timings_secs`, the service `wall` trailer, and the oracle `cache`
/// counters, whose interleaving is timing-dependent).
#[test]
fn binary_faulty_runs_are_byte_identical_across_jobs() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    let tmp = std::env::temp_dir().join(format!("faults-parity-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("tmp dir");
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let metrics = tmp.join(format!("metrics-j{jobs}.json"));
        let out = std::process::Command::new(exe)
            .args([
                "--jobs",
                jobs,
                "--metrics",
                metrics.to_str().unwrap(),
                "faults-smoke",
                "service-smoke",
            ])
            .stderr(std::process::Stdio::null())
            .output()
            .expect("run experiments");
        assert!(out.status.success(), "experiments --jobs {jobs} failed");
        let json = std::fs::read_to_string(&metrics).expect("metrics.json");
        outputs.push((out.stdout, strip_wall_clock(&json)));
    }
    let _ = std::fs::remove_dir_all(&tmp);
    assert_eq!(
        String::from_utf8_lossy(&outputs[0].0),
        String::from_utf8_lossy(&outputs[1].0),
        "stdout tables differ across --jobs"
    );
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "metrics JSON differs across --jobs (wall-clock stripped)"
    );
}

/// Removes the wall-clock spans: `"timings_secs":{...}`, the service
/// report's `"wall":{...}` trailer, and `"cache":...`. All three are
/// flat objects (or `null`), so scanning to the next `}` suffices.
fn strip_wall_clock(json: &str) -> String {
    let mut s = json.to_string();
    for key in ["\"timings_secs\":{", "\"wall\":{"] {
        while let Some(start) = s.find(key) {
            let close = s[start..].find('}').expect("flat object closes") + start;
            s.replace_range(start..close + 1, "");
        }
    }
    while let Some(start) = s.find("\"cache\":") {
        let rest = &s[start + 8..];
        let len = if rest.starts_with('{') {
            rest.find('}').expect("flat object closes") + 1
        } else {
            "null".len()
        };
        s.replace_range(start..start + 8 + len, "");
    }
    s
}
