//! The determinism contract (DESIGN.md §12) applied to the scenario
//! suite: every scenario table — five family details, the summary, and
//! the smoke gates — must be byte-identical whatever `--jobs` says,
//! both through the library API and end-to-end through the
//! `experiments` binary's CSV output.

use mot_bench::{scenario_tables, scenarios_smoke_table, ScenarioProfile};
use mot_core::JsonWriter;

fn all_bytes(p: ScenarioProfile) -> Vec<(String, String, String)> {
    scenario_tables(&p)
        .expect("scenario sweep")
        .into_iter()
        .map(|(id, t)| (id, t.to_csv(), JsonWriter::render(&t)))
        .collect()
}

#[test]
fn scenario_tables_are_byte_identical_for_1_and_4_jobs() {
    let one = all_bytes(ScenarioProfile::smoke().with_jobs(1));
    let four = all_bytes(ScenarioProfile::smoke().with_jobs(4));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.0, b.0, "table order differs across --jobs");
        assert_eq!(a.1, b.1, "CSV bytes differ for '{}'", a.0);
        assert_eq!(a.2, b.2, "JSON bytes differ for '{}'", a.0);
    }
}

#[test]
fn smoke_table_is_byte_identical_for_1_and_4_jobs() {
    let a = scenarios_smoke_table(1).expect("smoke jobs=1");
    let b = scenarios_smoke_table(4).expect("smoke jobs=4");
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(JsonWriter::render(&a), JsonWriter::render(&b));
}

/// End-to-end parity through the `experiments` binary: the `scenarios`
/// family writes six CSV files (`scenarios-<family>.csv` × 5 plus the
/// `scenarios.csv` summary) and all six must match byte-for-byte
/// across `--jobs`.
#[test]
fn scenarios_binary_csv_is_byte_identical_across_jobs() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    let tmp = std::env::temp_dir().join(format!("scenarios-parity-{}", std::process::id()));
    let files = [
        "scenarios-waypoint.csv",
        "scenarios-levy.csv",
        "scenarios-hotspot.csv",
        "scenarios-zipf.csv",
        "scenarios-adversarial.csv",
        "scenarios.csv",
    ];
    let mut outputs: Vec<Vec<Vec<u8>>> = Vec::new();
    for jobs in ["1", "4"] {
        let csv = tmp.join(format!("j{jobs}"));
        std::fs::create_dir_all(&csv).expect("tmp dir");
        let status = std::process::Command::new(exe)
            .args([
                "--profile",
                "quick",
                "--jobs",
                jobs,
                "--csv",
                csv.to_str().unwrap(),
                "scenarios",
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run experiments");
        assert!(
            status.success(),
            "experiments scenarios --jobs {jobs} failed"
        );
        outputs.push(
            files
                .iter()
                .map(|f| std::fs::read(csv.join(f)).unwrap_or_else(|_| panic!("missing {f}")))
                .collect(),
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
    for (f, (a, b)) in files.iter().zip(outputs[0].iter().zip(&outputs[1])) {
        assert_eq!(a, b, "{f} differs across --jobs");
    }
}
