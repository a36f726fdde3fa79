//! `--oracle` accepts exactly the backends that exist.

use std::process::Command;

#[test]
fn retired_backends_are_rejected_with_the_valid_list() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    for gone in ["lazy", "hybrid"] {
        let out = Command::new(exe)
            .args(["--profile", "quick", "--oracle", gone, "scale"])
            .output()
            .expect("run experiments");
        assert!(!out.status.success(), "--oracle {gone} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(gone) && stderr.contains("auto|dense|cached"),
            "--oracle {gone}: unhelpful message: {stderr}"
        );
    }
}
