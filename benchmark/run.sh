#!/usr/bin/env bash
# The one command of the benchmark. Run it from the repository root.
#
#   benchmark/run.sh                      build, run every workload (plain and
#                                         traced pass), print every metric,
#                                         write benchmark/out/results.json
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                         one workload; the last line of
#                                         standard output is its JSON result
#   benchmark/run.sh compare A.json B.json
#                                         apply each metric's bound; exit 1 on
#                                         a regression or a moved statistic
#   benchmark/run.sh --check              fmt, clippy -D warnings and the
#                                         harness tests (root CI does not see
#                                         this nested workspace)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "--check" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --manifest-path "$manifest" --offline --locked --all-targets -- -D warnings
    cargo test --manifest-path "$manifest" --offline --locked --release
    exit 0
fi

# Cargo reports on standard error, so standard output stays the benchmark's.
cargo build --manifest-path "$manifest" --release --offline --locked >&2

# glibc raises its mmap threshold as large blocks are freed, after which
# peak RSS depends on the order in which threads happened to free them
# (16-40 MiB on figures_standard, run to run). Pinning both thresholds
# makes RSS track live bytes. It is part of the measurement set-up: both
# sides of any comparison run under it.
export MALLOC_MMAP_THRESHOLD_=131072
export MALLOC_TRIM_THRESHOLD_=131072

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_SHA="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_SHA

bin="${CARGO_TARGET_DIR:-$here/target}/release/mot-benchmark"
if [[ "${1:-}" == "compare" ]]; then
    exec "$bin" "$@"
fi
exec "$bin" --out "$here/out" "$@"
