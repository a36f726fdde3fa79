#!/usr/bin/env bash
# Interleaved parent/change pairs of the repository benchmark: the
# protocol of PERFORMANCE.md ("Methodology"), as one command. Run it from
# the repository root.
#
#   scripts/bench-ab.sh <parent-ref> [--pairs N] [--seconds S] [workload...]
#
# The parent side is `git archive <parent-ref>` unpacked under
# target/ab/, the change side is this checkout; each builds its own
# `mot-benchmark` (--release --offline --locked) into target/ab/, so
# nothing under benchmark/ is read for output or written. Pair i runs on
# seed i, plain pass, and the sides alternate which runs first. Defaults:
# 10 pairs, BENCHMARK.json's 12 seconds, all five workloads. Prints one
# PERFORMANCE.md table row per workload and end-to-end metric, then the
# per-pair `wall_s`, `peak_rss_mb` and `setup_s`, and whether the two
# sides' digests agree.
set -euo pipefail

[[ $# -ge 1 ]] || { sed -n '2,16p' "$0" >&2; exit 2; }
parent_ref="$1"; shift
pairs=10
seconds=12
workloads=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --*) echo "unknown flag $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
[[ ${#workloads[@]} -gt 0 ]] ||
    workloads=(cold_start_grid256 replay_grid256 service_soak service_reads figures_standard)

root="$(git rev-parse --show-toplevel)"
ab="$root/target/ab"
parent_sha="$(git -C "$root" rev-parse --short "$parent_ref^{commit}")"
rm -rf "$ab/parent-src" "$ab/runs"
mkdir -p "$ab/parent-src" "$ab/runs"
# -m stamps the files with the time of extraction: an archive keeps the
# commit's time, older than a parent build left from another parent-ref,
# which cargo would then take as up to date.
git -C "$root" archive "$parent_ref" | tar -x -m -C "$ab/parent-src"

build() { # <source root> <target dir>
    cargo build --manifest-path "$1/benchmark/Cargo.toml" --release --offline --locked \
        --target-dir "$2" >&2
}
build "$ab/parent-src" "$ab/parent-target"
build "$root" "$ab/change-target"

# The allocator pins of benchmark/run.sh: peak RSS tracks live bytes.
export MALLOC_MMAP_THRESHOLD_=131072
export MALLOC_TRIM_THRESHOLD_=131072
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_RUSTC

run_side() { # <side> <workload> <seed>
    BENCH_GIT_SHA="$1" "$ab/$1-target/release/mot-benchmark" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
        --out "$ab/runs/$1" >"$ab/runs/$1-$2-$3.txt"
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "pair $i/$pairs  $w  $side" >&2
            run_side "$side" "$w" "$i"
        done
    done
done

echo "parent \`$parent_sha\`, change = this checkout; $pairs pairs, pair i on seed i," \
    "--seconds $seconds --trace 0, $(nproc) hardware threads"
echo
python3 - "$ab/runs" "$pairs" "${workloads[@]}" <<'PY'
import json, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
METRICS = [("wall_s", False), ("ops_per_s", True), ("peak_rss_mb", False), ("setup_s", False)]


def load(side, workload, seed):
    lines = open(f"{runs}/{side}-{workload}-{seed}.txt").read().splitlines()
    digest = next(l.split("digest ")[1] for l in lines if " digest " in l)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{side} {workload} seed {seed}: output checks failed")
    return digest, {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return f"{x:,.0f}".replace(",", " ") if abs(x) >= 1000 else f"{x:.4g}"


print("| workload · metric | parent q1 / **median** / q3 | change q1 / **median** / q3 "
      "| change vs parent | change better in |")
print("|---|---:|---:|---:|---:|")
notes = []
for w in workloads:
    sides = {s: [load(s, w, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
    for name, higher_is_better in METRICS:
        p = [m[name] for _, m in sides["parent"]]
        c = [m[name] for _, m in sides["change"]]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
        wins = sum((b > a) if higher_is_better else (b < a) for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        verdict = f"{(cmed - pmed) / pmed * 100:+.1f}%"
        if abs(cmed - pmed) < pq3 - pq1:
            verdict += ", unresolved"
        verdict += f" (parent IQR {fmt(pq3 - pq1)})"
        better = f"{wins} / {pairs - ties}" + (f" ({ties} ties)" if ties else "")
        print(f"| `{w}` · `{name}` | {fmt(pq1)} / **{fmt(pmed)}** / {fmt(pq3)} "
              f"| {fmt(cq1)} / **{fmt(cmed)}** / {fmt(cq3)} | {verdict} | {better} |")
    pairs_of = list(zip(sides["parent"], sides["change"]))
    for name, digits in (("wall_s", 3), ("peak_rss_mb", 2), ("setup_s", 5)):
        per_pair = " ".join(f"{a[1][name]:.{digits}f}/{b[1][name]:.{digits}f}"
                            for a, b in pairs_of)
        notes.append(f"`{w}` · `{name}` parent/change per pair: {per_pair}")
    same = sum(a[0] == b[0] for a, b in pairs_of)
    notes.append(f"`{w}` · digests equal in {same} / {pairs} pairs")
print()
print("\n".join(notes))
PY
