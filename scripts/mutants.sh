#!/usr/bin/env bash
# Checks that the gates named by each mutant in tests/mutants/ bite.
#
# Usage: scripts/mutants.sh [PATTERN]
#
# For each tests/mutants/*.patch whose file name contains PATTERN (all of
# them by default) the script applies the patch to a git worktree of
# HEAD under a temporary directory, runs only the commands listed under
# the header's "Must fail:" (in release), and prints one verdict:
#
#   killed    every named test fails
#   survived  a named test passes: that gate does not bite
#   stale     the patch does not apply, or the mutant does not build
#
# The worktree is reverted between mutants and removed at the end; the
# build is shared across mutants (under CARGO_TARGET_DIR if set, else in
# the temporary directory). Uncommitted changes are not part of the
# worktree: the script checks the committed HEAD. It exits nonzero if any
# mutant survived or is stale, or if no patch matches PATTERN.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
pattern=${1:-}
tmp=$(mktemp -d)
wt=$tmp/worktree
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$tmp/target}

cleanup() {
    git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$wt" HEAD

# The commands under a patch's "Must fail:" line, one a line, up to the
# first blank line.
must_fail() {
    awk '/^Must fail:/ { on = 1; next } on && /^[[:space:]]*$/ { exit } on { sub(/^[[:space:]]+/, ""); print }' "$1"
}

bad=0
seen=0
for patch in "$root"/tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    [[ $name == *"$pattern"* ]] || continue
    seen=$((seen + 1))
    log=$tmp/$name.log
    mapfile -t commands < <(must_fail "$patch")
    verdict=killed why=
    if [[ ${#commands[@]} -eq 0 ]]; then
        verdict=stale why="no tests named"
    elif ! git -C "$wt" apply "$patch" 2>"$log"; then
        verdict=stale why="does not apply"
    else
        for cmd in "${commands[@]}"; do
            if ! (cd "$wt" && eval "${cmd/cargo test/cargo test --no-run}") >>"$log" 2>&1; then
                verdict=stale why="does not build: $cmd"
                break
            fi
            if (cd "$wt" && eval "$cmd") >>"$log" 2>&1; then
                verdict=survived why="passed: $cmd"
                break
            fi
        done
    fi
    printf '%-10s %s%s\n' "$verdict" "$name" "${why:+ ($why)}"
    if [[ $verdict != killed ]]; then
        bad=1
        tail -n 20 "$log" | sed 's/^/    /'
    fi
    git -C "$wt" checkout --quiet -- .
    git -C "$wt" clean --quiet -fd
done

if [[ $seen -eq 0 ]]; then
    echo "no mutant matches '$pattern'" >&2
    exit 2
fi
exit "$bad"
