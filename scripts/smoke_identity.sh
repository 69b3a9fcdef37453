#!/usr/bin/env bash
# Byte-identity check against another revision. Builds REV from a clean
# export, runs `--bin all -- --smoke`, `--bin faults -- --smoke` and
# `--bin dse -- --smoke` with REV's binaries and with the working tree's,
# each side in its own scratch directory, and compares their stdout,
# bench_results.jsonl, fault_results.jsonl and the DSE smoke's fronts
# (dse_pareto.jsonl, cluster_pareto.jsonl) and result cache
# (dse_cache.jsonl), whose keys hash every spec string. Exits nonzero on
# the first difference.
#
# Usage: scripts/smoke_identity.sh REV     (a hash, a tag, HEAD~1, ...)
#
# The scratch directory comes from `mktemp -d` (set TMPDIR to move it) and
# is removed on exit. REV is exported with `git archive`, so a killed run
# leaves no worktree registered in .git. Not part of verify.sh: it needs a
# second revision to compare with.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# Every bench_results.jsonl row leads with a host stamp; fix it so only
# simulated bytes can differ.
export PXL_HOST_ID=smoke-identity
bins=(-p pxl-bench --bin all --bin faults --bin dse)

echo "==> building $rev"
mkdir "$scratch/rev-src"
git archive "$rev" | tar -x -C "$scratch/rev-src"
cargo build --release --offline --quiet --manifest-path "$scratch/rev-src/Cargo.toml" \
    --target-dir "$scratch/rev-target" "${bins[@]}"
echo "==> building the working tree"
cargo build --release --offline --quiet "${bins[@]}"
tree_bin="${CARGO_TARGET_DIR:-target}/release"
case $tree_bin in /*) ;; *) tree_bin="$PWD/$tree_bin" ;; esac

# run_side NAME BINDIR: the three smokes, with their outputs in
# $scratch/NAME.
run_side() {
    mkdir "$scratch/$1"
    (
        cd "$scratch/$1"
        "$2/all" --smoke > all.stdout
        "$2/faults" --smoke > faults.stdout
        "$2/dse" --smoke > dse.stdout
    )
}
echo "==> running the smokes on $rev"
run_side rev "$scratch/rev-target/release"
echo "==> running the smokes on the working tree"
run_side tree "$tree_bin"

for file in all.stdout bench_results.jsonl faults.stdout fault_results.jsonl \
    dse.stdout dse_pareto.jsonl cluster_pareto.jsonl dse_cache.jsonl; do
    if ! cmp "$scratch/rev/$file" "$scratch/tree/$file"; then
        echo "FAIL: $file differs from $rev" >&2
        exit 1
    fi
    echo "same: $file"
done
echo "==> OK: byte-identical to $rev"
