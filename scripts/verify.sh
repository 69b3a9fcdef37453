#!/usr/bin/env bash
# Full local verification: formatting, lints, offline release build, tests.
# This is exactly what CI runs; a clean pass here means a green pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (deny rustdoc warnings)"
# A dangling intra-doc link (say, to a method that was deleted) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release --offline"
cargo build --release --workspace --offline

echo "==> cargo test --offline"
cargo test -q --workspace --offline

echo "==> benchmark harness tests (benchmark/)"
# The benchmark is its own crate over this workspace's public API; building
# and testing it here catches an API change that would break it.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> fault smoke sweep (pxl-bench --bin faults -- --smoke)"
# Exits nonzero on any unrecovered fault, recovery-accounting imbalance,
# golden mismatch, or nondeterministic fault replay.
cargo run --release --offline -p pxl-bench --bin faults -- --smoke > /dev/null

echo "==> flex host-speed floor (pxl-bench --test smoke_floor, release)"
# Tiny uts, queens, spmvcrs and stencil2d on flex 4x4 must each sustain
# more than 1e5 simulated cycles/s (best of 5 after one warm run). The
# test is compiled only without debug assertions, so it runs here and not
# in the debug `cargo test` above.
cargo test --release --offline -p pxl-bench --test smoke_floor

echo "==> profile smoke incl. telemetry (pxl-bench --bin profile -- --smoke)"
# Traced run + full pxl-profile analysis per (benchmark, engine); exits
# nonzero if any profile violates the structural invariants (span <=
# makespan, trace work == accel.task_ps, utilization in [0,1]), if a
# trace's JSONL dump (link_xfer events of the hier cluster included) does
# not parse back to the emitted records, or if a profile is not
# byte-identical across two same-seed runs. Writes profile_report.md,
# profile_results.jsonl and profile_traces/. Ends with the telemetry
# smoke: a run sampled every 500 cycles must produce a non-empty
# telemetry_timeline.jsonl that a second same-seed run reproduces
# byte-identically, plus a Perfetto export with telemetry.* counter
# tracks.
cargo run --release --offline -p pxl-bench --bin profile -- --smoke > /dev/null

echo "==> DSE smoke sweep incl. clusters (pxl-bench --bin dse -- --smoke)"
# Explores the smoke design space three times against a shared result
# cache; exits nonzero if the cached re-run is not 100% hits with
# byte-identical Pareto fronts, or if successive halving's best-runtime
# point diverges from the exhaustive grid's. A fourth pass sweeps the
# multi-chip cluster space (chips x link latency x stealing mode) into
# cluster_pareto.jsonl and fails if hierarchical stealing never beats
# flat at a matched geometry.
cargo run --release --offline -p pxl-bench --bin dse -- --smoke > /dev/null

echo "==> serve smoke (pxl-bench --bin serve)"
# Boots the pxl-serve job server on a loopback port and asserts the full
# service contract: deterministic fair-share ordering under a flooding
# tenant, byte-identical dedup with the second submission a pure cache
# hit, quota refusal without collateral damage, profile-job trace
# reporting, live introspection (progress beats at checkpoint
# boundaries and a byte-stable stats reply), graceful drain with exact
# totals, and a well-formed serve_jobs.jsonl event log. A hostile phase
# then opens more connections than the cap, sends an oversized line and
# malformed lines, and stalls a reader; the server must stay up and drain
# with exact totals. Ends with the crash-recovery phase: a
# child server with six checkpointed jobs in flight is SIGKILLed after
# its first durable checkpoint, restarted on the same write-ahead
# journal, and must complete every job exactly once from its latest
# checkpoint (recovered journal kept under serve_crash/).
cargo run --release --offline -p pxl-bench --bin serve > /dev/null

echo "==> checkpoint round trips (--example checkpoint_overhead)"
# Pauses Small uts and queens runs on flex, lite and cpu at every 1/16 of
# the run, round-trips each snapshot through its serialized envelope into
# a fresh session, and asserts every restored run matches its
# uninterrupted run byte for byte.
cargo run --release --offline --example checkpoint_overhead > /dev/null

echo "==> OK"
