#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, docs, clippy, the
# byte-identical EXPERIMENTS.md check, and smoke runs of the
# observability report and the daemon.
# Run from the repo root; exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --all -- --check

echo "== aurora-lint (workspace invariant gate, docs/LINTS.md) =="
# One invocation gates the build and emits the SARIF artifact: findings
# go to lint.sarif for code-scanning upload, the human summary goes to
# stderr, and a non-zero exit fails CI.
mkdir -p target/ci
cargo run -q -p aurora-lint -- --format sarif > lint.sarif
# The semantic rules (dataflow, concurrency, snapshot codec drift, taint,
# wire drift) must be in the shipped catalogue — a SARIF without them
# means the gate silently lost coverage.
for rule in L010 L011 L012 L013 L014 L015 L016; do
    grep -q "\"id\":\"$rule\"" lint.sarif
done
cargo run -q -p aurora-lint -- --list > target/ci/lint_rules.txt
# 15 rules: L005 is retired and L006 moved to clippy (the cast lints
# denied in crates/isa/src/codec.rs and packed.rs).
[ "$(grep -c '^L0' target/ci/lint_rules.txt)" -eq 15 ]

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
# Every suite runs here once: the root package's integration tests
# (packed_replay, event_horizon_differential, block_replay_differential
# and the rest) and every crate's tests, aurora-lint's fixture
# self-tests included.
cargo test -q --workspace

echo "== rustdoc (missing/broken docs are errors; vendored crates excluded) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p aurora-isa -p aurora-workloads -p aurora-mem -p aurora-core \
    -p aurora-cost -p aurora-bench -p aurora-json -p aurora-serve -p aurora-lint -p aurora3

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy perf lints (hot-path + codec crates) =="
cargo clippy -p aurora-core -p aurora-mem -p aurora-isa -- -D clippy::perf

echo "== EXPERIMENTS.md is byte-identical to a fresh paper_report =="
# The report has no timings, so regenerating it at the committed scale
# must reproduce the committed file exactly: any drift in the reported
# SimStats shows up here as a diff.
./target/release/paper_report --scale small > target/ci/EXPERIMENTS.md
cmp EXPERIMENTS.md target/ci/EXPERIMENTS.md

echo "== observability report (event-derived Fig. 6 matches the counters) =="
# obs_report asserts, for every kernel and model, that the stall
# breakdown rebuilt from attribution events is within 1% of the
# counters, and exits non-zero otherwise.
./target/release/obs_report --scale test > target/ci/obs_report.txt
grep -q "cross-check vs fig6_stall_breakdown counters" target/ci/obs_report.txt

echo "== service smoke (daemon answers a grid; a restarted daemon answers the repeat all-memo, zero re-simulation) =="
rm -rf target/ci/serve-store target/ci/aurora.sock
# Starts a daemon on the smoke store, its stdout in $1, and waits for
# its socket.
start_daemon() {
    ./target/release/aurora-serve --store target/ci/serve-store \
        --unix target/ci/aurora.sock > "$1" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do [ -S target/ci/aurora.sock ] && break; sleep 0.1; done
    [ -S target/ci/aurora.sock ]
}
# Queries the same 2×2 grid, writing the NDJSON answer to $1.
query_grid() {
    ./target/release/aurora-query --unix target/ci/aurora.sock \
        --models baseline --issue single,dual --workloads espresso,compress \
        --scale test --mode block > "$1"
}
start_daemon target/ci/serve_daemon1.txt
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
query_grid target/ci/serve_pass1.ndjson
grep -q '"type":"summary"' target/ci/serve_pass1.ndjson
# Stop the daemon and wait for it to exit, then remove its socket so the
# wait in start_daemon cannot see a stale one. The fresh daemon must
# reopen the store whole, and derive the same cell keys: pass 2 must be
# 100% memo hits (>=90% is the gate's floor; the store makes it 4/4).
kill "$SERVE_PID"
wait "$SERVE_PID" || true
rm -f target/ci/aurora.sock
start_daemon target/ci/serve_daemon2.txt
grep -q 'store: 4 cells' target/ci/serve_daemon2.txt
grep -q '0 shard(s) rebuilt' target/ci/serve_daemon2.txt
query_grid target/ci/serve_pass2.ndjson
grep -q '"memo_hits":4' target/ci/serve_pass2.ndjson
grep -q '"simulated":0' target/ci/serve_pass2.ndjson
kill "$SERVE_PID"
wait "$SERVE_PID" || true
trap - EXIT

echo "CI OK"
