#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, and check capture/replay
# equivalence. Run from the repo root; exits non-zero on any failure.
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
# The semantic rules (dataflow, concurrency, checkpoint drift, taint,
# wire drift) must be in the shipped catalogue — a SARIF without them
# means the gate silently lost coverage.
for rule in L010 L011 L012 L013 L014 L015 L016; do
    grep -q "\"id\": \"$rule\"" lint.sarif
done
cargo run -q -p aurora-lint -- --list > target/ci/lint_rules.txt
[ "$(grep -c '^L0' target/ci/lint_rules.txt)" -eq 17 ]

echo "== aurora-lint --fix --dry-run (shipped tree needs no mechanical fixes) =="
cargo run -q -p aurora-lint -- --fix --dry-run 2>&1 >/dev/null | grep -q "0 edit(s) planned"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== aurora-lint self-tests (fixture rules) =="
cargo test -q -p aurora-lint

echo "== rustdoc (missing/broken docs are errors; vendored crates excluded) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p aurora-isa -p aurora-workloads -p aurora-mem -p aurora-core \
    -p aurora-cost -p aurora-bench -p aurora-serve -p aurora-lint -p aurora3

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy perf lints (hot-path + codec crates) =="
cargo clippy -p aurora-core -p aurora-mem -p aurora-isa -- -D clippy::perf

echo "== capture/replay equivalence =="
cargo test -q --test packed_replay

echo "== cycle-skip differential equivalence =="
cargo test -q --test event_horizon_differential

echo "== block-replay differential equivalence =="
cargo test -q --test block_replay_differential

echo "== checkpoint differential (save/restore/resume bit-identical) =="
cargo test -q --test checkpoint_differential

echo "== trace-cache smoke (AURORA_TRACE_CACHE persists .trc captures, no .blk) =="
# The three runs cover the block builder's three inputs: the first
# captures straight into blocks and writes each .trc, the second streams
# every capture back from disk, the third captures with no cache at all.
# The report has no timings, so all three stdouts must match byte for
# byte.
rm -rf target/ci/tcache
AURORA_TRACE_CACHE=target/ci/tcache ./target/release/paper_report --scale test > target/ci/tcache_run1.txt
AURORA_TRACE_CACHE=target/ci/tcache ./target/release/paper_report --scale test > target/ci/tcache_run2.txt
env -u AURORA_TRACE_CACHE ./target/release/paper_report --scale test > target/ci/tcache_run3.txt
cmp target/ci/tcache_run1.txt target/ci/tcache_run2.txt
cmp target/ci/tcache_run1.txt target/ci/tcache_run3.txt
ls target/ci/tcache/*.trc > /dev/null
[ -z "$(find target/ci/tcache -name '*.blk')" ]

echo "== observability report (event-derived Fig. 6 matches the counters) =="
# obs_report asserts, for every kernel and model, that the stall
# breakdown rebuilt from attribution events is within 1% of the
# counters, and exits non-zero otherwise.
./target/release/obs_report --scale test > target/ci/obs_report.txt
grep -q "cross-check vs fig6_stall_breakdown counters" target/ci/obs_report.txt

echo "== service smoke (daemon answers a grid; repeat is all-memo, zero re-simulation) =="
rm -rf target/ci/serve-store target/ci/aurora.sock
./target/release/aurora-serve --store target/ci/serve-store --unix target/ci/aurora.sock &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S target/ci/aurora.sock ] && break; sleep 0.1; done
[ -S target/ci/aurora.sock ]
# Same 2×2 grid twice: pass 1 may simulate, pass 2 must be 100% memo
# hits (>=90% is the gate's floor; the store makes it exactly 4/4).
./target/release/aurora-query --unix target/ci/aurora.sock \
    --models baseline --issue single,dual --workloads espresso,compress \
    --scale test --mode block > target/ci/serve_pass1.ndjson
grep -q '"type":"summary"' target/ci/serve_pass1.ndjson
./target/release/aurora-query --unix target/ci/aurora.sock \
    --models baseline --issue single,dual --workloads espresso,compress \
    --scale test --mode block > target/ci/serve_pass2.ndjson
grep -q '"memo_hits":4' target/ci/serve_pass2.ndjson
grep -q '"simulated":0' target/ci/serve_pass2.ndjson
kill "$SERVE_PID"
trap - EXIT

echo "CI OK"
