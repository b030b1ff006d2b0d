#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, docs, clippy, the
# byte-identical EXPERIMENTS.md check (and each of the nine fig/tab
# binaries against its section), and smoke runs of the observability
# report and the daemon (a block and a sampled grid, each answered
# again from the store after a restart).
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
# The shipped catalogue, exactly: `--list` must print these ids and no
# others, and each must be a SARIF rule, so the gate cannot silently lose
# (or grow) a rule. docs/LINTS.md names the bug each one catches and why
# the missing ids were retired.
LINT_RULES="L000 L001 L002 L003 L009 L010 L013 L015"
cargo run -q -p aurora-lint -- --list | cut -d' ' -f1 > target/ci/lint_rules.txt
echo $LINT_RULES | tr ' ' '\n' | diff - target/ci/lint_rules.txt
for rule in $LINT_RULES; do
    grep -q "\"id\":\"$rule\"" lint.sarif
done

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

echo "== each fig/tab binary prints exactly its EXPERIMENTS.md section =="
# Each of these nine experiments is defined once, in
# aurora_bench::report: a binary's stdout must equal its section of the
# fresh report, from its `## ` heading up to the next one.
while IFS='|' read -r bin heading; do
    ./target/release/"$bin" --scale small > "target/ci/$bin.md"
    [ -s "target/ci/$bin.md" ]
    awk -v h="$heading" '/^## /{on = (index($0, h) == 1)} on' target/ci/EXPERIMENTS.md |
        diff - "target/ci/$bin.md"
done <<'SECTIONS'
fig4_issue_perf|## Figure 4 —
tab3_tab4_prefetch_rates|## Tables 3 & 4 —
fig5_prefetch_removal|## Figure 5 —
fig6_stall_breakdown|## Figure 6 —
fig7_mshr_sweep|## Figure 7 —
tab5_write_cache|## Table 5 —
fig8_espresso_scatter|## Figure 8 —
tab6_fpu_policies|## Table 6 —
fig9_fpu_sweeps|## Figure 9 —
SECTIONS

echo "== observability report (event-derived Fig. 6 matches the counters) =="
# obs_report asserts, for every kernel and model, that the stall
# breakdown rebuilt from attribution events is within 1% of the
# counters, and exits non-zero otherwise.
./target/release/obs_report --scale test > target/ci/obs_report.txt
grep -q "cross-check vs fig6_stall_breakdown counters" target/ci/obs_report.txt

echo "== service smoke (daemon answers a block and a sampled grid; a restarted daemon answers both repeats all-memo, zero re-simulation) =="
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
# Queries the same 2×2 grid in mode $1, writing the NDJSON answer to $2.
query_grid() {
    ./target/release/aurora-query --unix target/ci/aurora.sock \
        --models baseline --issue single,dual --workloads espresso,compress \
        --scale test --mode "$1" > "$2"
}
start_daemon target/ci/serve_daemon1.txt
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
# Pass 1 simulates both grids on the fresh store: the exact block cells
# and the sampled cells (SMARTS windows over functional warming).
for mode in block sampled; do
    query_grid "$mode" "target/ci/serve_pass1_$mode.ndjson"
    grep -q '"type":"summary"' "target/ci/serve_pass1_$mode.ndjson"
    grep -q '"simulated":4' "target/ci/serve_pass1_$mode.ndjson"
done
# Stop the daemon and wait for it to exit, then remove its socket so the
# wait in start_daemon cannot see a stale one. The fresh daemon must
# reopen the store whole, and derive the same cell keys: pass 2 must be
# 100% memo hits in both modes (>=90% is the gate's floor; the store
# makes it 4/4 each).
kill "$SERVE_PID"
wait "$SERVE_PID" || true
rm -f target/ci/aurora.sock
start_daemon target/ci/serve_daemon2.txt
for mode in block sampled; do
    query_grid "$mode" "target/ci/serve_pass2_$mode.ndjson"
    grep -q '"memo_hits":4' "target/ci/serve_pass2_$mode.ndjson"
    grep -q '"simulated":0' "target/ci/serve_pass2_$mode.ndjson"
done
# The daemon binds its socket before it opens the store, so its store
# line is only certain to be written once it has answered a query.
grep -q 'store: 8 cells' target/ci/serve_daemon2.txt
grep -q '0 shard(s) rebuilt' target/ci/serve_daemon2.txt
kill "$SERVE_PID"
wait "$SERVE_PID" || true
trap - EXIT

echo "CI OK"
