#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -D warnings (every workspace member)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== expt --jobs parallel output identity"
./target/release/expt all >/tmp/ibridge_ci_j1.txt 2>/dev/null
./target/release/expt --jobs 4 all >/tmp/ibridge_ci_j4.txt 2>/dev/null
cmp /tmp/ibridge_ci_j1.txt /tmp/ibridge_ci_j4.txt

echo "== goldens (calbench, fault/recovery/perf smokes, obs metrics)"
./scripts/check-goldens.sh

# The goldens step just regenerated the jobs-1 fault/recovery/perf
# smokes and diffed them against goldens/, so the committed files ARE
# the jobs-1 baseline — the jobs-8 reruns compare straight against
# them instead of regenerating their own.
echo "== fault-matrix jobs identity (fixed seed; auditor armed)"
./target/release/expt --seed 7 --jobs 8 --audit --fault-plan chaos faults \
  >/tmp/ibridge_ci_faults_j8.txt 2>/dev/null
cmp goldens/faults_smoke.txt /tmp/ibridge_ci_faults_j8.txt

echo "== corruption-matrix jobs identity (torn-write/bit-rot recovery)"
./target/release/expt --seed 7 --jobs 8 --audit recovery \
  >/tmp/ibridge_ci_recovery_j8.txt 2>/dev/null
cmp goldens/recovery_smoke.txt /tmp/ibridge_ci_recovery_j8.txt

# Recovery matrix: the segmented-log maintenance experiment (compaction,
# indexed checkpoints, idle-window scheduling, O(dirty) restart) and the
# corruption matrix must reproduce their goldens under parallel jobs —
# maintenance runs inside the simulation, so a single reordered tick
# would show up as byte drift.
echo "== recovery-matrix: logmaint jobs identity (segmented log, O(dirty) restart)"
./target/release/expt --seed 7 --jobs 8 --audit logmaint \
  >/tmp/ibridge_ci_logmaint_j8.txt 2>/dev/null
cmp goldens/logmaint_smoke.txt /tmp/ibridge_ci_logmaint_j8.txt

echo "== mds-ha jobs identity (replicated metadata failover)"
./target/release/expt --seed 7 --jobs 8 --audit mds-ha \
  >/tmp/ibridge_ci_mds_j8.txt 2>/dev/null
cmp goldens/mds_smoke.txt /tmp/ibridge_ci_mds_j8.txt

echo "== trace-export determinism (fork-path merge, any --jobs)"
./target/release/expt --seed 7 --jobs 1 --trace-out /tmp/ibridge_ci_trace_j1.json fig3 \
  >/dev/null 2>&1
./target/release/expt --seed 7 --jobs 8 --trace-out /tmp/ibridge_ci_trace_j8.json fig3 \
  >/dev/null 2>&1
cmp /tmp/ibridge_ci_trace_j1.json /tmp/ibridge_ci_trace_j8.json
python3 -c "import json; d = json.load(open('/tmp/ibridge_ci_trace_j1.json')); assert d['traceEvents'], 'empty trace'"

echo "== bench-diff vs BENCH_pr16.json (rates annotate, allocs/event and peak bytes gate)"
# Fresh full-suite self-benchmark under the counting allocator, same
# parameters as the committed baseline. The report lands in /tmp so the
# working tree stays clean.
cargo build --release -p ibridge-bench --features count-allocs
./target/release/expt --seed 42 --jobs 8 \
  --bench-report /tmp/ibridge_ci_bench_fresh.json all >/dev/null 2>&1
# Wall-clock rates are host-noisy (same-binary reruns drift by tens of
# percent on shared runners): print the comparison for review, never
# fail on it.
./scripts/bench-diff.sh BENCH_pr16.json /tmp/ibridge_ci_bench_fresh.json \
  || echo "bench-diff: rate drift is informational only (host noise)"
# allocs/event and the jobs-1 peak live heap are deterministic, so they
# gate hard: +10% per experiment. --threshold 101 disables the rate
# gate (a rate regression is bounded at -100%), leaving allocs/event
# and peak bytes as the only failure conditions.
./scripts/bench-diff.sh BENCH_pr16.json /tmp/ibridge_ci_bench_fresh.json \
  --threshold 101 --alloc-threshold 10 --peak-threshold 10 >/dev/null

echo "CI OK"
