#!/usr/bin/env bash
# Tier-1 CI gate for the neo-dlrm workspace.
#
# Every gate is mandatory; the script stops at the first failure:
#   1. formatting        (cargo fmt --check)
#   2. clippy            (warnings are errors)
#   3. neo-xtask lint    (15-rule neo-lint engine over the token stream,
#                         symbol index, and workspace call graph; emits
#                         results/lint.json + results/callgraph.json
#                         and diffs waived counts against the committed
#                         results/lint_baseline.json so new findings fail
#                         even when hidden behind waivers; the lint run
#                         itself must finish in <10s)
#   4. tier-1 tests      (root-package build + tests, the ROADMAP gate)
#   5. workspace tests   (all crates, then the standalone benchmark/
#                         package, so an API removal that breaks it
#                         fails here)
#   6. sanitizer tests   (numeric sanitizer + lock-order runtime validator
#                         armed via --features sanitize)
#   7. telemetry check   (quickstart --telemetry artifacts parse, carry the
#                         span taxonomy, and label process/rank threads)
#   8. overhead gate     (live-monitor and workload-profiler budgets: 12
#                         interleaved off/on training pairs per arm, every
#                         pair and min/quartiles/median printed; fails when
#                         an arm's minimum paired overhead exceeds 3%.
#                         Throughput and per-layer numbers are benchmark/'s
#                         job, see benchmark/README.md)
#   9. interleave gate   (seeded schedule perturbation of the overlapped
#                         trainer: no deadlock, bitwise-equal to serial,
#                         zero spurious monitor alerts)
#  10. monitor gate      (quickstart --monitor event log + exposition
#                         validated by neo-xtask monitor-check)
#  11. workload gate     (quickstart --workload access-profile artifact
#                         validated by neo-xtask workload-check: schema,
#                         count conservation, top-K/sketch consistency)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> [1/11] cargo fmt --check"
cargo fmt --all -- --check

echo "==> [2/11] cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> [3/11] cargo run -p neo-xtask -- lint (json + callgraph + baseline diff)"
# build first so the wall-time budget below measures the lint run, not rustc
cargo build -q -p neo-xtask
LINT_T0=$(date +%s%N)
cargo run -q -p neo-xtask -- lint \
    --json results/lint.json \
    --callgraph results/callgraph.json \
    --baseline results/lint_baseline.json
LINT_MS=$(( ($(date +%s%N) - LINT_T0) / 1000000 ))
echo "    lint wall time: ${LINT_MS} ms"
if [ "$LINT_MS" -ge 10000 ]; then
    echo "lint gate failed: ${LINT_MS} ms exceeds the 10s interactive budget" >&2
    exit 1
fi
# the emitted artifacts must at minimum be well-formed JSON
cargo run -q -p neo-xtask -- json-check results/lint.json results/callgraph.json

echo "==> [4/11] tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> [5/11] cargo test -q --workspace (+ the benchmark package)"
cargo test -q --workspace
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> [6/11] sanitize: numeric + lock-order validators armed"
cargo test -q -p neo-tensor -p neo-embeddings -p neo-sync -p neo-collectives \
    -p neo-dataio -p neo-telemetry -p neo-monitor -p neo-trainer -p neo-dlrm \
    --features sanitize

echo "==> [7/11] telemetry: quickstart --telemetry + neo-xtask json-check"
TELEMETRY_OUT="$(mktemp -d)/neo_telemetry.json"
cargo run -q --release --example quickstart -- --telemetry "$TELEMETRY_OUT" >/dev/null
cargo run -q -p neo-xtask -- json-check --min-phases 8 \
    "$TELEMETRY_OUT" "${TELEMETRY_OUT%.json}.trace.json"
rm -rf "$(dirname "$TELEMETRY_OUT")"

echo "==> [8/11] overhead: monitor + workload-profiler budgets (min of 12 pairs <= 3%)"
cargo run -q --release -p neo-xtask -- overhead

echo "==> [9/11] interleave: 32 seeded schedule perturbations vs serial"
cargo run -q --release -p neo-xtask -- interleave --seeds 32

echo "==> [10/11] monitor: quickstart --monitor + neo-xtask monitor-check"
MONITOR_OUT="$(mktemp -d)/neo_monitor.jsonl"
cargo run -q --release --example quickstart -- --monitor "$MONITOR_OUT" >/dev/null
cargo run -q -p neo-xtask -- monitor-check --expect-clean "$MONITOR_OUT"
rm -rf "$(dirname "$MONITOR_OUT")"

echo "==> [11/11] workload: quickstart --workload + neo-xtask workload-check"
WORKLOAD_OUT="$(mktemp -d)/workload.json"
cargo run -q --release --example quickstart -- --workload "$WORKLOAD_OUT" >/dev/null
cargo run -q -p neo-xtask -- workload-check "$WORKLOAD_OUT"
rm -rf "$(dirname "$WORKLOAD_OUT")"

echo "ci.sh: all gates passed"
