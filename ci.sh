#!/usr/bin/env bash
# Tier-1 CI gate for the neo-dlrm workspace.
#
# Every gate is mandatory; the script stops at the first failure:
#   1. formatting        (cargo fmt --check)
#   2. clippy            (root clippy.toml, two passes. All targets and
#                         all features, so sanitize-gated tests are
#                         linted too: warnings are errors, and so are a
#                         `let _ =` discard of a #[must_use] value and any
#                         #[allow] or reasonless suppression (use #[expect(..,
#                         reason = ..)]); disallowed hash containers,
#                         std::sync locks, clock and thread-identity
#                         reads. Library and bin code, all features:
#                         unwrap/expect/panic!/unreachable!/todo!/
#                         unimplemented!. Then both passes on the seeded
#                         crates/lint/tests/clippy_fixture crate, which
#                         must report every expected lint code)
#   3. neo-xtask lint    (2-rule neo-lint engine over the token stream,
#                         symbol index, and workspace call graph; emits
#                         results/lint.json + results/callgraph.json
#                         and diffs waived counts against the committed
#                         results/lint_baseline.json so new findings fail
#                         even when hidden behind waivers; the lint run
#                         itself must finish in <10s)
#   4. tier-1 tests      (root-package build + tests, the ROADMAP gate)
#   5. workspace tests   (all crates — among them neo-xtask's
#                         member_manifests_inherit_workspace_lints, which
#                         fails on a member manifest without
#                         `[lints] workspace = true`, so the root
#                         [workspace.lints] forbid of unsafe code and deny
#                         of warnings binds every member — then the
#                         standalone benchmark/ package, so an API
#                         removal that breaks it fails here, then the
#                         ignored release-mode
#                         f16_bf16_encode_exhaustive: all 2^32 f32
#                         patterns through both 16-bit encoders against
#                         the scalar oracle, elapsed time printed,
#                         neo-sync's tests in release, where the lock-class
#                         check is compiled out and must stay silent, and
#                         neo-embeddings' tests in release, so the bitwise
#                         kernel tests check the optimised code the
#                         benchmark times)
#   6. sanitizer tests   (numeric sanitizer armed via --features sanitize
#                         on every crate that has or forwards the feature)
#   7. artifacts         (one quickstart --telemetry --monitor --workload
#                         run; neo-xtask check validates the summary, the
#                         Chrome trace, the monitor event log + exposition,
#                         and the workload profile, dispatching on each
#                         file's schema tag)
#   8. overhead gate     (live-monitor and workload-profiler budgets: 12
#                         interleaved off/on training pairs per arm, every
#                         pair and min/quartiles/median printed; fails when
#                         an arm's minimum paired overhead exceeds 3%.
#                         Throughput and per-layer numbers are benchmark/'s
#                         job, see benchmark/README.md)
#   9. interleave gate   (seeded schedule perturbation of the overlapped
#                         trainer: no deadlock, bitwise-equal to serial,
#                         zero spurious monitor alerts; on the dev profile,
#                         so neo-sync's lock-class check runs on every seed)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> [1/9] cargo fmt --check"
cargo fmt --all -- --check

echo "==> [2/9] cargo clippy: all targets, then panics in library + bin code, then the seeded fixture"
CLIPPY_ALL_TARGETS=(--all-targets --all-features -- -D warnings
    -D clippy::let_underscore_must_use -D clippy::allow_attributes
    -D clippy::allow_attributes_without_reason)
CLIPPY_PANICS=(--lib --bins --all-features -- -D warnings -D clippy::unwrap_used
    -D clippy::expect_used -D clippy::panic -D clippy::unreachable -D clippy::todo
    -D clippy::unimplemented)
cargo clippy --workspace "${CLIPPY_ALL_TARGETS[@]}"
cargo clippy --workspace "${CLIPPY_PANICS[@]}"
# the fixture must fail both passes *with* each replacement's lint code,
# so a mistyped clippy.toml path cannot switch a check off silently
FIXTURE_OUT="$(mktemp)"
for pass in ALL_TARGETS PANICS; do
    declare -n CLIPPY_ARGS="CLIPPY_$pass"
    if cargo clippy -q --manifest-path crates/lint/tests/clippy_fixture/Cargo.toml \
        --target-dir target/clippy-fixture --message-format=json "${CLIPPY_ARGS[@]}" \
        >>"$FIXTURE_OUT" 2>/dev/null; then
        echo "clippy gate failed: the seeded fixture passed the $pass pass" >&2
        exit 1
    fi
done
for want in '"code":"clippy::unwrap_used"' '"code":"clippy::disallowed_methods"' \
    '"code":"clippy::let_underscore_must_use"' '"code":"unused_must_use"' \
    'disallowed type `std::collections::HashMap`' 'disallowed type `std::sync::Mutex`'; do
    if ! grep -qF "$want" "$FIXTURE_OUT"; then
        echo "clippy gate failed: the seeded fixture did not report $want" >&2
        exit 1
    fi
done
rm -f "$FIXTURE_OUT"

echo "==> [3/9] cargo run -p neo-xtask -- lint (json + callgraph + baseline diff)"
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
# the emitted artifacts and the committed baseline must carry their schema
cargo run -q -p neo-xtask -- check \
    results/lint.json results/callgraph.json results/lint_baseline.json

echo "==> [4/9] tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> [5/9] cargo test -q --workspace (+ the benchmark package, + the exhaustive f16/bf16 encode check, + neo-sync and neo-embeddings in release)"
cargo test -q --workspace
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo test --release -q -p neo-sync
cargo test --release -q -p neo-embeddings
# build first so the printed time is the exhaustive check, not rustc
cargo test --release -q -p neo-tensor --no-run
EXHAUSTIVE_T0=$(date +%s%N)
cargo test --release -q -p neo-tensor -- --ignored f16_bf16_encode_exhaustive
echo "    f16_bf16_encode_exhaustive: $(( ($(date +%s%N) - EXHAUSTIVE_T0) / 1000000 )) ms"

echo "==> [6/9] sanitize: numeric sanitizer armed"
cargo test -q -p neo-tensor -p neo-embeddings -p neo-collectives -p neo-dataio \
    -p neo-trainer -p neo-dlrm --features sanitize

echo "==> [7/9] artifacts: quickstart --telemetry --monitor --workload + neo-xtask check"
ARTIFACTS="$(mktemp -d)"
cargo run -q --release --example quickstart -- --telemetry "$ARTIFACTS/telemetry.json" \
    --monitor "$ARTIFACTS/monitor.jsonl" --workload "$ARTIFACTS/workload.json" >/dev/null
cargo run -q -p neo-xtask -- check "$ARTIFACTS/telemetry.json" \
    "$ARTIFACTS/telemetry.trace.json" "$ARTIFACTS/monitor.jsonl" "$ARTIFACTS/workload.json"
rm -rf "$ARTIFACTS"

echo "==> [8/9] overhead: monitor + workload-profiler budgets (min of 12 pairs <= 3%)"
cargo run -q --release -p neo-xtask -- overhead

echo "==> [9/9] interleave: 32 seeded schedule perturbations vs serial (debug: lock classes checked)"
cargo run -q -p neo-xtask -- interleave --seeds 32

echo "ci.sh: all gates passed"
