#!/usr/bin/env bash
# Tier-1 CI gate for the neo-dlrm workspace.
#
# Eight gates, every one mandatory; the script stops at the first failure:
#   1. formatting, docs  (cargo fmt --check; cargo doc on every member,
#                         where the workspace's `warnings = "deny"` makes a
#                         dangling or private intra-doc link an error)
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
#                         crates/xtask/tests/clippy_fixture crate, which
#                         must report every expected lint code)
#   3. tier-1 tests      (root-package build + tests, the ROADMAP gate,
#                         `--locked` here and in gate 4, so a manifest edit
#                         that would rewrite Cargo.lock or benchmark/Cargo.lock
#                         fails instead;
#                         among them tests/zero_alloc.rs, the per-step
#                         allocation budget of each trainer configuration,
#                         which fails a row above its committed budget or
#                         more than 2 allocations per step below it)
#   4. workspace tests   (all crates — among them neo-xtask's
#                         member_manifests_inherit_workspace_lints, which
#                         fails on a member manifest without
#                         `[lints] workspace = true`, so the root
#                         [workspace.lints] forbid of unsafe code and deny
#                         of warnings binds every member but the counting
#                         allocator, which must deny both itself — then the
#                         standalone benchmark/ package, so an API
#                         removal that breaks it fails here, then the
#                         ignored release-mode
#                         f16_bf16_encode_exhaustive: all 2^32 f32
#                         patterns through both 16-bit encoders against
#                         the scalar oracle, elapsed time printed,
#                         neo-sync's tests in release, where the lock-class
#                         check is compiled out and must stay silent,
#                         neo-embeddings' tests in release, so the bitwise
#                         kernel tests check the optimised code the
#                         benchmark times, and neo-tensor's tests built for
#                         baseline x86-64 and for x86-64-v3, so every GEMM
#                         tile width the target can pick is checked
#                         against the naive loop)
#   5. sanitizer tests   (numeric sanitizer armed via --features sanitize
#                         on every crate that has or forwards the feature)
#   6. artifacts         (one quickstart --telemetry --monitor --workload
#                         run, and one --overlap --comm-delay --telemetry
#                         run whose posted collectives' in-flight spans
#                         must nest per lane; neo-xtask check validates
#                         both summaries and Chrome traces, the monitor
#                         event log, and the workload profile,
#                         dispatching on each file's schema tag)
#   7. overhead gate     (live-monitor and workload-profiler budgets: 12
#                         interleaved off/on training pairs per arm, every
#                         pair and min/quartiles/median printed; fails when
#                         an arm's minimum paired overhead exceeds 3%.
#                         Throughput and per-layer numbers are benchmark/'s
#                         job, see benchmark/README.md)
#   8. interleave gate   (seeded schedule perturbation of the overlapped
#                         trainer: no deadlock, bitwise-equal to serial,
#                         zero spurious monitor alerts; on the dev profile,
#                         so neo-sync's lock-class check runs on every seed)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> [1/8] cargo fmt --check, cargo doc"
cargo fmt --all -- --check
cargo doc --workspace --no-deps --offline

echo "==> [2/8] cargo clippy: all targets, then panics in library + bin code, then the seeded fixture"
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
    if cargo clippy -q --manifest-path crates/xtask/tests/clippy_fixture/Cargo.toml \
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

echo "==> [3/8] tier-1: cargo build --release && cargo test -q (--locked)"
cargo build --locked --release
cargo test --locked -q

echo "==> [4/8] cargo test -q --workspace (+ the benchmark package, + the exhaustive f16/bf16 encode check, + neo-sync and neo-embeddings in release, + neo-tensor for x86-64 and x86-64-v3)"
cargo test --locked -q --workspace
cargo test --locked -q --offline --manifest-path benchmark/Cargo.toml
cargo test --locked --release -q -p neo-sync
cargo test --locked --release -q -p neo-embeddings
# build first so the printed time is the exhaustive check, not rustc
cargo test --locked --release -q -p neo-tensor --no-run
EXHAUSTIVE_T0=$(date +%s%N)
cargo test --locked --release -q -p neo-tensor -- --ignored f16_bf16_encode_exhaustive
echo "    f16_bf16_encode_exhaustive: $(( ($(date +%s%N) - EXHAUSTIVE_T0) / 1000000 )) ms"
# the GEMM tile width follows the target's vector ISA: check the SSE2
# (NR = 8) and AVX2 (NR = 16) tiles against the naive loop too, whatever
# this host's native tile is
for cpu in x86-64 x86-64-v3; do
    RUSTFLAGS="-C target-cpu=$cpu" CARGO_TARGET_DIR="target/isa-$cpu" \
        cargo test --locked --release -q -p neo-tensor
done

echo "==> [5/8] sanitize: numeric sanitizer armed"
cargo test -q -p neo-tensor -p neo-embeddings -p neo-collectives -p neo-dataio \
    -p neo-trainer -p neo-dlrm --features sanitize

echo "==> [6/8] artifacts: quickstart serial and overlapped runs + neo-xtask check"
ARTIFACTS="$(mktemp -d)"
cargo run -q --release --example quickstart -- --telemetry "$ARTIFACTS/telemetry.json" \
    --monitor "$ARTIFACTS/monitor.jsonl" --workload "$ARTIFACTS/workload.json" >/dev/null
cargo run -q --release --example quickstart -- --overlap --comm-delay \
    --telemetry "$ARTIFACTS/overlap.json" >/dev/null
cargo run -q -p neo-xtask -- check "$ARTIFACTS/telemetry.json" \
    "$ARTIFACTS/telemetry.trace.json" "$ARTIFACTS/monitor.jsonl" "$ARTIFACTS/workload.json" \
    "$ARTIFACTS/overlap.json" "$ARTIFACTS/overlap.trace.json"
rm -rf "$ARTIFACTS"

echo "==> [7/8] overhead: monitor + workload-profiler budgets (min of 12 pairs <= 3%)"
cargo run -q --release -p neo-xtask -- overhead

echo "==> [8/8] interleave: 32 seeded schedule perturbations vs serial (debug: lock classes checked)"
cargo run -q -p neo-xtask -- interleave --seeds 32

echo "ci.sh: all gates passed"
