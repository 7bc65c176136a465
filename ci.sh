#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# The workspace builds against the vendored dependency stubs in vendor/,
# so CI never needs the network.
export CARGO_NET_OFFLINE=true

# Cross-algorithm convolution conformance: every algorithm (direct,
# im2col over both GEMM engines, Winograd F(2x2)/F(4x4), FFT, CSR)
# against the naive reference under per-algorithm error budgets, plus
# the transform-ladder fault-injection rungs and a tiny-shape pass
# through the conv-algo bench harness. The full bench run (which
# regenerates BENCH_conv.json and enforces the FFT-beats-im2col and
# F4 >= 1.3x F2 gates) is manual.
conv_conformance() {
  echo "== conv-conformance =="
  cargo test -q --test conv_conformance
  cargo test -q --features fault-inject --test fault_injection fft
  cargo test -q --features fault-inject --test fault_injection winograd4
  CONV_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench conv_algo
}

# End-to-end benchmark (BENCHMARK.json): the e2e_bench package's own
# self-tests, then a short vgg16-dense run through the default inference
# path. The run's last line is its JSON result; the job fails unless
# every output checked correct and no operation failed.
e2e_bench() {
  echo "== e2e-bench =="
  cargo test --release --offline --manifest-path e2e_bench/Cargo.toml
  local last
  last="$(cargo run --quiet --release --offline --manifest-path e2e_bench/Cargo.toml \
    --bin e2e_bench -- --workload vgg16-dense --seed 2 --seconds 2 --trace 0 | tail -n 1)"
  echo "$last" | cut -c1-200
  if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0,' <<<"$last"; then
    echo "e2e-bench: smoke run was not correct with zero failures" >&2
    exit 1
  fi
}

# `./ci.sh conv-conformance` or `./ci.sh e2e-bench` runs just that job
# (fast inner loop); no argument runs the whole tier-1 gate.
case "${1:-all}" in
  conv-conformance)
    conv_conformance
    echo "ci: conv-conformance green"
    exit 0
    ;;
  e2e-bench)
    e2e_bench
    echo "ci: e2e-bench green"
    exit 0
    ;;
esac

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace -q

echo "== fault-injection tests =="
# The injector only compiles under this feature; the run above doubles
# as the proof that the default build excludes it (the
# `default_build_excludes_fault_injection` unit test asserts a
# zero-sized no-op FaultPlan when the feature is off).
cargo test -q --features fault-inject
cargo test -q -p cnn-stack-nn --features fault-inject

echo "== gemm equivalence (proptest) =="
# The packed/SIMD GEMM engine must agree with the naive reference on
# arbitrary shapes, including non-finite propagation.
cargo test -q --test gemm_equivalence

echo "== gemm bench smoke =="
# Exercises the benchmark harness end to end on a tiny shape; the full
# sweep (which regenerates BENCH_gemm.json) is run manually.
GEMM_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench gemm

echo "== plan-passes =="
# Pass-based plan compiler: fusion equivalence (property-based, incl.
# non-finite inputs), pointwise fast path, residual cache invalidation,
# and a deterministic autotune smoke with the cache pinned to a temp
# dir so the runner's real cache is never touched.
cargo test -q --test plan_passes
cargo test -q -p cnn-stack-nn passes::
TUNE_DIR="$(mktemp -d)"
CNN_STACK_TUNE_CACHE="$TUNE_DIR/tune.tsv" cargo test -q -p cnn-stack-nn passes::tests::autotune
rm -rf "$TUNE_DIR"
# End-to-end plan bench harness on a tiny width (full run regenerates
# BENCH_plan.json manually).
PLAN_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench plan

echo "== obs-golden =="
# Golden-trace harness: serial traced sessions must reproduce the
# checked-in deterministic text traces (regenerate intentionally with
# CNN_STACK_BLESS=1).
cargo test -q --test trace_golden

echo "== kernel-proptest =="
# Kernels vs naive references (depthwise, pooling, ReLU — incl. the
# NaN/Inf corners) and metrics-vs-truth (gemm.flops == analytic MACs,
# clean runs never trip the guard, pool runs what it queues).
cargo test -q --test kernel_proptest
cargo test -q --test obs_metrics

echo "== obs bench smoke =="
# Tracing-off must stay within 5% of the frozen PR 4 baseline (the full
# run, which regenerates BENCH_obs.json, enforces the 1% gate manually).
OBS_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench obs

echo "== serve-tests =="
# Serving layer: deterministic ManualClock batching/shedding semantics,
# the fault-injected co-batch integrity proof, the serve crate's own
# unit + doc tests, and the deprecated-path compatibility shims.
cargo test -q --test serve_batching
cargo test -q --test serve_batching --features fault-inject
cargo test -q -p cnn-stack-serve
cargo test -q --test deprecated_shims

echo "== serve-bench-smoke =="
# Tiny open-loop run through the real threaded server (width 0.25,
# max-batch 4) with a loose 5% batching gate; the full run (which
# regenerates BENCH_serve.json and enforces the 2x gate) is manual.
SERVE_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench serve

echo "== serve-chaos =="
# Self-healing runtime: deterministic ManualClock supervision tests
# (worker-panic -> typed failures + respawn, hung-batch watchdog
# failover, crash-loop backoff caps, breaker trip -> degraded ->
# half-open recovery), then a small threaded chaos run with an injected
# crash + hang at 1.5x capacity asserting zero lost tickets. The full
# chaos run (which regenerates BENCH_chaos.json and enforces the
# breaker-on < breaker-off miss-rate gate) is manual.
cargo test -q --test serve_supervision
cargo test -q --test serve_supervision --features fault-inject
CHAOS_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench chaos --features fault-inject

echo "== quant-proptest =="
# Quantised compute path: the 2-bit spmm and the ternary/int8 packed
# GEMM engines vs their f32/exact-integer references (incl. the 0·NaN
# propagation policy), plus the panel-cache lifecycle (weight_mut /
# set_format / TTQ reproject must drop stale code snapshots).
cargo test -q --test quant_kernels
cargo test -q --test quant_invalidation

echo "== quant-bench-smoke =="
# Tiny-shape pass through the quant bench harness, asserting the ternary
# path stays bit-identical to f32 before timing; the full run (which
# regenerates BENCH_quant.json and enforces the >= 1.5x conv5 speedup
# gate) is manual.
QUANT_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench quant

echo "== plan-memory =="
# Memory-budgeted planning: coloured-arena bit-identity vs ping-pong
# (property-based, incl. non-finite payloads), the 16 MB VGG-16 budget
# acceptance scenario, budget-infeasibility floor reporting, and the
# liveness/colouring unit tests. The smoke bench exercises the memory
# harness end to end on a thin model; the full run (which regenerates
# BENCH_memory.json and enforces the >= 30% peak-reduction / <= 5%
# latency gates) is manual.
cargo test -q --test plan_memory
cargo test -q -p cnn-stack-nn liveness::
MEMORY_BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench memory

conv_conformance

e2e_bench

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "ci: all green"
