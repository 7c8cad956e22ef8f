#!/usr/bin/env bash
# The full offline CI pipeline (ISSUE 2, gates extracted in ISSUE 7).
# Runs, in order:
#
#   1. scripts/verify.sh        — tier-1: hermetic guard + build + test;
#   2. cargo fmt --check        — formatting is load-bearing;
#   3. cargo clippy -D warnings — lints are errors;
#   4. obs feature matrix       — every instrumented crate must compile
#                                 BOTH with `--features obs` and, in
#                                 isolation, without it (feature
#                                 unification hides the latter in
#                                 workspace-wide builds);
#   5. scripts/examples_smoke.sh — every example runs, fail-fast;
#   6. schedtest smoke          — the deterministic schedule-exploration
#                                 model suites under --cfg schedtest
#                                 (including the fault-injection models),
#                                 summarized to SCHEDTEST_ci.json;
#   7. bench smoke + gates      — a fast figure6 run emitting
#                                 BENCH_ci.json, the fault-plane smoke
#                                 emitting FAULTS_ci.json, criterion
#                                 smokes via the TINYBENCH_* knobs, then
#                                 the regression gates (`bench --bin
#                                 gates`, tested in
#                                 crates/bench/tests/gates.rs) plus a
#                                 report-only drift table against the
#                                 committed BENCH_baseline.json;
#   8. perfbench self-test      — every workload of the source-level
#                                 benchmark (perfbench/, BENCHMARK.json)
#                                 at a tiny size, both modes, every
#                                 metric with its unit, plus the
#                                 wrong-reference check.
#
# Strictness: under CI=1 (or CI=true — what GitHub Actions exports) any
# "loud skip" becomes a hard failure: a runner without rustfmt/clippy, or
# a bench build that lost its obs snapshot, must fail the pipeline rather
# than quietly narrowing it. Locally (no CI env) skips stay warnings so a
# minimal toolchain can still run the rest.
#
# Everything is `--offline`: CI must pass on a machine that has never
# reached a registry. No step downloads anything.
set -euo pipefail
cd "$(dirname "$0")/.."

STRICT=0
case "${CI:-}" in
    1 | true) STRICT=1 ;;
esac

step() { echo; echo "==== ci: $*"; }

# A tool gap is a warning locally, a failure under CI=1.
loud_skip() {
    echo "   !!! SKIPPED: $*"
    if [ "$STRICT" = "1" ]; then
        echo "   !!! CI strict mode: skips are failures"
        exit 1
    fi
}

step "[1/8] tier-1 verify (hermetic guard + build + test)"
scripts/verify.sh

step "[2/8] cargo fmt --check"
if command -v rustfmt > /dev/null 2>&1; then
    cargo fmt --all -- --check
    echo "   ok: formatting clean"
else
    loud_skip "rustfmt is not installed (rustup component add rustfmt)"
fi

step "[3/8] cargo clippy --workspace --all-targets -- -D warnings"
if cargo clippy --version > /dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
    echo "   ok: clippy clean"
else
    loud_skip "clippy is not installed (rustup component add clippy)"
fi

step "[4/8] obs feature matrix (on + isolated off)"
# With the feature: the whole workspace, all targets (bench + root
# already default it on, but be explicit for the instrumented crates).
OBS_CRATES=(gde blockingq exec pipes mapreduce wordcount)
for crate in "${OBS_CRATES[@]}"; do
    cargo build --offline -q -p "$crate" --features obs
done
echo "   ok: instrumented builds"
# Without it: each crate in isolation, so feature unification from the
# root crate/bench cannot quietly re-enable obs. This is the zero-cost
# compile gate — the obs_on! macro must expand to nothing and the crates
# must carry no obs code at all.
for crate in "${OBS_CRATES[@]}" coexpr junicon bigint obs; do
    cargo build --offline -q -p "$crate"
    cargo test --offline -q -p "$crate" > /dev/null
done
echo "   ok: uninstrumented builds + tests (obs off)"
# The fault-injection plane has the same shape: `faultpoint!` must expand
# to nothing without the feature (checked above by the isolated builds)
# and compile cleanly with it — including the registry's own obs wiring.
for crate in blockingq pipes exec; do
    cargo build --offline -q -p "$crate" --features faultinj
done
cargo build --offline -q -p faultinj --features obs
echo "   ok: faultpoint builds (faultinj on)"

step "[5/8] examples smoke"
scripts/examples_smoke.sh

step "[6/8] schedtest smoke -> SCHEDTEST_ci.json (schedule-exploration model tests)"
# The deterministic schedule-exploration suites (crates/schedtest/tests/
# model_*.rs) under the virtual scheduler: RUSTFLAGS="--cfg schedtest"
# swaps the parking_lot shim to virtual primitives, so the build lands in
# its own target dir rather than thrashing the main cache. The budget is
# a backstop well above the largest committed exhaustive test (~25k
# schedules): a test that suddenly needs more fails its own `complete`
# assertion loudly instead of burning CI minutes. Each explore() call
# appends one summary line to SCHEDTEST_ci.json; the schedtest gate below
# checks the smoke actually explored schedules.
rm -f SCHEDTEST_ci.json
RUSTFLAGS="--cfg schedtest" CARGO_TARGET_DIR=target/schedtest \
    SCHEDTEST_BUDGET=50000 SCHEDTEST_JSON="$PWD/SCHEDTEST_ci.json" \
    cargo test --offline -q -p schedtest \
    --test model_blockingq --test model_pipes --test model_exec \
    --test model_faults \
    -- --test-threads=1
echo "   ok: model suites green ($(wc -l < SCHEDTEST_ci.json) explorations summarized)"

step "[7/8] bench smoke -> BENCH_ci.json, then the regression gates"
# Small corpus + few iterations: this is a wiring check (does the
# harness run, do the gates hold), not a measurement. BENCH_baseline.json
# is the committed full-size run.
cargo run --offline -q -p bench --release --bin figure6 -- \
    --lines 200 --heavy-lines 40 --iters 3 --warmup 1 --json BENCH_ci.json
# Fault-plane smoke: deterministic injection scenarios through every
# recovery surface (Retry replay, Propagate, degrading fan-in, pool
# containment), snapshotting the fault counters for the `faults` gate.
# Built with the faultinj feature — the figure6 run above stays
# faultpoint-free, so the seq-lw-ratio gate measures the unarmed plane.
cargo run --offline -q -p bench --release --features faultinj \
    --bin fault_smoke -- FAULTS_ci.json 2> /dev/null \
    | sed 's/^/   /'
# Criterion smoke through the shim's env knobs: tiny sample budget.
# Print the hot-path numbers with instrumentation ON and OFF side by
# side (the zero-cost claim, measured).
echo "   -- obs-overhead (instrumentation ON):"
TINYBENCH_SAMPLES=5 TINYBENCH_WARMUP_MS=10 TINYBENCH_SAMPLE_MS=1 \
    cargo bench --offline -q -p bench --bench obs_overhead \
    | grep -E "put_take" | sed 's/^/      /'
echo "   -- obs-overhead (instrumentation OFF):"
TINYBENCH_SAMPLES=5 TINYBENCH_WARMUP_MS=10 TINYBENCH_SAMPLE_MS=1 \
    cargo bench --offline -q -p bench --no-default-features --bench obs_overhead \
    | grep -E "put_take" | sed 's/^/      /'
# Environment hot path: the slot/by-name gap and the interned-key win,
# re-measured cheaply every run (see DESIGN.md § Slot-resolved
# environments).
echo "   -- env hot path (slot vs by-name vs table keys):"
TINYBENCH_SAMPLES=5 TINYBENCH_WARMUP_MS=10 TINYBENCH_SAMPLE_MS=1 \
    cargo bench --offline -q -p bench --bench env_hot \
    | grep -E "env_hot/" | sed 's/^/      /'
# Stage fusion: the collapsed-closure vs stage-per-node gap, re-measured
# cheaply every run (see DESIGN.md § Stage fusion).
echo "   -- stage fusion (fused vs unfused combinator chains):"
TINYBENCH_SAMPLES=5 TINYBENCH_WARMUP_MS=10 TINYBENCH_SAMPLE_MS=1 \
    cargo bench --offline -q -p bench --bench fusion \
    | grep -E "fusion/" | sed 's/^/      /'
# Value representation: create/clone/key costs per string form, the
# compact-value win re-measured cheaply every run (see DESIGN.md §
# Compact values).
echo "   -- value representation (Str vs Sym vs Slice):"
TINYBENCH_SAMPLES=5 TINYBENCH_WARMUP_MS=10 TINYBENCH_SAMPLE_MS=1 \
    cargo bench --offline -q -p bench --bench value_repr \
    | grep -E "value_repr/" | sed 's/^/      /'
# String plane: concat, coerced compares, and byte-indexed subscripting,
# re-measured cheaply every run (see DESIGN.md § String plane).
echo "   -- string plane (concat, coercions, subscripts):"
TINYBENCH_SAMPLES=5 TINYBENCH_WARMUP_MS=10 TINYBENCH_SAMPLE_MS=1 \
    cargo bench --offline -q -p bench --bench str_ops \
    | grep -E "str_ops/" | sed 's/^/      /'

# The regression gates, extracted from the inline grep/awk blocks that
# used to live here into a tested binary (crates/bench/src/gates.rs;
# fixtures in crates/bench/tests/). One PASS/FAIL/SKIP line per gate:
#
#   schema          BENCH_ci.json is a well-formed figure6-v2 snapshot —
#                   renamed keys FAIL loudly instead of skipping;
#   schedtest       SCHEDTEST_ci.json (step 6) sums to explored_schedules
#                   > 0 with no failing exploration — the model smoke
#                   genuinely ran under the virtual scheduler;
#   contention      blocked_takes/takes <= 0.0747, the pre-batching seed
#                   baseline (28262/378288; scale-free, see DESIGN.md §
#                   Batched transport);
#   fusion          gde.comb.fused_stages > 0 — the benchmarked pipelines
#                   still reach the stage-fusion rewriter;
#   compact-values  gde.value.inline_hits > 0 — the compact value
#                   representation is still on the hot path;
#   faults          FAULTS_ci.json (fault_smoke above) shows every fault
#                   counter non-zero: faults.injected, the pipe policy
#                   counters, and blockingq.close.failed — a renamed key
#                   or a dead recovery surface FAILs loudly;
#   seq-lw-ratio    Junicon/Native Sequential-Lightweight median ratio.
#                   The string plane (coercion caches, batched hot-loop
#                   instrumentation, generator recycling at flat
#                   barriers) brought the committed
#                   full-size baseline to ~1.40x (from ~1.53x after
#                   ISSUE 7, ~1.73x at seed); gate at baseline + 15%
#                   headroom = 1.61.
#
# The drift table against BENCH_baseline.json is report-only: smoke-size
# medians are noisy, but the per-cell direction is worth a line in every
# CI log.
GATE_FLAGS=(--json BENCH_ci.json
    --max-blocked-take-ratio 0.0747
    --max-seq-lw-ratio 1.61
    --schedtest-json SCHEDTEST_ci.json
    --faults-json FAULTS_ci.json
    --baseline BENCH_baseline.json)
if [ "$STRICT" = "1" ]; then
    GATE_FLAGS+=(--strict)
fi
cargo run --offline -q -p bench --release --bin gates -- "${GATE_FLAGS[@]}" \
    | sed 's/^/   /'

step "[8/8] perfbench self-test (source-level benchmark, tiny sizes)"
# A wiring check, not a measurement: each workload runs briefly in both
# modes and every BENCHMARK.json metric must be reported with its unit.
# It builds in its own target dir so the two perfbench builds (plain and
# traced) do not thrash the workspace cache.
if command -v python3 > /dev/null 2>&1; then
    CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py --self-test \
        | sed 's/^/   /'
    echo "   ok: perfbench self-test"
else
    loud_skip "python3 is not installed (needed by perfbench/run.py)"
fi

echo
echo "ci: OK"
