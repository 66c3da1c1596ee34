#!/usr/bin/env bash
# Tier-1 verification across the sanitizer matrix.
#
#   scripts/check.sh          # plain, then ASan/UBSan, then TSan
#   scripts/check.sh --fast   # plain only
#
# Tiers build into separate trees so they cache independently:
#   build/       plain            (the tier-1 command from ROADMAP.md)
#   build-asan/  MIC_SANITIZE=address   -> -fsanitize=address,undefined
#   build-tsan/  MIC_SANITIZE=thread    -> -fsanitize=thread
#
# The TSan tier exports MIC_PATH_WARMUP_THREADS=4 so every controller in
# the suite constructs its PathEngine through the multi-threaded warm-up
# path (ControllerConfig::effective_warmup_threads honours the override),
# putting the rows_mu_-guarded cache under real contention instead of only
# in the handful of tests that opt in.  That warm-up pool is the only
# thread the simulator starts.
set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local dir=$1; shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

echo "== plain =="
run_suite build

echo "== perf-regression guards =="
# The timing wheel must beat the frozen heap engine.  A flow-rule install
# must not grow with the table: per-rule exact-install cost in a table of
# 4096 rules may be at most 2x the cost at 64 (an O(table) install is
# ~20-60x).  The dataplane smoke's measured bulk phase must run on recycled
# payload buffers only (zero arena allocations after warm-up).
./build/bench/micro_sim --min_speedup 1.0
./build/bench/micro_flowtable --max_install_growth 2.0
./build/bench/macro_dataplane --smoke

echo "== admission flood guard =="
# Honest establishment p99 under a 10x flood + slowloris trickle must stay
# within a fixed multiple of the unloaded p99 (latencies are simulated
# time, so this is exact, not a wall-clock threshold).
./build/bench/control_flood --smoke

echo "== recovery + failover smoke (audit-gated) =="
# The crash/recover sweep plus the warm-standby failover leg; each point
# re-checks audit::run_all, so a reconciliation bug fails the run even if
# the latency numbers look fine.
(cd build && ./bench/controller_recovery --smoke)

echo "== soak trace-hash replay =="
# Every seeded chaos / MC-crash / failover soak fingerprint must replay
# bit-identically against the recorded golden file.
scripts/record_trace_hashes.sh verify build

if [[ "${1:-}" != "--fast" ]]; then
  echo "== sanitized (address,undefined) =="
  run_suite build-asan -DMIC_SANITIZE=address

  echo "== sanitized (thread, warm-up threads >= 4) =="
  MIC_PATH_WARMUP_THREADS=4 run_suite build-tsan -DMIC_SANITIZE=thread

  echo "== scheduler differential, deep (SIM-2 oracle x20k ops/seed) =="
  # The default suite already fuzzes >10k ops; the instrumented tier is
  # the cheapest place to go deeper, so rerun the wheel-vs-reference
  # oracle with the per-seed op count raised an order of magnitude.
  MIC_SIM_DIFF_CASES=20000 ./build-tsan/tests/mic_tests \
    --gtest_filter='SimulatorDiff.*'
fi

echo "OK"
