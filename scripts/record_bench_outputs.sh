#!/usr/bin/env bash
# Record or verify the stdout of every paper-figure, ablation and
# fault-recovery bench, and of controller_recovery --smoke, byte for byte.
#
# These benches print simulated-time numbers only, so their output is a
# pure function of the source: two runs of the same build print identical
# bytes.  Committing that output turns "the figures still reproduce" from a
# by-hand diff into a gate.
#
#   scripts/record_bench_outputs.sh record [build-dir]
#       Run every bench and write its stdout to bench/golden/<bench>.txt
#       (checked into the repo).  A change that moves a figure on purpose
#       re-records and says why in CHANGES.md.
#
#   scripts/record_bench_outputs.sh verify [build-dir]
#       Re-run every bench and diff its stdout against the golden file.
#       Exits non-zero on any difference, and on any bench that exits
#       non-zero (each does after a failed session).  scripts/check.sh and
#       CI run this.
#
# fig9b takes ~25 s and is not covered.  controller_recovery keeps its
# wall times out of stdout (they go to its BENCH_recovery.json ledger) and
# exits non-zero when an audit fails after a recovery or a takeover.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-verify}"
build_dir="${2:-build}"
golden_dir="bench/golden"
benches=(abl_channel_reuse abl_multi_mflow abl_observer_sweep
         abl_partial_multicast abl_privacy_level abl_short_sessions
         controller_recovery fault_recovery fig7_route_setup fig8_latency
         fig9a_throughput_pathlen fig9c_cpu_usage)

for b in "${benches[@]}"; do
  if [[ ! -x "$build_dir/bench/$b" ]]; then
    echo "error: $build_dir/bench/$b not built (cmake --build $build_dir)" >&2
    exit 2
  fi
done

# run <bench> <out-file>: stdout to the file; a non-zero exit fails the
# script (set -e).  controller_recovery runs its CI-sized sweep inside the
# build tree, where it writes its ledger, so the committed
# BENCH_recovery.json stays untouched.
run() {
  if [[ $1 == controller_recovery ]]; then
    (cd "$build_dir" && ./bench/controller_recovery --smoke) > "$2"
  else
    "$build_dir/bench/$1" > "$2"
  fi
}

case "$mode" in
  record)
    mkdir -p "$golden_dir"
    for b in "${benches[@]}"; do
      run "$b" "$golden_dir/$b.txt"
    done
    echo "recorded ${#benches[@]} bench outputs to $golden_dir/"
    ;;
  verify)
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    failed=0
    for b in "${benches[@]}"; do
      if [[ ! -f "$golden_dir/$b.txt" ]]; then
        echo "error: $golden_dir/$b.txt missing -- run '$0 record $build_dir' first" >&2
        exit 2
      fi
      if ! run "$b" "$tmp/$b.txt"; then
        echo "FAIL: $b exited non-zero" >&2
        failed=1
        continue
      fi
      if ! diff -u "$golden_dir/$b.txt" "$tmp/$b.txt"; then
        echo "FAIL: $b stdout diverged from $golden_dir/$b.txt" >&2
        failed=1
      fi
    done
    if [[ $failed -ne 0 ]]; then exit 1; fi
    echo "OK: ${#benches[@]} bench outputs replay byte for byte"
    ;;
  *)
    echo "usage: $0 {record|verify} [build-dir]" >&2
    exit 2
    ;;
esac
