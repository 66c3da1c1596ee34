#!/usr/bin/env bash
# Record or verify the bit-reproducibility fingerprints of every seeded
# soak in one run.
#
# The chaos, MC-crash and failover soaks fingerprint every packet on every
# link into an event-trace hash (see net::TraceHash); identical seeds must
# produce identical hashes.  This script replaces the manual two-command
# recipe that used to live in EXPERIMENTS.md:
#
#   scripts/record_trace_hashes.sh record [build-dir]
#       Run all soaks and write the sorted fingerprints to
#       tests/golden_trace_hashes.txt (checked into the repo).
#
#   scripts/record_trace_hashes.sh verify [build-dir]
#       Re-run the soaks and diff the fingerprints against the recorded
#       file.  Exits non-zero on any divergence.  scripts/check.sh runs this
#       after the plain tier when the golden file exists.
#
# The golden file is a *machine-local* baseline unless the whole fleet
# builds with identical flags: record on the machine that verifies.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-verify}"
build_dir="${2:-build}"
tests_bin="$build_dir/tests/mic_tests"
golden="tests/golden_trace_hashes.txt"
filter='ChaosSoak.*:McCrashSoak.*:FailoverSoak.*'

if [[ ! -x "$tests_bin" ]]; then
  echo "error: $tests_bin not built (cmake --build $build_dir)" >&2
  exit 2
fi

collect() {
  # The soaks print one "TRACE_HASH <label> seed=... hash=... n=..." line
  # per schedule on stderr; everything else is noise here.  A failing soak
  # fails the pipeline (pipefail), which fails the script.
  MIC_PRINT_TRACE_HASH=1 "$tests_bin" --gtest_filter="$filter" 2>&1 \
    | grep '^TRACE_HASH' | sort
}

case "$mode" in
  record)
    collect > "$golden"
    echo "recorded $(wc -l < "$golden") fingerprints to $golden"
    ;;
  verify)
    if [[ ! -f "$golden" ]]; then
      echo "error: $golden missing -- run '$0 record $build_dir' first" >&2
      exit 2
    fi
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    collect > "$tmp"
    if ! diff -u "$golden" "$tmp"; then
      echo "FAIL: trace hashes diverged from $golden" >&2
      exit 1
    fi
    echo "OK: $(wc -l < "$golden") fingerprints replay bit-identically"
    ;;
  *)
    echo "usage: $0 {record|verify} [build-dir]" >&2
    exit 2
    ;;
esac
