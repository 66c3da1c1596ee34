#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload bulk|churn|rpc --seed N \
        --seconds S --trace 0|1

Builds perfbench_bin (the repository's libraries plus the workloads in
perfbench/src) as a Release build under .bench_build/perfbench, runs the
workload in its own single-threaded process and prints, as the last line of
standard output, {"correct", "attempted", "failed", "metrics"}, with the
metric names and units BENCHMARK.json lists.  With --trace 0 the metrics are
the end-to-end set; with --trace 1 the per-layer set, from a traced run of
the same workload plus an untraced one for the tracing overhead.  The span
trace is written to .bench_build/traces/.

Exits non-zero without printing a result when the program cannot be built
or run, and with "correct": false and a non-zero code when any operation
failed, the invariant audit found a violation, or the traced run's
determinism fingerprint differs from the untraced run's.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_bin")

# Workload and metric names and units, as BENCHMARK.json lists them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Anything that would put another engine or build under the same numbers.
PINNED_ENV = ("MIC_SIM_SHARDS", "MIC_SIM_THREADS", "MIC_SIM_PARALLEL",
              "MIC_PATH_WARMUP_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    for var in PINNED_ENV:
        env.pop(var, None)
    return env


def build():
    """Configure once, then build incrementally; all output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    for var in ("CXXFLAGS", "LDFLAGS", "CMAKE_CXX_FLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            fail(f"refusing a sanitizer build ({var} has -fsanitize)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log,
                               env=child_env()) != 0:
                fail(f"configure failed, see {log_path}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=log, stderr=log, env=child_env()) != 0:
            fail(f"build failed, see {log_path}")


def run_binary(workload, seed, seconds, trace, trace_out=None):
    """Run perfbench_bin once; returns its parsed JSON line."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=child_env(), timeout=170)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"{workload}: no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def source_revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout.strip()
        if rev:
            return f"git:{rev}"
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"sha256:{digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    untraced = run_binary(args.workload, args.seed, args.seconds, False)
    runs = [untraced]
    errors = []
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        traced = run_binary(
            args.workload, args.seed, args.seconds, True,
            os.path.join(traces, f"{args.workload}-{args.seed}.json"))
        runs.append(traced)
        # Determinism self-check: both modes must execute the same program,
        # so the sim_* metrics and the measured phase's counts repeat exactly.
        a, b = untraced["fingerprint"], traced["fingerprint"]
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                errors.append(f"traced run differs on {key}: "
                              f"{a.get(key)} untraced, {b.get(key)} traced")
        measured = dict(traced["metrics"])
        measured["harness.trace_overhead"] = (
            traced["metrics"]["ops_per_s"] / untraced["metrics"]["ops_per_s"])
        # Per-layer figures the workload has no op for (churn cycles on
        # bulk, say) read 0.
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        self_time = {k: v / 1e9 for k, v in traced["self_time_ns"].items()}
        print("self_time_s " + json.dumps(self_time, sort_keys=True))
    else:
        missing = sorted(set(END_TO_END) - set(untraced["metrics"]))
        if missing:
            fail(f"{args.workload}: no value for {', '.join(missing)}")
        metrics = {name: {"value": untraced["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    failed = max(r["failed"] for r in runs)
    correct = (failed == 0 and not errors and
               all(r["exit_code"] == 0 for r in runs))
    errors += [e for r in runs for e in r["errors"]]
    provenance = {
        "revision": source_revision(),
        "build_type": untraced["build"]["type"],
        "compiler": untraced["build"]["compiler"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "fingerprint": untraced["fingerprint"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": untraced["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
