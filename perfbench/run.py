#!/usr/bin/env python3
"""Repository benchmark for the EBCP simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator libraries and the
benchmark driver from source (CMake, Release, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), then runs the
workload in its own process and checks its output. NAME is one of the
workloads in BENCHMARK.json, or "all" to run each in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones of the traced run. Exits non-zero, without a result line, when
the build or the run fails. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def host_cpus():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once and build the driver; returns its path."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    # One build at a time per checkout, however many runs start at once.
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", str(host_cpus())])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def attach_units(result, expected):
    """Give each metric the unit BENCHMARK.json declares; returns the
    problems found with the driver's result, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    values = result["metrics"]
    units = {m["name"]: m["unit"] for m in expected}
    if set(values) != set(units):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(units) - set(values)),
                                      sorted(set(values) - set(units))))
    metrics = {}
    for name in units:
        v = values.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s is not a finite number" % name)
            continue
        metrics[name] = {"value": v, "unit": units[name]}
        print("metric %s = %r %s" % (name, v, units[name]))
    result["metrics"] = metrics
    return problems


def run_workload(binary, spec, args, workload):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, r.returncode))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    expected = spec["per_layer" if args.trace else "end_to_end"]
    problems = attach_units(result, expected)
    for p in problems:
        print("FAILED: %s: %s" % (workload, p))
    if problems:
        result["correct"] = False
    return result


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        workloads = names if args.workload == "all" else [args.workload]
        results = {}
        for w in workloads:
            print("== %s (seed %d, %ds, trace %d)"
                  % (w, args.seed, args.seconds, args.trace))
            results[w] = run_workload(binary, spec, args, w)
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
