#!/usr/bin/env python3
"""Builds and runs the solver benchmark (see solverbench.cpp for the workloads).

Run from the repository root:

    python3 solverbench/run.py --workload sphere_warm --seed 1 --seconds 55 --trace 0

The first run configures and builds the benchmark and the solver libraries
into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only
what changed. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Determinism: every untraced run records its solution hash per
(binary, workload, seed) in the build directory; a later run of the same
binary and seed that hashes differently fails.

    python3 solverbench/run.py --self-test

checks that the output check counts a corrupted solution as failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sphere_warm", "poisson_p1")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"solverbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "solverbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "app", "service.h"))):
        fail(f"no solver sources under {ROOT} (expected CMakeLists.txt and "
             "src/); run from a checkout of the repository")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", "solverbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "solverbench")


def metric_units(trace):
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def binary_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_determinism(binary, workload, seed, solution_hash):
    """Compares against the hash an earlier run of this binary recorded."""
    path = os.path.join(build_dir(), "determinism.json")
    record = {}
    if os.path.isfile(path):
        with open(path) as f:
            record = json.load(f)
    key = f"{binary_digest(binary)}:{workload}:{seed}"
    previous = record.get(key)
    if previous is not None and previous != solution_hash:
        print(f"solverbench: determinism check FAILED: seed {seed} hashed "
              f"{solution_hash}, an earlier run of this binary {previous}",
              file=sys.stderr)
        return False
    record[key] = solution_hash
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"],
                                timeout=RUN_TIMEOUT_S).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    lines = proc.stdout.splitlines()
    result_lines = [ln for ln in lines if ln.startswith("result ")]
    for ln in lines:
        if not ln.startswith("result "):
            print(ln)
    if proc.returncode != 0 or not result_lines:
        fail(f"benchmark exited with code {proc.returncode}")
    raw = json.loads(result_lines[-1][len("result "):])

    correct = bool(raw["correct"]) and raw["failed"] == 0
    units = metric_units(args.trace)
    if set(units) != set(raw["metrics"]):
        print("solverbench: the run's metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(units) - set(raw['metrics']))}, "
              f"unlisted {sorted(set(raw['metrics']) - set(units))}",
              file=sys.stderr)
        correct = False
    metrics = {name: {"value": raw["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in raw["metrics"]}
    if not args.trace:
        correct = check_determinism(binary, args.workload, args.seed,
                                    raw["hash"]) and correct
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
