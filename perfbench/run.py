#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the benchmark program (perfbench/perfbench.cpp)
and the program's libraries from src/ in Release mode under .bench_build/,
runs the workload (or, with "all", every workload in turn), and prints for
each a report followed by one JSON object on a line of its own:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The program's full result (environment, tail percentiles and
sample counts) is written to perfbench/results/; traced runs also leave
<workload>.layers.json and <workload>.tail_trace.json there. Exits non-zero
without a result line when the build, a self-check or a correctness check
fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(HERE, "results")
PROGRAM = os.path.join(BUILD, "lonlf_perfbench")
PROGRAM_TIMEOUT_S = 175


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, encoding="utf-8", errors="replace") as f:
            tail = f.read()[-4000:]
        print(tail, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Runs cmd with its output appended to log; waits for it to end."""
    with open(log, "a", encoding="utf-8") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                        log, 600)
        if rc != 0:
            fail("configure failed", log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", BUILD, "--target", "lonlf_perfbench", "-j", jobs],
                    log, 840)
    if rc != 0:
        fail("build failed", log)


def source_id():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "results")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_workload(spec, workload, seed, seconds, trace):
    """Runs the benchmark program on one workload; returns the result to print."""
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    stem = f"{workload}-seed{seed}-trace{trace}"
    log = os.path.join(RESULTS, stem + ".log")
    out_path = os.path.join(RESULTS, stem + ".json")
    with open(log, "w", encoding="utf-8") as err, \
            open(out_path, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            [PROGRAM, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--out", RESULTS, "--commit", source_id()],
            cwd=ROOT, stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=PROGRAM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{workload}: benchmark program exceeded {PROGRAM_TIMEOUT_S} s", log)
    if rc != 0:
        fail(f"{workload}: benchmark program exited with code {rc}", log)

    with open(out_path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        fail(f"{workload}: benchmark program printed no result", log)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload}: metric set differs from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if (metrics[name]["unit"] != unit or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail(f"{workload}: metric {name} is malformed: {metrics[name]}")

    env = result["env"]
    print(f"workload {workload}  seed {env['seed']}  trace {trace}")
    print(f"env: nproc={env['nproc']} pool={env['pool_threads']} build={env['build_type']} "
          f"compiler={env['compiler']} commit={env['commit']}")
    for key in ("access_tail", "frame_tail", "fetch_self_tail", "download_tail"):
        if key in result:
            t = result[key]
            print(f"{key}: p{t['percentile']:g} of {t['samples']:g} samples")
    if "tail_trace" in result:
        print(f"tail trace: {result['tail_trace']}")
    for name in sorted(metrics):
        print(f"  {name:36s} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
    return {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    build()
    os.makedirs(RESULTS, exist_ok=True)
    for workload in workloads:
        result = run_workload(spec, workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))


if __name__ == "__main__":
    main()
