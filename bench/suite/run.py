#!/usr/bin/env python3
"""Build ptucker_bench from this checkout and run one workload.

Run from the root of the repository:

  python3 bench/suite/run.py --workload compress-sp --seed 1 --seconds 15 --trace 0
  python3 bench/suite/run.py --smoke

The first form builds the driver (CMake, Release, into .bench_build/) if
needed, runs one workload in its own process, and prints as the last line of
standard output one JSON object:

  {"correct": true, "attempted": 52, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set (and a chrome://tracing file is left under
.bench_build/traces/). --record FILE also keeps the driver's full run record
(sample summaries, config, build) for bench/suite/run.sh.

--smoke runs every workload at tiny sizes in both modes, with every
correctness check, and validates the reported names and units against
BENCHMARK.json. It exits 0 only if every run is correct.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "ptucker_bench")
BINARY = os.path.join(BUILD_DIR, "ptucker_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    """The driver compiles the repository's own sources; refuse to run
    anywhere else rather than report numbers for nothing."""
    for required in ("CMakeLists.txt", "src", os.path.join("bench", "suite", "CMakeLists.txt")):
        if not os.path.exists(required):
            fail("run from the root of a ptucker checkout (missing %s)" % required)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join("bench", "suite"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "2"],
                   stdout=sys.stderr, check=True)


def run_driver(workload, seed, seconds, trace, smoke=False):
    """Run the driver once; return its full record (a dict)."""
    os.makedirs(".bench_build", exist_ok=True)
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    record_path = os.path.join(".bench_build", "record-%s.json" % tag)
    workdir = os.path.join(".bench_build", "work-%s" % tag)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", record_path,
           "--workdir", workdir]
    if trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, workload + ".json")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        fail("%s exited with code %d" % (workload, code))
    with open(record_path) as f:
        record = json.load(f)
    os.remove(record_path)
    return record


def contract_line(record):
    return {
        "correct": record["ops_failed"] == 0 and record["ops_attempted"] > 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": record["metrics"],
    }


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    start = time.monotonic()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            record = run_driver(workload, 1, 0.5, trace, smoke=True)
            line = contract_line(record)
            where = "%s --trace %d" % (workload, trace)
            if not line["correct"]:
                problems.append("%s: %d of %d ops failed"
                                % (where, line["failed"], line["attempted"]))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metric names/units differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (
                                    where,
                                    sorted(set(expected[trace]) - set(got)),
                                    sorted(set(got) - set(expected[trace]))))
            for name, m in line["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s is not a finite number" % (where, name))
                elif trace == 0 and v == 0:
                    problems.append("%s: end-to-end metric %s is 0" % (where, name))
            print("smoke %-28s ok=%s attempted=%d" % (where, line["correct"],
                                                       line["attempted"]),
                  file=sys.stderr)
    for p in problems:
        print("smoke FAILED: " + p, file=sys.stderr)
    print("smoke: %d runs in %.1f s, %d problems"
          % (2 * len(spec["workloads"]), time.monotonic() - start, len(problems)),
          file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    check_checkout()
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    if args.smoke:
        return smoke()
    if not args.workload:
        fail("--workload is required")
    record = run_driver(args.workload, args.seed, args.seconds, args.trace)
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f)
    print(json.dumps(contract_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
