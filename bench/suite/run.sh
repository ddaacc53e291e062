#!/usr/bin/env bash
# Run every ptucker_bench workload and merge the results into one JSON file.
#
# Usage (from the repository root):
#   bench/suite/run.sh [out.json] [--seed S] [--sets N] [--seconds T] [--smoke]
#
# Each workload of BENCHMARK.json runs N times (default 5), each run its own
# process with seed S, S+1, ..., S+N-1 and tracing off; then each runs once
# traced with seed S. The merged file holds, per workload, every metric's
# median, p25, p75 (Python's statistics.quantiles(n=4), as the regression
# check uses), min, max and n over the runs, the summed ops attempted and
# failed, the git sha, and the compiler and flags from CMakeCache.txt.
# Compare two such files with bench/suite/compare.py.
#
# --smoke instead runs every workload at tiny sizes with every check and
# validates the reported names against BENCHMARK.json (under 30 s once
# built).
set -euo pipefail

OUT=""
SEED=1
SETS=5
SECONDS_PER_RUN=15
SMOKE=0
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) SEED=$2; shift 2 ;;
    --sets) SETS=$2; shift 2 ;;
    --seconds) SECONDS_PER_RUN=$2; shift 2 ;;
    --smoke) SMOKE=1; shift ;;
    -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    *) OUT=$1; shift ;;
  esac
done

if [ "$SMOKE" = 1 ]; then
  exec python3 bench/suite/run.py --smoke
fi

SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
OUT=${OUT:-.bench_build/bench-${SHA:0:12}.json}
mkdir -p .bench_build
TMP=$(mktemp -d .bench_build/runsh.XXXXXX)
trap 'rm -rf "$TMP"' EXIT

WORKLOADS=$(python3 -c \
  'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in $WORKLOADS; do
  for ((i = 0; i < SETS; i++)); do
    s=$((SEED + i))
    echo "run.sh: $w seed $s" >&2
    python3 bench/suite/run.py --workload "$w" --seed "$s" \
      --seconds "$SECONDS_PER_RUN" --trace 0 --record "$TMP/$w.0.$s.json" \
      > /dev/null
  done
done
for w in $WORKLOADS; do
  echo "run.sh: $w traced" >&2
  python3 bench/suite/run.py --workload "$w" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 1 --record "$TMP/$w.1.$SEED.json" \
    > /dev/null
done

python3 - "$OUT" "$SHA" "$SEED" "$SETS" "$TMP" <<'EOF'
import glob, json, os, statistics, sys

out, sha, seed, sets, tmp = sys.argv[1:6]

def cache_value(key):
    path = os.path.join(".bench_build", "ptucker_bench", "CMakeCache.txt")
    for line in open(path):
        if line.startswith(key + ":"):
            return line.split("=", 1)[1].strip()
    return ""

def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}

spec = json.load(open("BENCHMARK.json"))
merged = {
    "git_sha": sha, "seed": int(seed), "sets": int(sets),
    "build": {
        "compiler": cache_value("CMAKE_CXX_COMPILER"),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "cxx_flags": " ".join(filter(None, (cache_value("CMAKE_CXX_FLAGS"),
                                             cache_value("CMAKE_CXX_FLAGS_RELEASE")))),
    },
    "workloads": {},
}
for w in (x["name"] for x in spec["workloads"]):
    entry = {"ops_attempted": 0, "ops_failed": 0}
    for trace, key in ((0, "metrics"), (1, "layers")):
        records = [json.load(open(p)) for p in
                   sorted(glob.glob(os.path.join(tmp, "%s.%d.*.json" % (w, trace))))]
        for r in records:
            entry["ops_attempted"] += r["ops_attempted"]
            entry["ops_failed"] += r["ops_failed"]
        if records:
            entry.setdefault("config", records[0]["config"])
            entry.setdefault("driver_build", records[0]["build"])
            entry[key] = {
                name: dict(unit=m["unit"],
                           **summary([r["metrics"][name]["value"] for r in records]))
                for name, m in records[0]["metrics"].items()}
    merged["workloads"][w] = entry
os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
with open(out, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")
print("run.sh: wrote " + out, file=sys.stderr)
EOF
