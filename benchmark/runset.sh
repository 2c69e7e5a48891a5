#!/usr/bin/env bash
# Measures one result set: every workload of BENCHMARK.json, RUNS times with
# seeds FIRST..FIRST+RUNS-1, each run appended to OUT as one line. Two sets of
# the same commit compared with "run.sh --compare A B" is the benchmark's own
# steadiness check; a parent's set against a change's is a before/after pair.
#
#   bash benchmark/runset.sh OUT [RUNS=10] [FIRST=1] [TRACE=0]
set -euo pipefail
out="$1"; runs="${2:-10}"; first="${3:-1}"; trace="${4:-0}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
for workload in $(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$here/../BENCHMARK.json"); do
  for ((seed = first; seed < first + runs; seed++)); do
    bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" | tail -n 1 | cut -c1-60
  done
done
