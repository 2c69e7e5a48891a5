#!/usr/bin/env bash
# ROADMAP's "how to state a claim" as a command: one workload, SEEDS runs of
# PARENT_REF and of the working tree, interleaved and with the side that goes
# first swapped every seed, then the benchmark's own --compare of the two
# result sets. benchmark/runset.sh cannot do this: it runs one commit's
# seeds back to back, so the box's drift lands on one side. An odd SEEDS is
# rounded up to the next even number, so each side goes first equally often
# (churn-durable's search rows follow run order within a pair). The parent is
# exported with git archive under .bench_build/pair/ (already ignored, and
# wiped on the next call); both sides build themselves through run.sh.
# TRACE=1 runs the traced pairs instead and prints both sides' per-layer
# medians side by side; --compare reads untraced runs only, so it is skipped.
#
# --compare stops at the first workload of BENCHMARK.json that a result set
# lacks, so it is run on the built program from .bench_build/pair/, beside a
# copy of the contract cut down to WORKLOAD (the program looks for
# BENCHMARK.json in its working directory).
#
#	bash ci/bench_pair.sh PARENT_REF WORKLOAD [SEEDS=4]
set -euo pipefail

parent_ref="$1"; workload="$2"; seeds="${3:-4}"; trace="${TRACE:-0}"
if ((seeds % 2)); then
	echo "SEEDS=$seeds is odd: running $((seeds + 1)) seeds so each side goes first in half of them"
	seeds=$((seeds + 1))
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pair="$root/.bench_build/pair"
rm -rf "$pair"
mkdir -p "$pair/parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$pair/parent"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

run() { # run SIDE CHECKOUT: one run of the current seed, appended to SIDE.jsonl
	echo "== seed $seed $1"
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
		--trace "$trace" --out "$pair/$1.jsonl" | grep -E '^(insert|search|setup|peak)' || true
}
for ((seed = 1; seed <= seeds; seed++)); do
	if ((seed % 2)); then
		echo "==== seed $seed: parent→change"
		run parent "$pair/parent"; run change "$root"
	else
		echo "==== seed $seed: change→parent"
		run change "$root"; run parent "$pair/parent"
	fi
done
if [ "$trace" != 0 ]; then
	python3 - "$pair/parent.jsonl" "$pair/change.jsonl" <<'EOF'
import json, statistics, sys
def medians(path):
    runs = [json.loads(line)["metrics"] for line in open(path)]
    return {name: statistics.median(r[name]["value"] for r in runs) for name in runs[0]}, len(runs)
(parent, n), (change, _) = medians(sys.argv[1]), medians(sys.argv[2])
print("%-34s %14s %14s   (median of %d traced runs a side)" % ("per-layer metric", "parent", "change", n))
for name in sorted(parent):
    print("%-34s %14.6g %14.6g" % (name, parent[name], change.get(name, float("nan"))))
EOF
	exit
fi
python3 -c 'import json,sys
bf = json.load(open(sys.argv[1]))
bf["workloads"] = [w for w in bf["workloads"] if w["name"] == sys.argv[2]]
json.dump(bf, open(sys.argv[3], "w"))' "$root/BENCHMARK.json" "$workload" "$pair/BENCHMARK.json"
cd "$pair" && "$root/.bench_build/slicer-benchmark" --compare parent.jsonl change.jsonl
