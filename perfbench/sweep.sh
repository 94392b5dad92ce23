#!/usr/bin/env bash
# Runs workloads once per seed and prints each end-to-end metric's median,
# quartiles and spread ((q3 - q1) / median) over the runs.
#
#   bash perfbench/sweep.sh RUNS SECONDS [WORKLOAD...]
#
# Seeds are 1..RUNS; with no workload named, all four run.  Run it from the
# repository root; result lines go to .bench_build/sweep/<workload>.jsonl.
set -euo pipefail

runs=${1:?runs}
seconds=${2:?seconds}
shift 2
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(table1-synthetic puzzle-membound serve-mixed steal-2node)
fi

out=.bench_build/sweep
mkdir -p "$out"
files=()
for w in "${workloads[@]}"; do
	: >"$out/$w.jsonl"
	for seed in $(seq 1 "$runs"); do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.jsonl"
	done
	files+=("$out/$w.jsonl")
done
.bench_build/perfbench --summarize "${files[@]}"
