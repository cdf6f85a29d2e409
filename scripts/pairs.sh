#!/usr/bin/env bash
# pairs.sh <parent-rev> <workload> [n] [seconds]: n alternating paired runs
# of one benchmark workload, <parent-rev> against this working tree
# (uncommitted edits included), seeds 1..n. The parent is archived into a
# temp dir as identical.sh does; each side's benchmark binary is built once
# (run.sh rebuilds per run); both sides' out/ directories are emptied
# first, so no earlier run leaks into the medians; odd seeds run the parent
# first, even seeds this tree. It prints every pair's iter_wall_s_p50 and
# iter_cpu_s_p50 and how many pairs this tree wins on each, then ends with
# `run.sh -compare`, whose exit status it returns. Run via
# `make pairs PARENT=<rev> WORKLOAD=<w> [N=10] [SECONDS=10]`.
set -euo pipefail
usage="usage: pairs.sh <parent-rev> <workload> [n] [seconds]"
rev=${1:?$usage}
workload=${2:?$usage}
n=${3:-10}
secs=${4:-10}
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent"
git -C "$root" archive "$commit" | tar -x -C "$tmp/parent"

# Both sides build as run.sh does, sharing this tree's build cache.
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
for tree in "$tmp/parent" "$root"; do
	go build -C "$tree/benchmark" -o "$tree/.bench_build/scidp-benchmark" .
	rm -rf "$tree/.bench_build/out"
done

run() { # <tree> <seed>
	(cd "$1" && .bench_build/scidp-benchmark -out .bench_build/out \
		--workload "$workload" --seed "$2" --seconds "$secs" >/dev/null)
}

# metric <tree> <seed> <name>: one metric's value from a result file, which
# the benchmark writes with each value on the line after its name.
metric() {
	awk -v name="\"$3\": {" 'found { gsub(/[",]/, "", $2); print $2; exit } index($0, name) { found = 1 }' \
		"$1/.bench_build/out/result-$workload-seed$2.json"
}

echo "pairs: $workload, $n pairs of ${secs}s, parent $commit vs $root"
printf '%-5s %-12s %-12s %-12s %-12s\n' seed wall-parent wall-change cpu-parent cpu-change
wall_wins=0 cpu_wins=0
for seed in $(seq 1 "$n"); do
	if [ $((seed % 2)) = 1 ]; then
		run "$tmp/parent" "$seed"
		run "$root" "$seed"
	else
		run "$root" "$seed"
		run "$tmp/parent" "$seed"
	fi
	wp=$(metric "$tmp/parent" "$seed" iter_wall_s_p50)
	wc=$(metric "$root" "$seed" iter_wall_s_p50)
	cp=$(metric "$tmp/parent" "$seed" iter_cpu_s_p50)
	cc=$(metric "$root" "$seed" iter_cpu_s_p50)
	printf '%-5s %-12s %-12s %-12s %-12s\n' "$seed" "$wp" "$wc" "$cp" "$cc"
	if awk -v a="$wc" -v b="$wp" 'BEGIN { exit !(a < b) }'; then wall_wins=$((wall_wins + 1)); fi
	if awk -v a="$cc" -v b="$cp" 'BEGIN { exit !(a < b) }'; then cpu_wins=$((cpu_wins + 1)); fi
done
echo "pairs: this tree is faster in $wall_wins/$n pairs on iter_wall_s_p50, $cpu_wins/$n on iter_cpu_s_p50"
cd "$root" && bash benchmark/run.sh -compare "$tmp/parent/.bench_build/out" "$root/.bench_build/out"
