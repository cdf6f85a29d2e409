#!/usr/bin/env bash
# pairs.sh <parent-rev> "<workload>..." [n] [seconds]: n alternating paired
# runs of each named benchmark workload, <parent-rev> against this working
# tree (uncommitted edits included), seeds 1..n. The parent is archived into
# a temp dir as identical.sh does; each side's benchmark binary is built
# once for all the workloads (run.sh rebuilds per run); both sides' out/
# directories are emptied first, so no earlier run leaks into the medians;
# odd seeds run the parent first, even seeds this tree. For each workload
# it prints a verdict block: every pair's iter_wall_s_p50 and
# iter_cpu_s_p50, how many pairs this tree wins on each, each side's
# quartiles and IQR, and one line saying whether the claim rule holds on
# iter_wall_s_p50 (this tree wins at least 9 of every 10 pairs and its
# median is lower than the parent's by more than the parent's IQR). Last
# comes one `run.sh -compare` over every workload, whose exit status it
# returns. Run via `make pairs PARENT=<rev> WORKLOAD="<w>..." [N=10]
# [SECONDS=10]`.
set -euo pipefail
usage='usage: pairs.sh <parent-rev> "<workload>..." [n] [seconds]'
rev=${1:?$usage}
read -r -a workloads <<<"${2:?$usage}"
[ ${#workloads[@]} -gt 0 ] || { echo "$usage" >&2; exit 2; }
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

run() { # <tree> <workload> <seed>
	(cd "$1" && .bench_build/scidp-benchmark -out .bench_build/out \
		--workload "$2" --seed "$3" --seconds "$secs" >/dev/null)
}

# metric <tree> <workload> <seed> <name>: one metric's value from a result
# file, which the benchmark writes with each value on the line after its
# name.
metric() {
	awk -v name="\"$4\": {" 'found { gsub(/[",]/, "", $2); print $2; exit } index($0, name) { found = 1 }' \
		"$1/.bench_build/out/result-$2-seed$3.json"
}

# quartiles <value>...: q1, median and q3 of the values, interpolated
# between order statistics as the benchmark's own quantile is.
quartiles() {
	printf '%s\n' "$@" | sort -g | awk '{ v[NR - 1] = $1 } END {
		split("0.25 0.5 0.75", q, " ")
		for (i = 1; i <= 3; i++) {
			pos = q[i] * (NR - 1); lo = int(pos)
			x = lo >= NR - 1 ? v[NR - 1] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
			printf "%.6g%s", x, i < 3 ? " " : "\n"
		}
	}'
}

# row <label> <value>...: one side's quartiles and IQR of one metric.
row() {
	local label=$1 q1 med q3
	shift
	read -r q1 med q3 <<<"$(quartiles "$@")"
	awk -v l="$label" -v a="$q1" -v m="$med" -v b="$q3" 'BEGIN { printf "%-24s %-10.6g %-10.6g %-10.6g %-10.6g\n", l, a, m, b, b - a }'
}

# block <workload>: n pairs of one workload and its verdict.
block() {
	local workload=$1 seed wp wc cp cc pq1 pmed pq3 cmed
	local wall_wins=0 cpu_wins=0 wall_p=() wall_c=() cpu_p=() cpu_c=()
	echo "pairs: $workload, $n pairs of ${secs}s, parent $commit vs $root"
	printf '%-5s %-12s %-12s %-12s %-12s\n' seed wall-parent wall-change cpu-parent cpu-change
	for seed in $(seq 1 "$n"); do
		if [ $((seed % 2)) = 1 ]; then
			run "$tmp/parent" "$workload" "$seed"
			run "$root" "$workload" "$seed"
		else
			run "$root" "$workload" "$seed"
			run "$tmp/parent" "$workload" "$seed"
		fi
		wp=$(metric "$tmp/parent" "$workload" "$seed" iter_wall_s_p50)
		wc=$(metric "$root" "$workload" "$seed" iter_wall_s_p50)
		cp=$(metric "$tmp/parent" "$workload" "$seed" iter_cpu_s_p50)
		cc=$(metric "$root" "$workload" "$seed" iter_cpu_s_p50)
		printf '%-5s %-12s %-12s %-12s %-12s\n' "$seed" "$wp" "$wc" "$cp" "$cc"
		wall_p+=("$wp") wall_c+=("$wc") cpu_p+=("$cp") cpu_c+=("$cc")
		if awk -v a="$wc" -v b="$wp" 'BEGIN { exit !(a < b) }'; then wall_wins=$((wall_wins + 1)); fi
		if awk -v a="$cc" -v b="$cp" 'BEGIN { exit !(a < b) }'; then cpu_wins=$((cpu_wins + 1)); fi
	done
	echo "pairs: this tree is faster in $wall_wins/$n pairs on iter_wall_s_p50, $cpu_wins/$n on iter_cpu_s_p50"
	printf '%-24s %-10s %-10s %-10s %-10s\n' "" q1 median q3 IQR
	row "wall parent" "${wall_p[@]}"
	row "wall change" "${wall_c[@]}"
	row "cpu parent" "${cpu_p[@]}"
	row "cpu change" "${cpu_c[@]}"
	read -r pq1 pmed pq3 <<<"$(quartiles "${wall_p[@]}")"
	read -r _ cmed _ <<<"$(quartiles "${wall_c[@]}")"
	awk -v wl="$workload" -v w="$wall_wins" -v n="$n" -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cmed="$cmed" 'BEGIN {
		gain = pmed - cmed; iqr = pq3 - pq1
		printf "pairs: %s: the claim rule on iter_wall_s_p50 %s: %d/%d pairs won (needs 9 of every 10); parent median - change median = %.4g s (must exceed the parent IQR, %.4g s)\n\n",
			wl, (w * 10 >= n * 9 && gain > iqr) ? "holds" : "does not hold", w, n, gain, iqr
	}'
}

for workload in "${workloads[@]}"; do
	block "$workload"
done
status=0
(cd "$root" && bash benchmark/run.sh -compare "$tmp/parent/.bench_build/out" "$root/.bench_build/out") || status=$?
exit $status
