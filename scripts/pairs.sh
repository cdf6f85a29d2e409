#!/usr/bin/env bash
# pairs.sh <parent-rev> "<workload>..." [n] [seconds] [metric] [change-rev]:
# n alternating paired runs of each named benchmark workload, <parent-rev>
# against this working tree (uncommitted edits included), or against
# <change-rev> when one is given, seeds 1..n. The parent (and a change
# rev) is archived into a temp dir as identical.sh does; each side's
# benchmark binary is built once for all the workloads (run.sh rebuilds per
# run); both sides' out/ directories are emptied first, so no earlier run
# leaks into the medians; odd seeds run the parent first, even seeds this
# tree. metric is the claimed one, an end-to-end metric of BENCHMARK.json
# (default iter_wall_s_p50). For each workload it prints a verdict block:
# every pair's iter_wall_s_p50, iter_cpu_s_p50 and metric, how many pairs
# this tree wins on each (in the direction BENCHMARK.json calls better),
# each side's quartiles and IQR, and one line saying whether the claim
# rule holds on metric (this tree wins at least 9 of every 10 pairs and
# its median beats the parent's by more than the parent's IQR), then every
# end-to-end metric's median on each side, their ratio and each side's
# spread (IQR over median). Last comes one `run.sh -compare` over every
# workload, whose exit status it returns. Run via `make pairs
# PARENT=<rev> WORKLOAD="<w>..." [N=10] [SECONDS=10]
# [METRIC=iter_wall_s_p50]`; `make aa WORKLOAD="<w>..." [REV=HEAD]` runs
# one rev against itself (both sides archived, so a dirty tree is fine):
# its ratios and spreads are the noise a claim has to clear.
set -euo pipefail
usage='usage: pairs.sh <parent-rev> "<workload>..." [n] [seconds] [metric] [change-rev]'
rev=${1:?$usage}
read -r -a workloads <<<"${2:?$usage}"
[ ${#workloads[@]} -gt 0 ] || { echo "$usage" >&2; exit 2; }
n=${3:-10}
secs=${4:-10}
METRIC=${5:-iter_wall_s_p50}
changerev=${6:-}
root=$(git rev-parse --show-toplevel)

# The claimed metric must be one of BENCHMARK.json's end-to-end metrics
# (the ones every result file carries); its "better" says which way wins.
declare -A better=([iter_wall_s_p50]=lower [iter_cpu_s_p50]=lower) label=([iter_wall_s_p50]=wall [iter_cpu_s_p50]=cpu)
better[$METRIC]=$(awk -v name="\"$METRIC\"" 'index($0, "\"name\": " name) { found = 1 }
	found && /"better"/ { gsub(/[",]/, "", $2); print $2; exit }' "$root/BENCHMARK.json")
[ -n "${better[$METRIC]}" ] || { echo "pairs.sh: $METRIC is not a metric in BENCHMARK.json" >&2; exit 2; }
label[$METRIC]=${label[$METRIC]:-$METRIC}
shown=(iter_wall_s_p50 iter_cpu_s_p50)
case " ${shown[*]} " in *" $METRIC "*) ;; *) shown+=("$METRIC") ;; esac
declare -A width
for m in "${shown[@]}"; do width[$m]=$((${#label[$m]} + 7 > 14 ? ${#label[$m]} + 7 : 14)); done
# The end-to-end metrics, in BENCHMARK.json's order, for the spread table.
mapfile -t endtoend < <(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); print $2 }' "$root/BENCHMARK.json")
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent"
git -C "$root" archive "$commit" | tar -x -C "$tmp/parent"
change=$root changename=$root
if [ -n "$changerev" ]; then
	changename=$(git -C "$root" rev-parse --verify "$changerev^{commit}")
	change=$tmp/change
	mkdir -p "$change"
	git -C "$root" archive "$changename" | tar -x -C "$change"
fi

# Both sides build as run.sh does, sharing this tree's build cache.
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
for tree in "$tmp/parent" "$change"; do
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
	local name=$1 q1 med q3
	shift
	read -r q1 med q3 <<<"$(quartiles "$@")"
	awk -v l="$name" -v a="$q1" -v m="$med" -v b="$q3" 'BEGIN { printf "%-32s %-10.6g %-10.6g %-10.6g %-10.6g\n", l, a, m, b, b - a }'
}

# block <workload>: n pairs of one workload and its verdict.
block() {
	local workload=$1 seed m v pv cv pq1 pmed pq3 cmed
	local -A vals=() wins=()
	echo "pairs: $workload, $n pairs of ${secs}s, parent $commit vs $changename"
	printf '%-5s' seed
	for m in "${shown[@]}"; do printf " %-${width[$m]}s %-${width[$m]}s" "${label[$m]}-parent" "${label[$m]}-change"; done
	echo
	for seed in $(seq 1 "$n"); do
		if [ $((seed % 2)) = 1 ]; then
			run "$tmp/parent" "$workload" "$seed"
			run "$change" "$workload" "$seed"
		else
			run "$change" "$workload" "$seed"
			run "$tmp/parent" "$workload" "$seed"
		fi
		printf '%-5s' "$seed"
		for m in "${shown[@]}"; do
			pv=$(metric "$tmp/parent" "$workload" "$seed" "$m")
			cv=$(metric "$change" "$workload" "$seed" "$m")
			[ -n "$pv" ] && [ -n "$cv" ] || { echo; echo "pairs.sh: no $m in the $workload seed $seed results" >&2; exit 2; }
			printf " %-${width[$m]}s %-${width[$m]}s" "$pv" "$cv"
			vals[$m,parent]+="$pv " vals[$m,change]+="$cv "
			if awk -v a="$cv" -v b="$pv" -v d="${better[$m]}" 'BEGIN { exit !(d == "higher" ? a > b : a < b) }'; then
				wins[$m]=$((${wins[$m]:-0} + 1))
			fi
		done
		echo
	done
	printf 'pairs: this tree is better in'
	for m in "${shown[@]}"; do printf ' %d/%d pairs on %s;' "${wins[$m]:-0}" "$n" "$m"; done
	echo
	printf '%-32s %-10s %-10s %-10s %-10s\n' "" q1 median q3 IQR
	for m in "${shown[@]}"; do
		# The values are space-separated numbers: split them into arguments.
		row "$m parent" ${vals[$m,parent]}
		row "$m change" ${vals[$m,change]}
	done
	read -r pq1 pmed pq3 <<<"$(quartiles ${vals[$METRIC,parent]})"
	read -r _ cmed _ <<<"$(quartiles ${vals[$METRIC,change]})"
	awk -v wl="$workload" -v m="$METRIC" -v d="${better[$METRIC]}" -v w="${wins[$METRIC]:-0}" -v n="$n" \
		-v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cmed="$cmed" 'BEGIN {
		gain = d == "higher" ? cmed - pmed : pmed - cmed; iqr = pq3 - pq1
		printf "pairs: %s: the claim rule on %s (%s is better) %s: %d/%d pairs won (needs 9 of every 10); the medians differ by %.6g in the change'"'"'s favour (must exceed the parent IQR, %.6g); change/parent median = %.4f\n\n",
			wl, m, d, (w * 10 >= n * 9 && gain > iqr) ? "holds" : "does not hold", w, n, gain, iqr, pmed != 0 ? cmed / pmed : 0
	}'
	spreads "$workload"
}

# spreads <workload>: each end-to-end metric the workload reports, with
# each side's median and spread (IQR over median) and change/parent.
spreads() {
	local workload=$1 m side seed v q1 med q3 vals cells
	printf '%-28s %-12s %-8s %-12s %-8s %s\n' "" parent spread change spread change/parent
	for m in "${endtoend[@]}"; do
		cells=()
		for side in "$tmp/parent" "$change"; do
			vals=()
			for seed in $(seq 1 "$n"); do
				v=$(metric "$side" "$workload" "$seed" "$m")
				[ -n "$v" ] && vals+=("$v")
			done
			[ ${#vals[@]} -gt 0 ] || continue 2
			read -r q1 med q3 <<<"$(quartiles "${vals[@]}")"
			cells+=("$med" "$(awk -v a="$q1" -v m="$med" -v b="$q3" 'BEGIN { printf "%.4f", m != 0 ? (b - a) / m : 0 }')")
		done
		awk -v l="$m" -v pm="${cells[0]}" -v ps="${cells[1]}" -v cm="${cells[2]}" -v cs="${cells[3]}" \
			'BEGIN { printf "%-28s %-12.6g %-8s %-12.6g %-8s %.4f\n", l, pm, ps, cm, cs, pm != 0 ? cm / pm : 1 }'
	done
	echo
}

for workload in "${workloads[@]}"; do
	block "$workload"
done
status=0
(cd "$root" && bash benchmark/run.sh -compare "$tmp/parent/.bench_build/out" "$change/.bench_build/out") || status=$?
exit $status
