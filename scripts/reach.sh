#!/usr/bin/env bash
# reach.sh: what no run reaches. Builds the commands, the examples and the
# benchmark with coverage over scidp/..., runs identical.sh's artifact list
# (scripts/artifacts.sh) and every benchmark workload for one second,
# untraced and traced, then prints the functions no run entered and, per
# file, the statements no run executed. Like loc.sh it only reports: it
# judges nothing, and what it builds and writes lives in a temp dir.
# Run via `make reach`.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
. scripts/artifacts.sh
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin cov=$tmp/cov
mkdir -p "$bin" "$cov"

go build -cover -coverpkg=scidp/... -o "$bin/" $artifact_pkgs
go build -C benchmark -cover -coverpkg=scidp/... -o "$bin/scidp-benchmark" .
export GOCOVERDIR=$cov
run_artifacts "$bin" "$tmp/out"
for w in $bench_workloads; do
	for trace in 0 1; do
		"$bin/scidp-benchmark" -workload "$w" -seed 1 -seconds 1 -trace "$trace" -out "$tmp/bench" >/dev/null
	done
done
unset GOCOVERDIR

# One profile; the benchmark's own packages are the instrument, not the
# program, and stay out of it.
go tool covdata textfmt -i="$cov" -o "$tmp/all.cov"
grep -v '^scidp/benchmark/' "$tmp/all.cov" >"$tmp/reach.cov"

echo "functions no run reaches:"
go tool cover -func="$tmp/reach.cov" | awk '$NF == "0.0%" { printf "  %s %s\n", $1, $2 }'
echo
echo "statements no run reaches, per file (unreached / statements):"
# A block appears once per binary that links its package: it is reached
# if any run of any binary counted it.
awk 'NR > 1 { n[$1] = $2; c[$1] += $3 }
     END {
	for (b in n) {
		f = b; sub(/:.*/, "", f)
		total[f] += n[b]; all += n[b]
		if (c[b] == 0) { miss[f] += n[b]; missed += n[b] }
	}
	for (f in miss) printf "%7d / %-6d %s\n", miss[f], total[f], f | "sort -k1,1nr -k4,4"
	close("sort -k1,1nr -k4,4")
	printf "%7d / %-6d total\n", missed, all
     }' "$tmp/reach.cov"
