#!/usr/bin/env bash
# identical.sh <parent-rev> [artifact-dir]: prove this checkout is the same
# program as <parent-rev>. Every deterministic artifact the repo can produce — the
# paper tables, the full Chrome trace and Prometheus text behind them, the
# faults/query result JSON with their digests, the analysis report (fault
# free, and under this tree's bundled chaos plan), the tenant replay, the
# five examples' stdout (and the PNGs nuwrf-visualization exports), one
# small ncgen file with its per-chunk `ncdump -s` listing, and
# all five benchmark workloads' exact metrics, output digests and
# sim.events — is generated from both trees and compared.
# Every difference is printed — a PR that moves the trace on purpose still
# gets its benchmark figures compared — and the exit status is non-zero at
# the end if there was any. With an artifact-dir, this tree's
# headline tables, digests and replay summary are copied there (CI uploads
# them per PR). Run via `make identical PARENT=<rev>`.
set -euo pipefail
rev=${1:?usage: identical.sh <parent-rev> [artifact-dir]}
keep=${2:-}
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/parent"
git -C "$root" archive "$commit" | tar -x -C "$tmp/parent"

artifacts() { # <tree> <out-dir>
	local tree=$1 out=$2 bin=$2.bin
	mkdir -p "$out" "$bin"
	(cd "$tree" && go build -o "$bin/" ./cmd/scidp-bench ./cmd/scidpctl ./cmd/scidpd ./cmd/ncgen ./cmd/ncdump ./examples/...)
	(cd "$tree" &&
		"$bin/scidp-bench" -exp all -quick -explain -trace "$out/all.trace.json" -metrics "$out/all.prom" >"$out/all.txt" &&
		"$bin/scidp-bench" -exp faults -json "$out/faults.json" >"$out/faults.txt" &&
		"$bin/scidp-bench" -exp query -json "$out/query.json" >"$out/query.txt" &&
		"$bin/scidpctl" analyze -json - >"$out/analyze.json" &&
		"$bin/scidpctl" analyze -chaos "$root/cmd/scidpctl/testdata/chaos-plan.json" -json - >"$out/analyze-chaos.json" &&
		"$bin/scidpd" -replay cmd/scidpd/testdata/trace-small.json -json "$out/replay.json" -metrics "$out/replay.prom" >"$out/replay.txt")
	for ex in cmip-compare quickstart spark-extension sql-analysis; do
		"$bin/$ex" >"$out/example-$ex.txt"
	done
	# A relative -out, so the path it prints is the same on both sides.
	(cd "$out" && "$bin/nuwrf-visualization" -out nuwrf-png >example-nuwrf-visualization.txt)
	# The file's bytes and its header with every chunk's place and zone map.
	(cd "$out" && "$bin/ncgen" -out ncgen -timestamps 1 -levels 3 -lat 8 -lon 8 -vars 3 >ncgen.txt &&
		for f in ncgen/*; do "$bin/ncdump" -s "$f"; done >ncdump-s.txt)
	# The query result records how long each run took on this machine.
	sed -i '/"wall_secs"/d' "$out/query.json"
	rm -rf "$bin"
}

echo "identical: parent $commit vs $root"
artifacts "$tmp/parent" "$tmp/out/parent"
artifacts "$root" "$tmp/out/change"
if [ -n "$keep" ]; then
	mkdir -p "$keep"
	cp "$tmp/out/change/"{all.txt,faults.json,query.json,replay.json} "$keep/"
fi
status=0
if diff -rq "$tmp/out/parent" "$tmp/out/change"; then
	echo "identical: CLI artifacts match"
else
	status=1
	# The text artifacts line by line; a trace is named above, not dumped.
	diff -r -x '*.trace.json' "$tmp/out/parent" "$tmp/out/change" || true
	echo "identical: CLI artifacts differ" >&2
fi

for side in parent change; do
	tree=$root
	[ $side = parent ] && tree=$tmp/parent
	for w in scidp-imgonly scidp-anlys epoch-reread terasort tenant-replay; do
		(cd "$tree" && bash benchmark/run.sh --workload $w --seed 1 --seconds 1 -out "$tmp/bench/$side" >/dev/null)
	done
done
# Only the exact figures are judged here: exit 1 means a one-second
# wall-clock row read "worse", which is noise at n=1 (paired runs decide
# those, see the verify skill).
(cd "$root" && bash benchmark/run.sh -compare "$tmp/bench/parent" "$tmp/bench/change") >"$tmp/compare.txt" || [ $? = 1 ]
grep -E '^exact figures differ|run pairs identical' "$tmp/compare.txt"
grep -q 'identical, 0 differ$' "$tmp/compare.txt" || {
	status=1
	echo "identical: benchmark exact figures moved" >&2
}
[ $status = 0 ] && echo "identical: same program"
exit $status
