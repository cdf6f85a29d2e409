#!/usr/bin/env bash
# identical.sh <parent-rev> [artifact-dir]: prove this checkout is the same
# program as <parent-rev>. Every deterministic artifact the repo can produce — the
# paper tables, the full Chrome trace and Prometheus text behind them, the
# faults/query result JSON with their digests, the analysis report (fault
# free, under this tree's bundled chaos plan, and with the cache tier on),
# the mapping CLI's Virtual Mapping Table and metrics (-v), the tenant replay, the
# five examples' stdout (and the PNGs nuwrf-visualization exports), one
# small ncgen file with its per-chunk `ncdump -s` listing, the same
# listing of this tree's committed hdf5lite file, and
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

. "$root/scripts/artifacts.sh"

artifacts() { # <tree> <out-dir>
	local tree=$1 out=$2 bin=$2.bin
	mkdir -p "$bin"
	(cd "$tree" && go build -o "$bin/" $artifact_pkgs)
	(cd "$tree"; run_artifacts "$bin" "$out")
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
	for w in $bench_workloads; do
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
