# artifacts.sh is sourced, not run. It holds the one list of deterministic
# artifacts the repo's CLIs produce: identical.sh compares them between two
# trees, and reach.sh measures what code they execute.
#
# artifact_pkgs are the binaries run_artifacts needs; bench_workloads are
# the benchmark's workloads. run_artifacts <bin-dir> <out-dir> runs every
# artifact command in the current directory (the tree whose testdata the
# commands read), writing into <out-dir>; both paths must be absolute.
# $root names the checkout whose bundled chaos plan every side reads.

artifact_pkgs="./cmd/scidp-bench ./cmd/scidpctl ./cmd/scidpd ./cmd/ncgen ./cmd/ncdump ./examples/..."
bench_workloads="scidp-imgonly scidp-anlys epoch-reread terasort tenant-replay"

run_artifacts() { # <bin-dir> <out-dir>
	local bin=$1 out=$2
	mkdir -p "$out"
	"$bin/scidp-bench" -exp all -quick -explain -trace "$out/all.trace.json" -metrics "$out/all.prom" >"$out/all.txt"
	"$bin/scidp-bench" -exp faults -json "$out/faults.json" >"$out/faults.txt"
	"$bin/scidp-bench" -exp query -json "$out/query.json" >"$out/query.txt"
	"$bin/scidpctl" analyze -json - >"$out/analyze.json"
	"$bin/scidpctl" analyze -chaos "$root/cmd/scidpctl/testdata/chaos-plan.json" -json - >"$out/analyze-chaos.json"
	"$bin/scidpctl" analyze -cache 200000 -json - >"$out/analyze-cache.json"
	"$bin/scidpctl" -v >"$out/scidpctl-v.txt"
	"$bin/scidpd" -replay cmd/scidpd/testdata/trace-small.json -json "$out/replay.json" -metrics "$out/replay.prom" >"$out/replay.txt"
	for ex in cmip-compare quickstart spark-extension sql-analysis; do
		"$bin/$ex" >"$out/example-$ex.txt"
	done
	# A relative -out, so the path it prints is the same on both sides.
	(cd "$out" && "$bin/nuwrf-visualization" -out nuwrf-png >example-nuwrf-visualization.txt)
	# The file's bytes and its header with every chunk's place and zone map.
	(cd "$out" && "$bin/ncgen" -out ncgen -timestamps 1 -levels 3 -lat 8 -lon 8 -vars 3 >ncgen.txt &&
		for f in ncgen/*; do "$bin/ncdump" -s "$f"; done >ncdump-s.txt)
}
