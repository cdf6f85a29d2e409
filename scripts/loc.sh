#!/usr/bin/env bash
# loc.sh: the line count ROADMAP aim 2 tracks — non-test Go outside
# benchmark/ (its own module, the measuring instrument), in total and per
# package. Counted with wc -l, so comments and blank lines are in it, as
# in every figure quoted in ROADMAP.md and CHANGES.md. Then the four
# counters the re-anchors track: keptForTests entries (unused_test.go),
# func Fuzz targets, panic( call sites in non-test Go outside benchmark/,
# and the knobs a caller can turn (TestKnobCount in unused_test.go, ~3 s).
# Last, the line counts of the three documents that describe the tree
# (ROADMAP aim 2 bounds them as it bounds the code).
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" { n = split($2, p, "/"); dir = substr($2, 3, length($2) - length(p[n]) - 3)
	                     if (dir == "") dir = "."; lines[dir] += $1; total += $1 }
	     END { for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"; close("sort -k2")
	           printf "%7d  total (non-test Go outside benchmark/)\n", total }'

printf "%7d  keptForTests entries\n" "$(awk '/^var keptForTests/ { on = 1; next } on && /^}/ { exit } on && /^\t"/ { n++ } END { print n + 0 }' unused_test.go)"
printf "%7d  func Fuzz targets\n" "$(grep -rh --include='*.go' --exclude-dir='.?*' '^func Fuzz' . | wc -l)"
printf "%7d  non-test panic( sites\n" "$(grep -r --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir='.?*' 'panic(' . | wc -l)"
printf "%7d  knobs: exported fields of configuration structs, exported Set*/Disable* methods\n" "$(go test -count=1 -run '^TestKnobCount$' -v . | awk '/: knobs [0-9]+$/ { print $NF }')"
for doc in EXPERIMENTS.md DESIGN.md .claude/skills/verify/SKILL.md; do
	printf "%7d  lines in %s\n" "$(wc -l <"$doc")" "$doc"
done
