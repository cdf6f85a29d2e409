GO ?= go

.PHONY: check fmt vet build test race benchmark-test fuzz-smoke identical pairs aa bench allocprof bench-paper loc reach

# check is the CI gate: formatting, vet, build, full tests, the race
# detector across the whole module (the data-plane compute pool makes
# real goroutine concurrency reachable from every package), and the
# benchmark module's own tests. Every contract is gated by a Go test;
# wall-clock numbers are judged by paired benchmark runs, never here.
check: fmt vet build test race benchmark-test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The kernel/process hand-off and the idle-process list are the only real
# cross-goroutine edges on the control plane; one pass over them is thin.
# A stage resumes its workers inside its one start event, so the stage
# runner's hand-offs get the same repetition (TestIdleSlotsCostNothing is
# an allocation pin, built only without -race). Every data-plane closure
# that reuses a buffer crosses the free list's lock, so it is repeated too.
# The chunk cache's one mutex is its only guard against real goroutines,
# and its hit and miss counts live only in the Bound's counters, so the
# goroutine hammer and the counter-determinism runs are repeated as well.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/sim ./internal/freelist
	$(GO) test -race -count=10 -run 'TestCharacterisation|TestStageSettlesUnderRandomFaults|TestWorkerPanicNamesItsSlot' ./internal/mapreduce
	$(GO) test -race -count=10 -run 'TestCacheConcurrentAccess|TestCountersDeterministic' ./internal/ioengine

# benchmark-test runs the benchmark's tests: it is a module of its own,
# so `go test ./...` at the root never reaches its workload output checks.
benchmark-test:
	cd benchmark && $(GO) test ./...

# fuzz-smoke gives every Fuzz* target in the module twenty seconds of new
# inputs against its oracle (rsql's Query against the legacy executor kept
# in legacy_test.go, mapreduce's sortRun against the stable sort it
# replaced). Targets are discovered, not listed here: `go test -list` names
# them per package and -fuzz takes one target of one package at a time.
# Not part of check, which runs the same inputs every time.
fuzz-smoke:
	@set -e; $(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
		while read -r pkg target; do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 20s "$$pkg"; \
		done

# identical proves this tree is the same program as PARENT (a git rev):
# paper tables, traces, metric dumps, result digests, the tenant replay and
# every benchmark workload's exact figures must match byte for byte. A PR
# that moves one of them on purpose says which and why. ARTIFACTS=<dir>
# keeps this tree's headline outputs (CI's paper-quick artifact).
identical:
	@test -n "$(PARENT)" || { echo "usage: make identical PARENT=<rev> [ARTIFACTS=<dir>]"; exit 2; }
	bash scripts/identical.sh $(PARENT) $(ARTIFACTS)

# pairs judges a claim: N alternating paired runs of each benchmark
# workload in WORKLOAD (one or several, space-separated), PARENT (a git
# rev) against this tree. Per workload: each pair's iter_wall_s_p50 /
# iter_cpu_s_p50 and METRIC (the claimed end-to-end metric), how many pairs
# this tree wins, each side's quartiles and whether the claim rule (9 of 10
# pairs, medians apart by more than the parent's IQR) holds on METRIC;
# then run.sh -compare over all.
N ?= 10
SECONDS ?= 10
METRIC ?= iter_wall_s_p50
pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo 'usage: make pairs PARENT=<rev> WORKLOAD="<w>..." [N=10] [SECONDS=10] [METRIC=iter_wall_s_p50]'; exit 2; }
	bash scripts/pairs.sh $(PARENT) "$(WORKLOAD)" $(N) $(SECONDS) $(METRIC)

# aa is pairs with REV (a git rev, HEAD by default) on both sides, each
# archived, so it runs in a dirty tree: every metric's ratio and spread
# between two copies of one program, the noise floor a claim must clear.
REV ?= HEAD
aa:
	@test -n "$(WORKLOAD)" || { echo 'usage: make aa WORKLOAD="<w>..." [REV=HEAD] [N=10] [SECONDS=10] [METRIC=iter_wall_s_p50]'; exit 2; }
	bash scripts/pairs.sh $(REV) "$(WORKLOAD)" $(N) $(SECONDS) $(METRIC) $(REV)

# bench is the benchmark smoke test: every Benchmark* runs once with
# allocation stats; a failing benchmark (b.Fatal/b.Error) fails the target.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# allocprof sizes an allocation change from inside one layer: it runs the
# benchmarks BENCH matches in package PKG with every allocation sampled
# (-memprofilerate=1) and prints the TOP sites by INDEX: alloc_objects by
# default, alloc_space for bytes. The profile covers the whole test binary,
# setup outside the timer included, and misses the tiny allocator's
# objects: size a win by allocs/op or B/op, and use the sites only to see
# where the allocations are.
TOP ?= 25
INDEX ?= alloc_objects
allocprof:
	@test -n "$(PKG)" -a -n "$(BENCH)" || { echo 'usage: make allocprof PKG=./internal/<pkg> BENCH=<regexp> [TOP=25] [INDEX=alloc_objects|alloc_space]'; exit 2; }
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
		$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -memprofilerate=1 \
			-memprofile "$$tmp/mem.pprof" -o "$$tmp/pkg.test" $(PKG) && \
		$(GO) tool pprof -sample_index=$(INDEX) -top -nodecount=$(TOP) "$$tmp/pkg.test" "$$tmp/mem.pprof"

# loc prints the line count ROADMAP aim 2 tracks: non-test Go outside
# benchmark/, per package and in total.
loc:
	@bash scripts/loc.sh

# reach prints what no run reaches: the functions and, per file, the
# statements that identical's artifact list and every benchmark workload
# (one second, untraced and traced) leave unexecuted under coverage-built
# binaries. It reports only, like loc; a cut starts from its list.
reach:
	@bash scripts/reach.sh

# bench-paper regenerates the paper's tables/figures via the harness.
bench-paper:
	$(GO) run ./cmd/scidp-bench -quick
