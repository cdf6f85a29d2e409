package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// concatSortGroups is the pre-merge-engine reference path: concatenate
// every run, stable-sort the whole thing, then group. The merge engine
// must reproduce its output byte for byte; it is also the baseline leg of
// BenchmarkShuffleMerge.
func concatSortGroups(runs [][]KV, fn func(key string, vals []any) error) error {
	var pairs []KV
	for _, r := range runs {
		pairs = append(pairs, r...)
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].K < pairs[b].K })
	for i := 0; i < len(pairs); {
		jj := i
		var vals []any
		for jj < len(pairs) && pairs[jj].K == pairs[i].K {
			vals = append(vals, pairs[jj].V)
			jj++
		}
		if err := fn(pairs[i].K, vals); err != nil {
			return err
		}
		i = jj
	}
	return nil
}

// group is one observed (key, values) callback, values flattened to a
// comparable string.
type group struct {
	key  string
	vals string
}

// mergeRuns indexes each run's group boundaries, merges them and recycles
// the indexes, the way a reducer does.
func mergeRuns(runs [][]KV, vals *[]any, fn func(key string, vals []any) error) error {
	cursors := make([]spanCursor, len(runs))
	for i, r := range runs {
		cursors[i] = spanCursor{kvs: r, ends: runSpans(r, spanBufs.Get()), idx: i}
		defer func() { spanBufs.Put(cursors[i].ends[:0]) }()
	}
	var err error
	*vals, err = eachGroupSpans(cursors, *vals, fn)
	return err
}

func collectGroups(t *testing.T, runs [][]KV) []group {
	t.Helper()
	var out []group
	var vals []any
	err := mergeRuns(runs, &vals, func(key string, vs []any) error {
		out = append(out, group{key: key, vals: fmt.Sprint(vs)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func collectBaseline(t *testing.T, runs [][]KV) []group {
	t.Helper()
	var out []group
	err := concatSortGroups(runs, func(key string, vs []any) error {
		out = append(out, group{key: key, vals: fmt.Sprint(vs)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameGroups(t *testing.T, got, want []group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("group count = %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("group %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeDuplicateKeysAcrossRuns(t *testing.T) {
	runs := [][]KV{
		{{K: "a", V: 1}, {K: "c", V: 2}, {K: "c", V: 3}},
		{{K: "a", V: 4}, {K: "b", V: 5}},
		{{K: "c", V: 6}},
	}
	got := collectGroups(t, runs)
	want := []group{
		{"a", "[1 4]"},
		{"b", "[5]"},
		{"c", "[2 3 6]"},
	}
	sameGroups(t, got, want)
}

func TestMergeEmptyRuns(t *testing.T) {
	if got := collectGroups(t, nil); len(got) != 0 {
		t.Fatalf("no runs should yield no groups, got %v", got)
	}
	if got := collectGroups(t, [][]KV{nil, {}, nil}); len(got) != 0 {
		t.Fatalf("empty runs should yield no groups, got %v", got)
	}
	runs := [][]KV{nil, {{K: "x", V: 1}}, {}, {{K: "x", V: 2}, {K: "y", V: 3}}}
	sameGroups(t, collectGroups(t, runs), []group{{"x", "[1 2]"}, {"y", "[3]"}})
}

func TestMergeSingleRunFastPath(t *testing.T) {
	runs := [][]KV{nil, {{K: "a", V: 1}, {K: "a", V: 2}, {K: "b", V: 3}}, nil}
	m := newSpanMerge([]spanCursor{{kvs: runs[0]}, {kvs: runs[1], ends: runSpans(runs[1], nil), idx: 1}, {kvs: runs[2], idx: 2}})
	if m.single == nil {
		t.Fatal("one non-empty run should take the single-run fast path")
	}
	if m.heap != nil {
		t.Fatal("single-run merge should not build a heap")
	}
	sameGroups(t, collectGroups(t, runs), []group{{"a", "[1 2]"}, {"b", "[3]"}})
}

func TestMergeStableIntraKeyOrder(t *testing.T) {
	// Equal keys must come out in (run index, position-within-run) order:
	// run 0's values before run 1's, and emission order within each run.
	runs := [][]KV{
		{{K: "k", V: "r0p0"}, {K: "k", V: "r0p1"}},
		{{K: "k", V: "r1p0"}, {K: "k", V: "r1p1"}},
		{{K: "k", V: "r2p0"}},
	}
	sameGroups(t, collectGroups(t, runs), []group{{"k", "[r0p0 r0p1 r1p0 r1p1 r2p0]"}})
}

func TestMergeMatchesConcatSortRandomized(t *testing.T) {
	// Fuzz-style check: random emission-order buckets, grouped through the
	// old concat+stable-sort path versus per-run sort + k-way merge. The
	// two must agree exactly, including intra-key value order, on every
	// key shape the cached-prefix comparison could get wrong.
	rng := rand.New(rand.NewSource(42))
	for _, shape := range keyShapes {
		for trial := 0; trial < 200; trial++ {
			numRuns := rng.Intn(6)
			raw := make([][]KV, numRuns)
			serial := 0
			for r := range raw {
				n := rng.Intn(20)
				for i := 0; i < n; i++ {
					raw[r] = append(raw[r], KV{K: shape.keys[rng.Intn(len(shape.keys))], V: serial})
					serial++
				}
			}
			want := collectBaseline(t, raw)
			sorted := make([][]KV, numRuns)
			for r := range raw {
				sorted[r] = append([]KV(nil), raw[r]...)
				sortRun(sorted[r])
			}
			got := collectGroups(t, sorted)
			sameGroups(t, got, want)
		}
	}
}

func TestEachGroupErrorStopsIteration(t *testing.T) {
	// One run takes the single-cursor path, two the heap.
	for _, runs := range [][][]KV{
		{{{K: "a", V: 1}, {K: "b", V: 2}, {K: "c", V: 3}}},
		{{{K: "a", V: 1}, {K: "c", V: 3}}, {{K: "b", V: 2}}},
	} {
		calls := 0
		var vals []any
		err := mergeRuns(runs, &vals, func(key string, vs []any) error {
			calls++
			if key == "b" {
				return fmt.Errorf("boom at %s", key)
			}
			return nil
		})
		if err == nil || err.Error() != "boom at b" {
			t.Fatalf("%d runs: err = %v", len(runs), err)
		}
		if calls != 2 {
			t.Fatalf("%d runs: calls = %d, want 2", len(runs), calls)
		}
	}
}

func TestEachGroupReusesValueBuffer(t *testing.T) {
	// The vals slice handed to fn shares one backing buffer across calls —
	// the iterator contract that kills the per-key []any allocation.
	runs := [][]KV{{{K: "a", V: 1}, {K: "a", V: 2}, {K: "b", V: 3}}}
	var vals []any
	var first, second []any
	if err := mergeRuns(runs, &vals, func(key string, vs []any) error {
		if key == "a" {
			first = vs
		} else {
			second = vs
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || len(second) != 1 {
		t.Fatalf("lens = %d, %d", len(first), len(second))
	}
	if &first[0] != &second[0] {
		t.Fatal("value buffer was not reused across groups")
	}
}

func TestRunIsSorted(t *testing.T) {
	sorted := []KV{{K: "a", V: 1}, {K: "a", V: 2}, {K: "b", V: 3}}
	if !runIsSorted(sorted) {
		t.Fatal("sorted run misreported")
	}
	unsorted := []KV{{K: "b", V: 1}, {K: "a", V: 2}, {K: "a", V: 3}}
	if runIsSorted(unsorted) {
		t.Fatal("unsorted run misreported")
	}
	sortRun(unsorted)
	if !runIsSorted(unsorted) {
		t.Fatal("sortRun left run unsorted")
	}
	// Stability: the two "a" values keep their relative order.
	if unsorted[0].V != 2 || unsorted[1].V != 3 {
		t.Fatalf("sortRun not stable: %v", unsorted)
	}
}

func TestKVBufPoolRoundTrip(t *testing.T) {
	putCleared(&kvBufs, append(kvBufs.Get(), KV{K: "k", V: "v"}))
	got := kvBufs.Get()
	if len(got) != 0 {
		t.Fatalf("recycled buffer not empty: %v", got)
	}
	// References must have been dropped on Put.
	if cap(got) > 0 {
		full := got[:1]
		if full[0].K != "" || full[0].V != nil {
			t.Fatalf("recycled buffer retains data: %+v", full[0])
		}
	}
	putCleared(&kvBufs, got)
}
