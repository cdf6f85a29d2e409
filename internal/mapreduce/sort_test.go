package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// stableSortRun is the sort sortRun replaced, kept as its oracle: the
// library's stable sort moving whole pairs under strings.Compare.
func stableSortRun(kvs []KV) {
	slices.SortStableFunc(kvs, func(a, b KV) int { return strings.Compare(a.K, b.K) })
}

// keyShapes are the key populations the sort and merge oracles draw from.
// Each is one way an eight-byte zero-padded prefix could disagree with the
// full comparison if the tie-breaks were wrong.
var keyShapes = []struct {
	name string
	keys []string
}{
	{"short", []string{"", "a", "aa", "ab", "b", "c", "ca", "d", "e", "zz"}},
	{"zero-padding", []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00", "a\x00\x01", "a\x01"}},
	{"eight-bytes", []string{"abcdefg", "abcdefg\x00", "abcdefgh", "abcdefgh\x00", "abcdefgh\x00\x00", "abcdefgi", "abcdefghi"}},
	{"prefix-tie", []string{"plot_18_", "plot_18_00_00.nc/QR#3", "plot_18_00_00.nc/QR#12", "plot_18_00_00.nc/QR#1",
		"plot_18_00_00.nc/QV#3", "plot_18_01_00.nc/QR#3", "plot_18_00", "plot_17_00_00.nc/QR#3"}},
	{"non-utf8", []string{"\xff", "\xff\xfe", "\x80abc", "\xc3\x28", "\xff\xff\xff\xff\xff\xff\xff\xff",
		"\xff\xff\xff\xff\xff\xff\xff\xff\x01", "\xff\xff\xff\xff\xff\xff\xff", "\x7f\xff"}},
	{"random10", randomKeys(rand.New(rand.NewSource(3)), 64, 10)},
	// Keys that end on either side of the radix sort's window refills at
	// 7 and 14 bytes and of the 8- and 16-byte boundaries, and bytes at or
	// above 0x80 (digits are unsigned).
	{"window-ends", []string{"abcdef", "abcdefg", "abcdefg\x00", "abcdefg\x80", "abcdefgh", "abcdefgh\x00",
		"abcdefghijklm", "abcdefghijklmn", "abcdefghijklmn\x00", "abcdefghijklmn\xff", "abcdefghijklmo",
		"abcdefghijklmno", "abcdefghijklmnop", "abcdefghijklmnop\x00", "abcdefghijklmnop\xff", "abcdefghijklmnoq",
		"abcdefg\xffijklmn", "\x80bcdefghijklmn", "\xffbcdefg"}},
	{"periodic-text", periodicTextKeys(256)},
}

// periodicTextKeys returns the ten-byte keys of n 100-byte records cut
// from a repeating word stream, as a tenant sort job emits them: a few
// hundred distinct keys that share long prefixes.
func periodicTextKeys(n int) []string {
	words := [...]string{"the", "rain", "falls", "on", "grid", "cells", "while", "model", "steps"}
	var text strings.Builder
	for i := 0; text.Len() < 100*n; i++ {
		word, sep := words[i%len(words)], " "
		if i%37 == 0 {
			word = "storm"
		}
		if i%12 == 11 {
			sep = "\n"
		}
		text.WriteString(word + sep)
	}
	s := text.String()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = s[100*i : 100*i+10]
	}
	return keys
}

// randomKeys returns n keys of keyLen random bytes, TeraSort's shape.
func randomKeys(rng *rand.Rand, n, keyLen int) []string {
	keys := make([]string, n)
	buf := make([]byte, keyLen)
	for i := range keys {
		rng.Read(buf)
		keys[i] = string(buf)
	}
	return keys
}

// drawRun makes a run of n pairs with keys drawn from pool, so every key
// repeats once n passes len(pool); values number the pairs in emission
// order, which makes a stability slip visible.
func drawRun(rng *rand.Rand, pool []string, n int) []KV {
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{K: pool[rng.Intn(len(pool))], V: i}
	}
	return kvs
}

// checkSortRun holds sortRun to the oracle on one run, pair for pair.
func checkSortRun(t *testing.T, kvs []KV) {
	t.Helper()
	want := slices.Clone(kvs)
	stableSortRun(want)
	got := slices.Clone(kvs)
	sortRun(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("len %d: pair %d = {%q %v}, want {%q %v}", len(kvs), i, got[i].K, got[i].V, want[i].K, want[i].V)
		}
	}
}

func TestSortRunMatchesStableSort(t *testing.T) {
	for _, shape := range keyShapes {
		t.Run(shape.name, func(t *testing.T) {
			// Parallel: buckets sort concurrently on pool workers and
			// share sortScratches, which `make race` watches here.
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(shape.name))))
			// radixLeaf and one past it: a run's first bucket finishes by
			// insertion or is scattered. 1 310 and 2 621: a TeraSort and a
			// tenant sort job's bucket.
			for _, n := range []int{0, 1, 2, 3, 7, 8, 9, radixLeaf, radixLeaf + 1, 100, 1310, 2621} {
				for trial := 0; trial < 20; trial++ {
					kvs := drawRun(rng, shape.keys, n)
					checkSortRun(t, kvs)
					stableSortRun(kvs)
					checkSortRun(t, kvs) // sorted
					slices.Reverse(kvs)
					checkSortRun(t, kvs) // reversed, equal keys included
				}
				checkSortRun(t, drawRun(rng, shape.keys[:1], n)) // all equal
			}
		})
	}
	t.Run("1e5", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(5))
		checkSortRun(t, drawRun(rng, randomKeys(rng, 100_000, 10), 100_000))
		checkSortRun(t, drawRun(rng, keyShapes[3].keys, 100_000))
	})
}

// FuzzSortRun decodes the input as a run — a length byte below 0x80 takes
// that many (mod 24) bytes as the next key, so keys reach past two window
// refills, and one at or above it repeats an earlier key — and holds
// sortRun to the oracle on it.
func FuzzSortRun(f *testing.F) {
	for _, shape := range keyShapes {
		var seed []byte
		for i, k := range shape.keys {
			if len(k) < 24 {
				seed = append(append(seed, byte(len(k))), k...)
			}
			seed = append(seed, 0x80+byte(i/2))
		}
		f.Add(seed)
		// Repeats past radixLeaf pairs reach the scatter, not only an
		// insertion leaf.
		for i := 0; i <= radixLeaf; i++ {
			seed = append(seed, 0x80+byte(i*7%128))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var kvs []KV
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			if b >= 0x80 {
				if len(kvs) > 0 {
					kvs = append(kvs, KV{K: kvs[int(b-0x80)%len(kvs)].K, V: len(kvs)})
				}
				continue
			}
			n := min(int(b)%24, len(data))
			kvs = append(kvs, KV{K: string(data[:n]), V: len(kvs)})
			data = data[n:]
		}
		checkSortRun(t, kvs)
	})
}

// sortBenchRun builds one of BenchmarkSortRun's inputs: TeraSort's random
// ten-byte keys, a tenant sort job's ten-byte windows of periodic text, the
// scidp pipelines' keys (one long shared prefix, so every prefix
// comparison ties), a combiner-less word count (few keys, long equal
// stretches) or a run that needs no sorting.
func sortBenchRun(shape string, n int) []KV {
	rng := rand.New(rand.NewSource(9))
	random := randomKeys(rng, n, 10)
	text := periodicTextKeys(n)
	kvs := make([]KV, n)
	for i := range kvs {
		switch shape {
		case "random10":
			kvs[i].K = random[i]
		case "text10":
			kvs[i].K = text[i]
		case "sharedprefix":
			kvs[i].K = fmt.Sprintf("plot_18_00_00.nc/QR#%d", rng.Intn(2*n))
		case "fewkeys":
			kvs[i].K = fmt.Sprintf("word-%02d", rng.Intn(16))
		case "sorted":
			kvs[i].K = fmt.Sprintf("key-%07d", i)
		}
		kvs[i].V = i
	}
	return kvs
}

// BenchmarkSortRun times run generation alone: one copy of the unsorted
// run (the same on both sides of a comparison) and its sort. 40, 1 310,
// 2 621 and 20 000 pairs are a scidp bucket, a TeraSort bucket, a tenant
// sort job's bucket and a large split's.
func BenchmarkSortRun(b *testing.B) {
	for _, shape := range []string{"random10", "text10", "sharedprefix", "fewkeys", "sorted"} {
		for _, n := range []int{40, 1310, 2621, 20000} {
			b.Run(fmt.Sprintf("%s/%d", shape, n), func(b *testing.B) {
				run := sortBenchRun(shape, n)
				work := make([]KV, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, run)
					sortRun(work)
				}
			})
		}
	}
}
