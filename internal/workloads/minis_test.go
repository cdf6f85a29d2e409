package workloads

import (
	"bytes"
	"testing"
)

// synthTextOracle is the word-by-word generator synthText replaced, kept
// as the definition of its bytes.
func synthTextOracle(n int64, seed int, marker string) []byte {
	var buf bytes.Buffer
	buf.Grow(int(n))
	words := []string{"the", "rain", "falls", "on", "grid", "cells", "while", "model", "steps"}
	i := seed
	for int64(buf.Len()) < n {
		if i%37 == 0 {
			buf.WriteString(marker)
		} else {
			buf.WriteString(words[i%len(words)])
		}
		if i%12 == 11 {
			buf.WriteByte('\n')
		} else {
			buf.WriteByte(' ')
		}
		i++
	}
	return buf.Bytes()[:n]
}

// synthPeriodBytes is the length of synthText's first synthPeriod words,
// separators included.
func synthPeriodBytes(t *testing.T, seed int, marker string) int64 {
	words := 0
	for i, b := range synthTextOracle(16*synthPeriod, seed, marker) {
		if b == ' ' || b == '\n' {
			if words++; words == synthPeriod {
				return int64(i + 1)
			}
		}
	}
	t.Fatal("no full period in the sample")
	return 0
}

func TestSynthTextMatchesWordByWordGenerator(t *testing.T) {
	for _, marker := range []string{"storm", "x", "hurricane"} {
		for _, seed := range []int{0, 131, 36 * 131, 1331} {
			period := synthPeriodBytes(t, seed, marker)
			for _, n := range []int64{0, 1, period - 1, period, period + 1, 1 << 20} {
				got, want := synthText(n, seed, marker), synthTextOracle(n, seed, marker)
				if !bytes.Equal(got, want) {
					t.Fatalf("marker %q seed %d n %d: synthText differs from the word-by-word generator", marker, seed, n)
				}
			}
		}
	}
}

func TestCountWordMatchesBytesCount(t *testing.T) {
	text := synthText(1<<16, 131, "storm")
	cases := []struct {
		data []byte
		word string
	}{
		{text, "storm"}, {text, "s"}, {text, ""}, {text, "steps\nthe"}, {text, "absent"},
		{text[:4], "storm"}, {text[:5], "storm"}, {nil, "storm"}, {nil, ""},
		{[]byte("aaaaaaa"), "aa"}, {[]byte("abababab"), "aba"}, {[]byte("xxstorm"), "storm"},
		{[]byte("stormstorm"), "storm"}, {[]byte("stor"), "storm"}, {[]byte("h\xc3\xa9llo"), ""},
	}
	for _, c := range cases {
		if got, want := CountWord(c.data, c.word), bytes.Count(c.data, []byte(c.word)); got != want {
			t.Errorf("CountWord(%d bytes %.12q, %q) = %d, bytes.Count says %d", len(c.data), c.data, c.word, got, want)
		}
	}
}

// FuzzCountWord holds CountWord to bytes.Count for any data and word.
func FuzzCountWord(f *testing.F) {
	f.Add([]byte("the rain falls on storm cells"), "storm")
	f.Add([]byte("aaaaaaa"), "aa")
	f.Add([]byte("abababab"), "aba")
	f.Add([]byte("anything"), "")
	f.Add([]byte("anything"), "n")
	f.Add([]byte{}, "storm")
	f.Fuzz(func(t *testing.T, data []byte, word string) {
		if got, want := CountWord(data, word), bytes.Count(data, []byte(word)); got != want {
			t.Fatalf("CountWord(%q, %q) = %d, bytes.Count says %d", data, word, got, want)
		}
	})
}

// BenchmarkCountWord scans one tenant-sized input file for the marker with
// CountWord and with the bytes.Count it replaced.
func BenchmarkCountWord(b *testing.B) {
	data := synthText(1<<20, 131, "storm")
	for _, arm := range []struct {
		name  string
		count func() int
	}{
		{"CountWord", func() int { return CountWord(data, "storm") }},
		{"bytes.Count", func() int { return bytes.Count(data, []byte("storm")) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			want := bytes.Count(data, []byte("storm"))
			for i := 0; i < b.N; i++ {
				if got := arm.count(); got != want {
					b.Fatalf("counted %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkSynthText generates one tenant input file.
func BenchmarkSynthText(b *testing.B) {
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synthText(1<<20, 131, "storm")
	}
}
