//go:build !race

package ioengine_test

import (
	"bytes"
	"runtime"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/workloads"
)

// Built without -race: the race detector's shadow allocations blur the
// steady state the allocation pins measure, and the differential test is
// one goroutine's work that it would only slow tenfold.

// TestInflateAllocs: a warm inflate of a real chunk allocates once, the
// buffer it returns, with two collections between inflates: the decoder
// stays on its free list. Huffman tables built per block, a window, a
// reader or a decompressor per chunk would each show here.
func TestInflateAllocs(t *testing.T) {
	c := qrChunks(t)[0]
	got := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		if _, err := ioengine.Inflate(c.stored, c.rawSize); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Fatalf("Inflate of a QR chunk allocates %v times, want 1 (its output)", got)
	}
}

// TestChunkScanAllocs: a warm scan of one file's QR variable over a plain
// source allocates no more than each chunk's output and a constant, so
// neither the inflate's state nor a per-read decoder can come back
// unseen.
func TestChunkScanAllocs(t *testing.T) {
	x := openVar(t, generated(t)[0], "QR")
	if _, ok := x.Src.(ioengine.Bytes); !ok {
		t.Fatalf("source is %T, want the plain ioengine.Bytes", x.Src)
	}
	got := testing.AllocsPerRun(20, func() {
		for i := range x.Chunks {
			pl, err := x.Scan(i)
			if err == nil {
				_, err = pl.Bytes()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := float64(len(x.Chunks)) + 2; got > limit {
		t.Fatalf("scanning %d chunks allocates %v times, want at most %v", len(x.Chunks), got, limit)
	}
}

// TestInflateMatchesReferenceOnGeneratedChunks: every chunk of every
// variable of every generated file inflates to the reference decoder's
// bytes.
func TestInflateMatchesReferenceOnGeneratedChunks(t *testing.T) {
	n := 0
	for _, blob := range generated(t) {
		f, err := netcdf.Open(netcdf.BytesReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range f.Vars() {
			for i, c := range v.Chunks {
				sc := stored(blob, c)
				got, err := ioengine.Inflate(sc.stored, sc.rawSize)
				want, werr := ioengine.ReferenceInflate(sc.stored, sc.rawSize)
				if err != nil || werr != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s chunk %d: Inflate err %v, reference err %v, bytes equal %v",
						v.Name, i, err, werr, bytes.Equal(got, want))
				}
				n++
			}
		}
	}
	if want := nuwrf.Timestamps * workloads.NUWRFVars * nuwrf.Levels; n != want {
		t.Fatalf("checked %d chunks, want %d", n, want)
	}
}
