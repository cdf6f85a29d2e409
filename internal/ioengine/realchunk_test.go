package ioengine_test

import (
	"sort"
	"sync"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/workloads"
)

// The benchmark's NU-WRF grid (benchmark/workloads.go fullSizes): 32
// timestamps of 23 variables, each 10 levels of 40x40 float32 chunks
// deflated at level 1, generated with seed 1.
var nuwrf = workloads.NUWRFSpec{Timestamps: 32, Levels: 10, Lat: 40, Lon: 40, Seed: 1}

var (
	genOnce  sync.Once
	genBlobs [][]byte // in path order
	genErr   error
)

// generated returns the dataset's files, built once per test binary.
func generated(tb testing.TB) [][]byte {
	tb.Helper()
	genOnce.Do(func() {
		var blobs map[string][]byte
		if blobs, _, genErr = workloads.GenerateBlobs(nuwrf); genErr != nil {
			return
		}
		paths := make([]string, 0, len(blobs))
		for p := range blobs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			genBlobs = append(genBlobs, blobs[p])
		}
	})
	if genErr != nil {
		tb.Fatal(genErr)
	}
	return genBlobs
}

// openVar opens blob and returns the chunk index of its variable name
// over the blob.
func openVar(tb testing.TB, blob []byte, name string) ioengine.ChunkIndex {
	tb.Helper()
	f, err := netcdf.Open(netcdf.BytesReader(blob))
	if err != nil {
		tb.Fatal(err)
	}
	v, err := f.Var(name)
	if err != nil {
		tb.Fatal(err)
	}
	return f.ChunkIndex(v)
}

// storedChunk is one chunk's stored bytes and declared raw size.
type storedChunk struct {
	stored  []byte
	rawSize int64
}

func stored(blob []byte, c ioengine.Chunk) storedChunk {
	return storedChunk{blob[c.Offset : c.Offset+c.StoredSize], c.RawSize}
}

// qrChunks are the first file's QR chunks: the ones every scientific
// workload's mappers inflate.
func qrChunks(tb testing.TB) []storedChunk {
	tb.Helper()
	blob := generated(tb)[0]
	var out []storedChunk
	for _, c := range openVar(tb, blob, "QR").Chunks {
		out = append(out, stored(blob, c))
	}
	return out
}

var codecSink []byte

// BenchmarkChunkInflate inflates the first file's QR chunks in turn, one
// 6400-byte chunk per op: with Inflate, and with the compress/flate
// reader it replaced (the stdlib arm), so one run prints both.
func BenchmarkChunkInflate(b *testing.B) {
	chunks := qrChunks(b)
	for _, arm := range []struct {
		name    string
		inflate func([]byte, int64) ([]byte, error)
	}{
		{"qr/ioengine", ioengine.Inflate},
		{"qr/stdlib", ioengine.ReferenceInflate},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(chunks[0].rawSize)
			for i := 0; i < b.N; i++ {
				c := chunks[i%len(chunks)]
				out, err := arm.inflate(c.stored, c.rawSize)
				if err != nil {
					b.Fatal(err)
				}
				codecSink = out
			}
		})
	}
}
