package ioengine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"scidp/internal/sim"
)

var testDialect = Dialect{Name: "test", Magic: "TST1"}

// encodeTest writes a one-array file through the container: a 5 × 4 int32
// array in chunks of 2 × 4 (the last one partial), deflated at level.
func encodeTest(tb testing.TB, level int) (blob []byte, chunks []Chunk, raws [][]byte) {
	tb.Helper()
	e := &Encoder{}
	e.Array()
	for r := 0; r < 5; r += 2 {
		vals := make([]int32, min(2, 5-r)*4)
		for i := range vals {
			vals[i] = int32(100*r + i)
		}
		raw := PutInt32s(vals)
		c, err := e.Pack(Int32, level, raw)
		if err != nil {
			tb.Fatal(err)
		}
		chunks, raws = append(chunks, c), append(raws, raw)
	}
	blob, err := testDialect.Encode(e, func() error {
		e.Str("A")
		e.U8(uint8(level))
		e.U32(uint32(len(chunks)))
		for i := range chunks {
			e.Chunk(&chunks[i])
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return blob, chunks, raws
}

// TestContainerRoundTrip drives every piece a dialect uses, once: Encode's
// two passes place the payloads where the header says, the Decoder reads
// the header back, CheckArray accepts it, the trailer attaches, and the
// chunk index reads each payload through both paths.
func TestContainerRoundTrip(t *testing.T) {
	for _, level := range []int{0, 6} {
		blob, want, raws := encodeTest(t, level)
		src := Bytes(blob)
		if !testDialect.Detect(src) || (Dialect{Name: "other", Magic: "OTHR"}).Detect(src) {
			t.Fatal("Detect")
		}
		d, err := testDialect.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		name, deflate := d.Str(), d.U8()
		got := make([]Chunk, d.Count(24))
		for i := range got {
			got[i] = d.Chunk()
		}
		d.CheckArray(Layout{Name: name, Type: Int32, Grid: Grid{Shape: []int{5, 4}, Chunk: []int{2, 4}}, Deflated: deflate > 0}, got)
		d.ZoneMaps()
		d.ChunkStats(name, got)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		if name != "A" || int(deflate) != level || len(got) != 3 || d.Header.Bytes != want[0].Offset {
			t.Fatalf("decoded %q level %d, %d chunks, header %d; first payload at %d", name, deflate, len(got), d.Header.Bytes, want[0].Offset)
		}
		x := ChunkIndex{Src: src, Pkg: "test", Name: name, Type: Int32, Deflated: level > 0, Chunks: got}
		for i, c := range got {
			if want[i].Stats = c.Stats; c != want[i] || c.Stats.Count != int64(len(raws[i])/4) || c.Stats.Min != float64(200*i) {
				t.Fatalf("chunk %d: %+v, want %+v", i, c, want[i])
			}
			for _, read := range []func(int) (Payload, error){x.Read, x.Scan} {
				if raw, err := decoded(read(i)); err != nil || !bytes.Equal(raw, raws[i]) {
					t.Fatalf("chunk %d read %x, %v", i, raw, err)
				}
			}
		}
		if _, err := x.Read(3); err == nil || !strings.Contains(err.Error(), "test: A: chunk 3 out of range [0,3)") {
			t.Fatalf("Read(3): %v", err)
		}
	}
}

// TestReadHeader: ReadHeader is Open's two range-reads and decodes
// nothing. Read again from the same file it gives the Header Open
// recorded; a changed header byte changes the CRC, a shorter header the
// length; a file that is no longer one fails as Open would.
func TestReadHeader(t *testing.T) {
	blob, _, _ := encodeTest(t, 6)
	d, err := testDialect.Open(Bytes(blob))
	if err != nil {
		t.Fatal(err)
	}
	h := d.Header
	if h.Dialect != testDialect || h.Bytes != 12+int64(binary.LittleEndian.Uint64(blob[4:])) || h.CRC != crc32.ChecksumIEEE(blob[12:h.Bytes]) {
		t.Fatalf("header %+v", h)
	}
	st := &Stats{R: Bytes(blob)}
	if _, again, err := testDialect.ReadHeader(st); err != nil || again != h || st.Calls != 2 || st.BytesRead != h.Bytes {
		t.Fatalf("header read again: %+v, %v after %d reads of %d bytes; want %+v", again, err, st.Calls, st.BytesRead, h)
	}
	flipped := bytes.Clone(blob)
	flipped[h.Bytes-1] ^= 1
	shorter := append(bytes.Clone(blob[:h.Bytes-1]), blob[h.Bytes:]...) // the header's last byte cut
	binary.LittleEndian.PutUint64(shorter[4:], uint64(h.Bytes-1-12))
	for name, c := range map[string]struct {
		blob             []byte
		sameLen, sameCRC bool
	}{"flipped": {flipped, true, false}, "shorter": {shorter, false, false}} {
		_, got, err := testDialect.ReadHeader(Bytes(c.blob))
		if err != nil || (got.Bytes == h.Bytes) != c.sameLen || (got.CRC == h.CRC) != c.sameCRC {
			t.Errorf("%s: header %+v, %v; Open recorded %+v", name, got, err, h)
		}
	}
	if _, _, err := testDialect.ReadHeader(Bytes(blob[:10])); err == nil || !strings.Contains(err.Error(), "not a TST1 file") {
		t.Errorf("truncated preamble: %v", err)
	}
}

// TestDecoderBoundsCounts: a count is held to the bytes left at the
// element's smallest encoding, a failure sticks, and every read after it
// returns zero without moving.
func TestDecoderBoundsCounts(t *testing.T) {
	d := &Decoder{name: "test", buf: []byte{2, 0, 0, 0, 'a', 'b', 3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xff, 0xff, 0xff, 0xff}}
	if s := d.Str(); s != "ab" {
		t.Fatalf("Str = %q", s)
	}
	if n := d.Count(4); n != 3 || d.Err() != nil {
		t.Fatalf("Count(4) = %d, %v: three 4-byte entries fit 16 bytes", n, d.Err())
	}
	d.off -= 4
	if n := d.Count(6); n != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "test: truncated header (3 entries of 6+ bytes declared at 10, room for 2)") {
		t.Fatalf("Count(6) = %d, %v", n, d.Err())
	}
	first := d.Err()
	if d.U8() != 0 || d.U32() != 0 || d.U64() != 0 || d.Int() != 0 || d.Str() != "" || d.Count(1) != 0 || d.Rank(1) != 0 || d.Chunk() != (Chunk{}) {
		t.Fatal("a failed decoder read something")
	}
	d.ZoneMaps()
	if d.Failf("later"); d.Err() != first || d.off != 10 {
		t.Fatalf("failure did not stick: %v at %d", d.Err(), d.off)
	}
	// A length above MaxInt is no length; a rank is 1 to MaxRank.
	d = &Decoder{name: "test", buf: bytes.Repeat([]byte{0xff}, 8)}
	if d.Int() != 0 || d.Err() == nil {
		t.Fatal("Int accepted 2⁶⁴-1")
	}
	for _, rank := range []byte{0, MaxRank + 1} {
		d = &Decoder{name: "test", buf: append([]byte{rank, 0, 0, 0}, make([]byte, 40)...)}
		if d.Rank(1) != 0 || d.Err() == nil {
			t.Fatalf("Rank accepted %d", rank)
		}
	}
}

// TestCheckArray holds one array's chunk index to each rule in turn. The
// file is 1 000 bytes, its header 100; the array is 5 × 4 int32 in chunks
// of 2 × 4, so chunks 0 and 1 hold 32 bytes and chunk 2 holds 16.
func TestCheckArray(t *testing.T) {
	valid := func() (Layout, []Chunk) {
		return Layout{Name: "A", Type: Int32, Grid: Grid{Shape: []int{5, 4}, Chunk: []int{2, 4}}},
			[]Chunk{{Offset: 100, StoredSize: 32, RawSize: 32}, {Offset: 132, StoredSize: 32, RawSize: 32}, {Offset: 200, StoredSize: 16, RawSize: 16}}
	}
	for _, c := range []struct {
		name   string
		mutate func(a *Layout, cs *[]Chunk)
		want   string // "" = accepted
	}{
		{"as written", func(*Layout, *[]Chunk) {}, ""},
		{"contiguous", func(a *Layout, cs *[]Chunk) {
			a.Grid.Chunk, *cs = a.Grid.Shape, []Chunk{{Offset: 900, StoredSize: 80, RawSize: 80}}
		}, ""},
		{"deflated to a few bytes", func(a *Layout, cs *[]Chunk) { a.Deflated, (*cs)[0].StoredSize = true, 1 }, ""},
		{"zero dim", func(a *Layout, _ *[]Chunk) { a.Grid.Shape[1] = 0 }, "dimension 1 has length 0"},
		{"volume beyond the file", func(a *Layout, _ *[]Chunk) { a.Grid.Shape[0] = 1 << 40 }, "dimension 0 has length 1099511627776 in a 1000-byte file"},
		{"volume that overflows", func(a *Layout, _ *[]Chunk) { a.Grid.Shape = []int{1 << 31, 1 << 31, 1 << 31} }, "dimension 0 has length"},
		{"zero chunk extent", func(a *Layout, _ *[]Chunk) { a.Grid.Chunk[0] = 0 }, "chunk extent 0 outside [1,5]"},
		{"chunk extent past the dim", func(a *Layout, _ *[]Chunk) { a.Grid.Chunk[1] = 5 }, "chunk extent 5 outside [1,4]"},
		{"fewer chunks than cells", func(_ *Layout, cs *[]Chunk) { *cs = (*cs)[:2] }, "2 chunks in the index, the chunk grid has 3"},
		{"more chunks than cells", func(a *Layout, _ *[]Chunk) { a.Grid.Chunk[0] = 3 }, "3 chunks in the index, the chunk grid has 2"},
		{"no chunks", func(_ *Layout, cs *[]Chunk) { *cs = nil }, "0 chunks in the index"},
		{"raw size of a full chunk on the edge", func(_ *Layout, cs *[]Chunk) { (*cs)[2].RawSize = 32 }, "chunk 2 raw size 32, its box holds 16"},
		{"stored is not raw", func(_ *Layout, cs *[]Chunk) { (*cs)[1].StoredSize = 31 }, "chunk 1 stores 31 bytes for 32 uncompressed"},
		{"raw beyond DEFLATE's reach", func(a *Layout, cs *[]Chunk) {
			a.Deflated, a.Grid.Shape[1], a.Grid.Chunk[1] = true, 4000, 4000
			*cs = []Chunk{{Offset: 100, StoredSize: 31, RawSize: 32000}, {Offset: 132, StoredSize: 32, RawSize: 32000}, {Offset: 200, StoredSize: 16, RawSize: 16000}}
		}, "chunk 0 raw size 32000 impossible for 31 stored bytes"},
		{"payload in the header", func(_ *Layout, cs *[]Chunk) { (*cs)[0].Offset = 99 }, "payload [99,+32) outside the unclaimed file [100,1000)"},
		{"overlapping payloads", func(_ *Layout, cs *[]Chunk) { (*cs)[1].Offset = 131 }, "payload [131,+32) outside the unclaimed file [132,1000)"},
		{"descending payloads", func(_ *Layout, cs *[]Chunk) { (*cs)[2].Offset = 100 }, "outside the unclaimed file [164,1000)"},
		{"payload past the end", func(_ *Layout, cs *[]Chunk) { (*cs)[2].Offset = 990 }, "payload [990,+16) outside"},
		{"negative stored size", func(a *Layout, cs *[]Chunk) { a.Deflated, (*cs)[0].StoredSize = true, -5 }, "payload [100,+-5) outside"},
	} {
		a, chunks := valid()
		c.mutate(&a, &chunks)
		d := &Decoder{name: "test", next: 100, size: 1000}
		d.CheckArray(a, chunks)
		switch {
		case c.want == "" && d.Err() != nil:
			t.Errorf("%s: refused: %v", c.name, d.Err())
		case c.want != "" && (d.Err() == nil || !strings.Contains(d.Err().Error(), "test: A: ") || !strings.Contains(d.Err().Error(), c.want)):
			t.Errorf("%s: %v; want an error containing %q", c.name, d.Err(), c.want)
		}
	}
}

var readSink []byte

// benchChunk is one 40 × 40 float32 chunk in a file of its own, deflated
// at level (stored at 0), with the chunk's raw bytes and its index.
func benchChunk(b *testing.B, level int) (raw, blob []byte, x ChunkIndex) {
	raw = chunkPayload(40*40*4, 1)
	e := &Encoder{}
	e.Array()
	c, err := e.Pack(Float32, level, raw)
	if err != nil {
		b.Fatal(err)
	}
	blob, err = testDialect.Encode(e, func() error { e.Chunk(&c); return nil })
	if err != nil {
		b.Fatal(err)
	}
	return raw, blob, ChunkIndex{Src: Bytes(blob), Pkg: "test", Type: Float32, Deflated: level > 0, Chunks: []Chunk{c}}
}

// BenchmarkReadChunk is the shared chunk path on a plain source — one
// 40 × 40 float32 chunk located, fetched and decoded, deflated and stored —
// whose allocs/op every GetVara and ReadRows pays per chunk.
func BenchmarkReadChunk(b *testing.B) {
	for _, level := range []int{1, 0} {
		raw, _, x := benchChunk(b, level)
		b.Run(map[bool]string{true: "deflated", false: "stored"}[level > 0], func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				out, err := decoded(x.Read(0))
				if err != nil || len(out) != len(raw) {
					b.Fatal(len(out), err)
				}
				readSink = out
			}
		})
	}
}

// BenchmarkChunkRead is one deflated chunk read through a Bound on a
// two-worker data plane and consumed as GetVara consumes it (Scatter), in
// the three ways the engine serves it: a cache hit; a miss the cache keeps,
// decoded behind a join of its own and then Put (the 1-byte budget drops
// every Put, so each read misses again); and a miss nothing keeps, decoded
// inside the consumer's closure.
func BenchmarkChunkRead(b *testing.B) {
	raw, blob, x := benchChunk(b, 1)
	for _, arm := range []struct {
		name  string
		cache *Cache
	}{{"hit", NewCache(0)}, {"kept-miss", NewCache(1)}, {"deferred-miss", nil}} {
		b.Run(arm.name, func(b *testing.B) {
			k := sim.NewKernel()
			pool := sim.NewComputePool(2)
			defer pool.Close()
			k.SetComputePool(pool)
			first := []int{0}
			consume := func(_ int, out []byte) { readSink = out }
			k.Go("reader", func(p *sim.Proc) {
				x := x
				x.Src = Bind(p, &slowReader{data: blob, latency: 0.001}, Options{Cache: arm.cache})
				if err := x.Scatter(first, consume); err != nil { // fills the hit arm's cache
					b.Error(err)
					return
				}
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := x.Scatter(first, consume); err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
			})
			k.Run()
			if !bytes.Equal(readSink, raw) {
				b.Fatal("chunk decoded wrong")
			}
		})
	}
}
