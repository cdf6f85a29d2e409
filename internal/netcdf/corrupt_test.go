package netcdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scidp/internal/ioengine"
)

// A header is bytes from outside. These tests hold Open and every reader
// behind it to that: whatever a header says, Open fails with an error or
// every variable reads without a panic and within the allocation bound.

// smallFile is the valid file the mutation tests start from: a deflated,
// chunked float variable (three equal chunks, so entries can be swapped
// for one another), a contiguous stored int variable, attributes of every
// kind.
func smallFile(tb testing.TB) []byte {
	tb.Helper()
	w := NewWriter()
	for _, d := range []struct {
		n string
		l int
	}{{"level", 6}, {"lat", 5}, {"lon", 7}} {
		if err := w.AddDim(d.n, d.l); err != nil {
			tb.Fatal(err)
		}
	}
	w.GlobalAttr(StringAttr("model", "NU-WRF"))
	w.GlobalAttr(Int64Attr("timestamp", 3))
	w.GlobalAttr(Float64Attr("dx", 0.5))
	if err := w.AddVar("QR", Float32, []string{"level", "lat", "lon"}, Chunking{Shape: []int{2, 5, 7}, Deflate: 1}, StringAttr("units", "kg/kg")); err != nil {
		tb.Fatal(err)
	}
	if err := w.AddVar("MASK", Int32, []string{"lat", "lon"}, Chunking{}); err != nil {
		tb.Fatal(err)
	}
	qr := make([]float32, 6*5*7)
	for i := range qr {
		qr[i] = float32(i%13) / 4
	}
	mask := make([]int32, 5*7)
	for i := range mask {
		mask[i] = int32(i - 9)
	}
	if err := w.PutVarFloat32("QR", qr); err != nil {
		tb.Fatal(err)
	}
	if err := w.PutVarInt32("MASK", mask); err != nil {
		tb.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// allocated returns how many bytes fn allocates in all. It bounds every
// single allocation fn makes, which is what a hostile header aims at.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readEverything opens blob and reads every variable. It returns the
// opened file and each variable's bytes (nil where the read failed), or an
// error when Open refuses the file, and reports to tb a panic anywhere, an
// Open that allocates more than a small multiple of the input, and a read
// that allocates more than twice what a file of this size can inflate to
// (its output and its chunks' inflate buffers) or declares more than once.
func readEverything(tb testing.TB, blob []byte) (f *File, data [][]byte, err error) {
	tb.Helper()
	defer func() {
		if r := recover(); r != nil {
			tb.Errorf("panic: %v", r)
			f, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	bound := uint64(1032*len(blob) + 64<<10)
	if n := allocated(func() { f, err = Open(BytesReader(blob)) }); n > uint64(64*len(blob)+64<<10) {
		tb.Errorf("Open of %d bytes allocated %d", len(blob), n)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, v := range f.Vars() {
		if uint64(v.RawBytes()) > bound {
			tb.Errorf("%s declares %d raw bytes in a %d-byte file", v.Name, v.RawBytes(), len(blob))
			data = append(data, nil)
			continue
		}
		var arr *Array
		if n := allocated(func() { arr, _ = f.GetVar(v.Name) }); n > 2*bound {
			tb.Errorf("GetVar(%s) allocated %d from a %d-byte file", v.Name, n, len(blob))
		}
		if arr == nil {
			arr = &Array{}
		}
		data = append(data, arr.Data)
	}
	return f, data, nil
}

// TestHeaderMutationSweep sets every header byte of a small valid file to
// each of five values: each mutant is refused or read in full and in
// bounds. On the tree before the shared container this found 3 divisions
// by zero inside Open, 33 slice-bounds panics in GetVar and 68 mutants
// whose GetVar asked for up to 76 GB.
func TestHeaderMutationSweep(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	opened := 0
	for at := 0; at < int(f.Header.Bytes); at++ {
		for _, b := range []byte{0, 1, 0x7f, 0x80, 0xff} {
			if blob[at] == b {
				continue
			}
			bad := bytes.Clone(blob)
			bad[at] = b
			if _, _, err := readEverything(t, bad); err == nil {
				opened++
			}
			if t.Failed() {
				t.Fatalf("header byte %d = %#x", at, b)
			}
		}
	}
	t.Logf("%d header bytes, %d mutants still open", f.Header.Bytes, opened)
}

// patch returns blob with the 8 bytes at the first (or, from > 0, a later)
// occurrence of the little-endian old replaced by new.
func patch(t *testing.T, blob []byte, old, new uint64, from int) []byte {
	t.Helper()
	var o [8]byte
	binary.LittleEndian.PutUint64(o[:], old)
	at := bytes.Index(blob[from:], o[:])
	if at < 0 {
		t.Fatalf("no field holding %d after byte %d", old, from)
	}
	out := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(out[from+at:], new)
	return out
}

// TestOpenRefusesInconsistentHeaders names the defects the sweep found on
// the parent, one header field each.
func TestOpenRefusesInconsistentHeaders(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := f.Var("QR")
	varQR := strings.Index(string(blob), "\x02\x00\x00\x00QR") // fields of QR lie past its name
	chunk1 := qr.Chunks[1]
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		// The chunk grid divided by it inside Open.
		{"zero chunk extent", patch(t, blob, 2, 0, varQR), "chunk extent 0 outside"},
		{"chunk extent past its dim", patch(t, blob, 2, 7, varQR), "chunk extent 7 outside"},
		// The box copy sliced the chunk by its box, whatever RawSize said.
		{"raw size is not the box", patch(t, blob, uint64(chunk1.RawSize), uint64(chunk1.RawSize-4), varQR), "its box holds 280"},
		// GetVar sized its output by the dims and indexed chunks the index lacks.
		{"dim longer than the index", patch(t, blob, 6, 1<<33, varQR), "dimension 0 has length 8589934592"},
		{"dim one chunk longer than the index", patch(t, blob, 6, 8, varQR), "3 chunks in the index, the chunk grid has 4"},
		{"dim of zero", patch(t, blob, 6, 0, varQR), "no length"},
		// Many index entries aimed at one stored range: each inflates again.
		{"overlapping chunks", patch(t, blob, uint64(chunk1.Offset), uint64(qr.Chunks[0].Offset), varQR), "outside the unclaimed file"},
		{"chunk inside the header", patch(t, blob, uint64(qr.Chunks[0].Offset), 16, varQR), "outside the unclaimed file"},
		{"chunk past the end", patch(t, blob, uint64(chunk1.StoredSize), uint64(len(blob)), varQR), "outside the unclaimed file"},
	} {
		_, err := Open(BytesReader(c.blob))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open: %v; want an error containing %q", c.name, err, c.want)
		}
	}
	// The stored variable: stored size must be the raw size.
	mask, _ := f.Var("MASK")
	bad := patch(t, blob, uint64(mask.Chunks[0].StoredSize), uint64(mask.Chunks[0].StoredSize-1), strings.Index(string(blob), "MASK"))
	if _, err := Open(BytesReader(bad)); err == nil || !strings.Contains(err.Error(), "stores 139 bytes for 140 uncompressed") {
		t.Errorf("stored != raw: Open: %v", err)
	}
}

// TestWriterRefusesUnsetAttrKind: an Attr built by hand with its Kind left
// zero was a panic inside Bytes; it is Bytes' error now.
func TestWriterRefusesUnsetAttrKind(t *testing.T) {
	w := NewWriter()
	w.AddDim("x", 2)
	w.GlobalAttr(Attr{Name: "oops", Str: "kind left unset"})
	if err := w.AddVar("v", Float32, []string{"x"}, Chunking{}); err != nil {
		t.Fatal(err)
	}
	w.PutVarFloat32("v", []float32{1, 2})
	if _, err := w.Bytes(); err == nil || !strings.Contains(err.Error(), "attribute oops: unknown kind 0") {
		t.Fatalf("Bytes: %v; want an unknown-kind error", err)
	}
	if err := w.AddVar("u", Type(9), []string{"x"}, Chunking{}); err == nil {
		t.Fatal("AddVar accepted element type 9")
	}
}

// TestPayloadMutationSweep is the sweep's leg over chunk payloads, read on
// a four-worker data plane. It flips every stored byte of QR's three
// deflated chunks in turn. A cached Bound decodes each miss eagerly, right
// after its fetch. An uncached Bound defers the decode into GetVara's
// scatter closures, so the error surfaces at their join. Both reads must
// give the same bytes or the same error text. With two chunks corrupt, the
// first in read order decides the error. The source's bytes are cleared as
// soon as GetVar returns, which `make race` reports as a race if a decode
// or copy were still running.
func TestPayloadMutationSweep(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := f.Var("QR")
	read := func(bad []byte, cached bool) (data []byte, msg string) {
		var opts ioengine.Options
		if cached {
			opts.Cache = ioengine.NewCache(1 << 20)
		}
		src := bytes.Clone(bad)
		runBound(t, 4, src, opts, func(f *File) {
			arr, err := f.GetVar("QR")
			clear(src)
			if err != nil {
				msg = err.Error()
			} else {
				data = arr.Data
			}
		})
		return data, msg
	}
	type flip struct {
		at  int64
		msg string
	}
	failing := make([][]flip, len(qr.Chunks)) // by chunk, the flips that fail
	flips := 0
	for k, c := range qr.Chunks {
		flips += int(c.StoredSize)
		for at := c.Offset; at < c.Offset+c.StoredSize; at++ {
			bad := bytes.Clone(blob)
			bad[at] ^= 0xff
			wantData, want := read(bad, true)
			gotData, got := read(bad, false)
			if got != want || !bytes.Equal(gotData, wantData) {
				t.Fatalf("chunk %d byte %d: uncached read gave %q, cached %q (bytes equal %v)", k, at, got, want, bytes.Equal(gotData, wantData))
			}
			if want != "" {
				failing[k] = append(failing[k], flip{at, want})
			}
		}
		if len(failing[k]) == 0 {
			t.Fatalf("no flip in chunk %d fails: the sweep checks nothing there", k)
		}
	}
	t.Logf("%d payload bytes flipped, %d, %d and %d failing by chunk", flips, len(failing[0]), len(failing[1]), len(failing[2]))
	// Two corrupt chunks, each flip failing with its own text.
	for j := range failing {
		for k := j + 1; k < len(failing); k++ {
			a, b, found := flip{}, flip{}, false
			for _, a = range failing[j] {
				for _, b = range failing[k] {
					if found = a.msg != b.msg; found {
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				t.Fatalf("chunks %d and %d fail only with the same text", j, k)
			}
			bad := bytes.Clone(blob)
			bad[a.at] ^= 0xff
			bad[b.at] ^= 0xff
			for _, cached := range []bool{true, false} {
				if _, got := read(bad, cached); got != a.msg {
					t.Errorf("chunks %d and %d corrupt (cached %v): %q; want chunk %d's %q", j, k, cached, got, j, a.msg)
				}
			}
		}
	}
}

// rewrite rebuilds an opened file through the Writer from what was read of
// it; ok is false when the Writer refuses (the file did not come from it).
func rewrite(f *File, data [][]byte) (blob []byte, ok bool) {
	w := NewWriter()
	for _, d := range f.Dims() {
		if w.AddDim(d.Name, d.Len) != nil {
			return nil, false
		}
	}
	for _, a := range f.GlobalAttrs() {
		w.GlobalAttr(a)
	}
	for i, v := range f.Vars() {
		var names []string
		for _, d := range v.Dims {
			names = append(names, d.Name)
			if w.AddDim(d.Name, d.Len) != nil {
				return nil, false
			}
		}
		if w.AddVar(v.Name, v.Type, names, Chunking{Shape: v.ChunkShape, Deflate: v.Deflate}, v.Attrs...) != nil || w.PutVarBytes(v.Name, data[i]) != nil {
			return nil, false
		}
	}
	blob, err := w.Bytes()
	return blob, err == nil
}

// FuzzOpen: no input panics or allocates out of proportion, and whatever
// opens and reads in full survives write → read bit for bit (and is
// reproduced byte for byte when it is one of the writer's own files). The
// source's bytes are overwritten between the read and the write, so a
// name or value that aliases them, not a copy, fails the round trip.
func FuzzOpen(f *testing.F) {
	// The NU-WRF header (23 variables) on a 2 × 8 × 8 grid: a seed of the
	// benchmark's full grid is 1.3 MB, whose payload mutations each cost a
	// full read and re-deflate, and stall the target.
	seeds := [][]byte{smallFile(f), nuwrfGrid(f, 23, 2, 8, 8)}
	for _, s := range seeds {
		own := bytes.Clone(s)
		file, data, err := readEverything(f, own)
		if err != nil {
			f.Fatal(err)
		}
		overwrite(own)
		if again, ok := rewrite(file, data); !ok || !bytes.Equal(again, s) {
			f.Fatalf("rewriting a file of the writer's own changed it (ok=%v)", ok)
		}
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Add(patchCount(seeds[0]))
	// Two headers Open refuses at the zone-map trailer: one without it,
	// one whose last section is a record short.
	small, _ := Open(BytesReader(seeds[0]))
	f.Add(shortenHeader(seeds[0], trailerLen(small)))
	f.Add(shortenHeader(seeds[0], ioengine.ChunkStatsSize))
	f.Fuzz(func(t *testing.T, blob []byte) {
		own := bytes.Clone(blob)
		file, data, err := readEverything(t, own)
		if err != nil {
			return
		}
		for _, d := range data {
			if d == nil {
				return // a payload did not decode: nothing to round-trip
			}
		}
		want, ok := rewrite(file, data)
		if !ok {
			return
		}
		overwrite(own)
		again, _ := rewrite(file, data)
		if !bytes.Equal(again, want) {
			t.Fatal("what Open decoded changed when its source's bytes were overwritten")
		}
		_, back, err := readEverything(t, again)
		if err != nil {
			t.Fatalf("rewritten file does not open: %v", err)
		}
		for i := range data {
			if !bytes.Equal(back[i], data[i]) {
				t.Fatalf("variable %d changed across write → read", i)
			}
		}
	})
}

// patchCount is TestOpenCorruptChunkCount's header: the first variable
// declares 2³¹ chunks.
func patchCount(blob []byte) []byte {
	f, _ := Open(BytesReader(blob))
	var first [8]byte
	binary.LittleEndian.PutUint64(first[:], uint64(f.Vars()[0].Chunks[0].Offset))
	bad := bytes.Clone(blob)
	binary.LittleEndian.PutUint32(bad[bytes.Index(bad, first[:])-4:], 1<<31) // the count precedes the first entry
	return bad
}

// overwrite fills b with a byte no header field of the tests holds.
func overwrite(b []byte) {
	for i := range b {
		b[i] = 0xa5
	}
}
