package hdf5lite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
)

// A header is bytes from outside: whatever it says, Open fails with an
// error or every dataset reads without a panic and within the allocation
// bound. netcdf's corrupt_test.go is this file's twin over the other
// dialect; the checks both exercise are the shared container's.

// smallFile is the valid file the mutation tests start from: nested
// groups with attributes, a deflated float dataset in three equal chunks,
// a contiguous stored int dataset.
func smallFile(tb testing.TB) []byte {
	tb.Helper()
	w := NewWriter()
	w.Root().Attrs["title"] = "nested"
	phys := w.Root().EnsureGroup("model/physics")
	phys.Attrs["scheme"] = "GCE"
	vals := make([]float32, 6*4*4)
	for i := range vals {
		vals[i] = float32(i%11) * 0.5
	}
	if _, err := phys.AddFloat32("QR", []int{6, 4, 4}, 2, 3, vals); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Root().EnsureGroup("model").AddInt32("steps", []int{3}, 0, 0, []int32{10, 20, 30}); err != nil {
		tb.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// allocated returns how many bytes fn allocates in all, which bounds every
// single allocation it makes.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// walk calls fn for every dataset under g, depth first.
func walk(g *Group, fn func(g *Group, d *Dataset)) {
	for _, d := range g.Datasets {
		fn(g, d)
	}
	for _, c := range g.Children {
		walk(c, fn)
	}
}

// readEverything opens blob and reads every dataset, returning the file
// and each dataset's bytes in depth-first order (nil where the read
// failed), or an error when Open refuses the file. It reports to tb a
// panic anywhere, an Open that allocates more than a small multiple of the
// input, and a read that declares more than a file of this size can
// inflate to or allocates more than twice that (output + inflate buffers).
func readEverything(tb testing.TB, blob []byte) (f *File, data [][]byte, err error) {
	tb.Helper()
	defer func() {
		if r := recover(); r != nil {
			tb.Errorf("panic: %v", r)
			f, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	bound := uint64(1032*len(blob) + 64<<10)
	if n := allocated(func() { f, err = Open(netcdf.BytesReader(blob)) }); n > uint64(64*len(blob)+64<<10) {
		tb.Errorf("Open of %d bytes allocated %d", len(blob), n)
	}
	if err != nil {
		return nil, nil, err
	}
	walk(f.Root(), func(_ *Group, d *Dataset) {
		var raw []byte
		if uint64(d.RawBytes()) > bound {
			tb.Errorf("%s declares %d raw bytes in a %d-byte file", d.Name, d.RawBytes(), len(blob))
		} else if n := allocated(func() { raw, _ = readAll(f, d) }); n > 2*bound {
			tb.Errorf("readAll(%s) allocated %d from a %d-byte file", d.Name, n, len(blob))
		}
		data = append(data, raw)
	})
	return f, data, nil
}

// TestHeaderMutationSweep sets every header byte of a small valid file to
// each of five values: each mutant is refused or read in full and in
// bounds. On the tree before the shared container about 70 mutants were
// slice-bounds panics in readAll and 67 asked it for oversized buffers.
func TestHeaderMutationSweep(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(netcdf.BytesReader(blob))
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

// TestPayloadMutationSweep is the sweep's leg over chunk payloads, read on
// a four-worker data plane. It flips every stored byte of QR's three
// deflated chunks in turn. A cached Bound decodes each miss eagerly, right
// after its fetch. An uncached Bound defers the decode into ReadBox's
// assembly closures, so the error surfaces at their join. Both reads must
// give the same bytes or the same error text. With two chunks corrupt, the
// first in read order decides the error. The source's bytes are cleared as
// soon as ReadBox returns, which `make race` reports as a race if a
// decode or copy were still running.
func TestPayloadMutationSweep(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	qr, err := f.Find("model/physics/QR")
	if err != nil {
		t.Fatal(err)
	}
	read := func(bad []byte, cached bool) (data []byte, msg string) {
		var opts ioengine.Options
		if cached {
			opts.Cache = ioengine.NewCache(1 << 20)
		}
		src := bytes.Clone(bad)
		runBound(t, 4, src, opts, func(f *File) {
			d, err := f.Find("model/physics/QR")
			if err == nil {
				data, err = readAll(f, d)
			}
			clear(src)
			if err != nil {
				msg = err.Error()
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

// rankZeroFile spells out, byte by byte, a file whose one dataset has no
// dimensions: ReadAll indexed d.Shape[0] of it.
func rankZeroFile() []byte {
	le := binary.LittleEndian
	var h []byte
	h = le.AppendUint32(h, 0) // root group: name "", no attributes, one dataset
	h = le.AppendUint32(h, 0)
	h = le.AppendUint32(h, 1)
	h = append(le.AppendUint32(h, 1), 'd') // dataset "d"
	h = append(h, byte(Float32))
	h = le.AppendUint32(h, 0) // rank 0
	h = le.AppendUint32(h, 0) // chunkRows
	h = append(h, 0)          // deflate
	h = le.AppendUint32(h, 1) // one chunk:
	h = le.AppendUint64(h, 0) // offset, fixed below
	h = le.AppendUint64(h, 4) // stored
	h = le.AppendUint64(h, 4) // raw
	h = le.AppendUint32(h, 0) // row start
	h = le.AppendUint32(h, 1) // rows
	h = le.AppendUint32(h, 0) // no child groups
	le.PutUint64(h[len(h)-36:], uint64(len(Magic)+8+len(h)))
	out := le.AppendUint64([]byte(Magic), uint64(len(h)))
	return append(append(out, h...), 0, 0, 128, 63)
}

// TestOpenRefusesInconsistentHeaders names the defects the sweep found on
// the parent, one header field each.
func TestOpenRefusesInconsistentHeaders(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	qr, err := f.Find("model/physics/QR")
	if err != nil {
		t.Fatal(err)
	}
	// find locates the first little-endian old of the given width past QR's
	// name and type; patchAt overwrites the field at pos with new.
	find := func(old uint64, width int) int {
		var o [8]byte
		binary.LittleEndian.PutUint64(o[:], old)
		from := strings.Index(string(blob), "\x02\x00\x00\x00QR") + 7
		at := bytes.Index(blob[from:], o[:width])
		if from < 7 || at < 0 {
			t.Fatalf("no field holding %d", old)
		}
		return from + at
	}
	patchAt := func(pos int, new any) []byte {
		out, _ := binary.Append(bytes.Clone(blob[:pos]), binary.LittleEndian, new)
		return append(out, blob[len(out):]...)
	}
	patch := func(old uint64, new any) []byte { return patchAt(find(old, binary.Size(new)), new) }
	c0, c1 := qr.Chunks[0], qr.Chunks[1]
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"rank-0 dataset", rankZeroFile(), "array rank 0 outside [1,32]"},
		// The row read sliced each chunk by its rows, whatever RawSize said.
		{"raw size is not the box", patch(uint64(c1.RawSize), uint64(c1.RawSize+64)), "its box holds 128"},
		// readAll sized its output by the shape.
		{"dim longer than the index", patch(6, uint64(1<<40)), "dimension 0 has length 1099511627776"},
		{"dim one chunk longer than the index", patch(6, uint64(8)), "3 chunks in the index, the chunk grid has 4"},
		{"dim of zero", patch(6, uint64(0)), "dimension 0 has length 0"},
		{"chunk rows past the dataset's", patch(2, uint32(9)), "chunk extent 9 outside [1,6]"},
		{"rows that are not the chunk's place", patchAt(find(uint64(c1.Offset), 8)+24, uint32(3)), "covers rows [3,+2), its place in the index says [2,+2)"},
		// Many index entries aimed at one stored range: each inflates again.
		{"overlapping chunks", patch(uint64(c1.Offset), uint64(c0.Offset)), "outside the unclaimed file"},
		{"chunk inside the header", patch(uint64(c0.Offset), uint64(16)), "outside the unclaimed file"},
		{"chunk past the end", patch(uint64(c1.StoredSize), uint64(len(blob))), "outside the unclaimed file"},
	} {
		_, err := Open(netcdf.BytesReader(c.blob))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open: %v; want an error containing %q", c.name, err, c.want)
		}
	}
}

// rewrite rebuilds an opened file through the Writer from what was read of
// it; ok is false when the Writer refuses (the file did not come from it).
func rewrite(f *File, data [][]byte) (blob []byte, ok bool) {
	w := NewWriter()
	var copyGroup func(dst, src *Group) bool
	copyGroup = func(dst, src *Group) bool {
		for k, v := range src.Attrs {
			dst.Attrs[k] = v
		}
		for _, d := range src.Datasets {
			if _, err := dst.addRaw(d.Name, d.Type, d.Shape, d.ChunkRows, d.Deflate, data[0]); err != nil {
				return false
			}
			data = data[1:]
		}
		for _, c := range src.Children {
			if c.Name == "" || strings.Contains(c.Name, "/") || dst.Child(c.Name) != nil || !copyGroup(dst.EnsureGroup(c.Name), c) {
				return false
			}
		}
		return true
	}
	if f.Root().Name != "" || !copyGroup(w.Root(), f.Root()) {
		return nil, false
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
	s := smallFile(f)
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
	f.Add(rankZeroFile())
	// Two headers Open refuses at the zone-map trailer: one without it,
	// one whose last section is a record short.
	f.Add(shortenHeader(s, trailerLen(file)))
	f.Add(shortenHeader(s, ioengine.ChunkStatsSize))
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
				t.Fatalf("dataset %d changed across write → read", i)
			}
		}
	})
}

var openSink *File

// BenchmarkOpen parses the group tree of the small nested file.
func BenchmarkOpen(b *testing.B) {
	blob := smallFile(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := Open(netcdf.BytesReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		openSink = f
	}
}

// overwrite fills b with a byte no header field of the tests holds.
func overwrite(b []byte) {
	for i := range b {
		b[i] = 0xa5
	}
}
