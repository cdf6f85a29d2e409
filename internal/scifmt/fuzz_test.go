package scifmt_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/scifmt"
)

// FuzzDetect drives the Sci-format Head Reader's whole front door over
// arbitrary bytes, the way the File Explorer and the PFS Reader do: the
// registry picks a format by magic, the format explores the header, and
// the first variable's first chunk is read back as a slab through the
// chunk index Explore handed out. Nothing
// panics, nothing allocates out of proportion to the input, and a slab
// that reads is exactly as long as the explorer said.
func FuzzDetect(f *testing.F) {
	reg := scifmt.Default()
	for _, l := range pinLayouts {
		for _, seed := range [][]byte{pinNetCDF(f, l), pinHDF5(f, l)} {
			f.Add(seed)
			f.Add(seed[:len(seed)*2/3])
		}
	}
	f.Add([]byte("NCL1"))
	f.Add([]byte("HL5F"))
	// The chunked pins without their zone-map trailer, whole and cut:
	// headers every format refuses.
	for _, seed := range [][]byte{
		withoutTrailer(f, scifmt.NetCDF(), pinNetCDF(f, pinLayouts[0])),
		withoutTrailer(f, scifmt.HDF5(), pinHDF5(f, pinLayouts[0])),
	} {
		f.Add(seed)
		f.Add(seed[:len(seed)*2/3])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		src := ioengine.Bytes(blob)
		format, ok := reg.Detect(src)
		if !ok {
			return
		}
		bound := uint64(1032*len(blob) + 64<<10)
		var info *scifmt.Info
		var err error
		if n := allocated(func() { info, err = format.Explore(src) }); n > uint64(64*len(blob)+64<<10) {
			t.Fatalf("%s: Explore of %d bytes allocated %d", format.Name(), len(blob), n)
		}
		if err != nil || len(info.Vars) == 0 {
			return
		}
		v := info.Vars[0]
		start, extent := v.Index.Grid.Box(0)
		rawSize := ioengine.Volume(extent) * v.Index.Type.Size()
		if uint64(rawSize) > bound {
			t.Fatalf("%s: %s's first chunk holds %d raw bytes in a %d-byte file", format.Name(), v.Path, rawSize, len(blob))
		}
		x := v.Index
		x.Src = src
		var raw []byte
		if n := allocated(func() { raw, err = x.ReadBox(start, extent) }); n > 2*bound {
			t.Fatalf("%s: ReadBox allocated %d from a %d-byte file", format.Name(), n, len(blob))
		}
		if err == nil && len(raw) != rawSize {
			t.Fatalf("%s: slab of %s is %d bytes, its chunk holds %d", format.Name(), v.Path, len(raw), rawSize)
		}
	})
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

// withoutTrailer returns a file of format with its declared header length
// cut where the zone-map trailer starts: the tag, then per variable a
// count and its records.
func withoutTrailer(tb testing.TB, format scifmt.Format, blob []byte) []byte {
	info, err := format.Explore(ioengine.Bytes(blob))
	if err != nil {
		tb.Fatal(err)
	}
	n := 4
	for _, v := range info.Vars {
		n += 4 + ioengine.ChunkStatsSize*len(v.Index.Chunks)
	}
	b := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(b[4:], binary.LittleEndian.Uint64(b[4:])-uint64(n))
	return b
}
