package grads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/scifmt"
)

// allocated returns how many bytes fn allocates in all, which bounds every
// single allocation it makes.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readEverything explores blob and reads every grid whole, returning the
// structure and each grid's bytes, or an error when Explore refuses the
// file. It reports to tb a panic anywhere and an Explore or a read that
// allocates out of proportion to the input: records are stored raw, so a
// grid is no bigger than its file.
func readEverything(tb testing.TB, blob []byte) (info *scifmt.Info, data [][]byte, err error) {
	tb.Helper()
	defer func() {
		if r := recover(); r != nil {
			tb.Errorf("panic: %v", r)
			info, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	bound := uint64(64*len(blob) + 64<<10)
	if n := allocated(func() { info, err = Format().Explore(netcdf.BytesReader(blob)) }); n > bound {
		tb.Errorf("Explore of %d bytes allocated %d", len(blob), n)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, v := range info.Vars {
		var raw []byte
		if n := allocated(func() {
			raw, err = Format().ReadSlab(netcdf.BytesReader(blob), v.Path, make([]int, 3), v.Shape)
		}); n > bound {
			tb.Errorf("ReadSlab(%s) allocated %d from a %d-byte file", v.Path, n, len(blob))
		}
		if err == nil && int64(len(raw)) != v.RawBytes {
			tb.Errorf("ReadSlab(%s) returned %d of %d bytes", v.Path, len(raw), v.RawBytes)
		}
		data = append(data, raw) // nil after an error: two grids of one name and different shapes
	}
	return info, data, nil
}

// TestHeaderMutationSweep sets every header byte of a small valid file to
// each of five values: each mutant is refused or every grid reads in full
// and in bounds.
func TestHeaderMutationSweep(t *testing.T) {
	blob := sample(t)
	hlen := len(Magic) + 8 + int(binary.LittleEndian.Uint64(blob[len(Magic):]))
	opened := 0
	for at := 0; at < hlen; at++ {
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
	t.Logf("%d header bytes, %d mutants still open", hlen, opened)
}

// hostileHeader is a 33-byte file declaring one grid of the given dims
// over no data at all.
func hostileHeader(levels, lat, lon uint32) []byte {
	le := binary.LittleEndian
	h := append(le.AppendUint32(le.AppendUint32(nil, 1), 1), 'U')
	h = le.AppendUint32(le.AppendUint32(le.AppendUint32(h, levels), lat), lon)
	return append(le.AppendUint64([]byte(Magic), uint64(len(h))), h...)
}

// TestExploreRefusesImpossibleGrids: parseHeader checked neither that dims
// are above zero nor the product's overflow, so 4 194 304 levels of zero
// latitudes explored into as many empty segments, and dims whose product
// wraps to something small passed the file-size check.
func TestExploreRefusesImpossibleGrids(t *testing.T) {
	for _, c := range []struct {
		name             string
		levels, lat, lon uint32
		want             string
	}{
		{"zero latitudes under 2²² levels", 1 << 22, 0, 4, "dimension 0 has length 4194304 in a 33-byte file"},
		{"zero latitudes", 2, 0, 4, "dimension 1 has length 0"},
		{"zero levels", 0, 3, 4, "dimension 0 has length 0"},
		{"a product that overflows", 1 << 31, 1 << 31, 1 << 2, "dimension 0 has length 2147483648"},
		{"more records than the file holds", 2, 3, 4, "outside the unclaimed file"},
	} {
		blob := hostileHeader(c.levels, c.lat, c.lon)
		var err error
		if n := allocated(func() { _, err = Format().Explore(netcdf.BytesReader(blob)) }); n > 64<<10 {
			t.Errorf("%s: Explore allocated %d from a %d-byte file", c.name, n, len(blob))
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Explore: %v; want an error containing %q", c.name, err, c.want)
		}
	}
}

// reencode rebuilds an explored file through Encode from what was read.
func reencode(info *scifmt.Info, data [][]byte) ([]byte, error) {
	specs := make([]VarSpec, len(info.Vars))
	vals := make([][]float32, len(info.Vars))
	for i, v := range info.Vars {
		specs[i] = VarSpec{Name: v.Path, Levels: v.Shape[0], Lat: v.Shape[1], Lon: v.Shape[2]}
		vals[i] = ioengine.Float32s(data[i])
	}
	return Encode(specs, vals)
}

// FuzzExplore: no input panics or allocates out of proportion, and
// whatever explores reads every grid in full and survives write → read
// bit for bit (Encode's own file is reproduced byte for byte).
func FuzzExplore(f *testing.F) {
	blob := sample(f)
	if info, data, err := readEverything(f, blob); err != nil {
		f.Fatal(err)
	} else if again, err := reencode(info, data); err != nil || !bytes.Equal(again, blob) {
		f.Fatalf("re-encoding Encode's own file changed it (%v)", err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-8])
	f.Add(hostileHeader(1<<22, 0, 4))
	f.Fuzz(func(t *testing.T, blob []byte) {
		info, data, err := readEverything(t, blob)
		if err != nil || slices.ContainsFunc(data, func(d []byte) bool { return d == nil }) {
			return
		}
		again, err := reencode(info, data)
		if err != nil {
			t.Fatalf("re-encoding an explored file: %v", err)
		}
		_, back, err := readEverything(t, again)
		if err != nil {
			t.Fatalf("re-encoded file does not explore: %v", err)
		}
		for i := range data {
			if !bytes.Equal(back[i], data[i]) {
				t.Fatalf("grid %d changed across write → read", i)
			}
		}
	})
}
