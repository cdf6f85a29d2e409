//go:build !race

package core

import (
	"fmt"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/sim"
)

// The race detector's shadow allocations make allocation counts
// meaningless.

// wideRig maps QR of a 23-variable file, the NU-WRF timestamp's variable
// count, one dummy block per chunk, and returns a reader on another node
// with block 1's source and the file's bytes.
func wideRig(t testing.TB) (*rig, *PFSReader, *SlabSource, []byte) {
	r := newRig(t)
	vars := []string{"QR"}
	for i := 1; i < 23; i++ {
		vars = append(vars, fmt.Sprintf("V%02d", i))
	}
	r.ncFile(t, "/in/plot.nc", 4, 6, 6, vars...)
	var src *SlabSource
	r.run(t, func(p *sim.Proc) { src = r.mapQR(t, p, "/in/plot.nc", 0)[1] })
	return r, NewPFSReader(nil, r.mount(r.bd.Node(1))), src, r.pfs.Get("/in/plot.nc")
}

// TestReadSlabAllocs pins what one warm ReadSlab of a mapped,
// chunk-aligned block allocates: the span-free bound reader, the two
// header reads and their check, the PFS transfers' parts and one chunk's read
// and copy. It decodes no header: the mapping carries the chunk index.
func TestReadSlabAllocs(t *testing.T) {
	r, reader, src, _ := wideRig(t)
	var allocs float64
	r.run(t, func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(50, func() {
			if _, err := reader.ReadSlab(p, src); err != nil {
				t.Error(err)
			}
		})
	})
	const bound = 40
	if allocs > bound {
		t.Fatalf("a warm ReadSlab allocated %v times, want <= %d", allocs, bound)
	}
}

// TestHeaderDecodeAllocs pins what the Explorer pays per file: one decode
// of the 23-variable header is a few slabs and one chunk index a variable,
// not a slice per field and a string per name (323 allocations).
func TestHeaderDecodeAllocs(t *testing.T) {
	_, _, _, blob := wideRig(t)
	decode := testing.AllocsPerRun(10, func() {
		if _, err := netcdf.Open(ioengine.Bytes(blob)); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 50
	if decode > bound {
		t.Fatalf("one header decode allocated %v times, want <= %d", decode, bound)
	}
}

// BenchmarkReadSlab is a warm reader's ReadSlab of one mapped,
// chunk-aligned block of a 23-variable file: the header re-read and its
// check, the PFS transfers, one chunk's inflate and copy.
func BenchmarkReadSlab(b *testing.B) {
	r, reader, src, _ := wideRig(b)
	r.k.Go("reader", func(p *sim.Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reader.ReadSlab(p, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	r.k.Run()
}
