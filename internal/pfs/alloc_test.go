//go:build !race

package pfs

import (
	"testing"

	"scidp/internal/sim"
)

// The race detector's shadow allocations make allocation counts
// meaningless.

// stripedReadRig is a default-sized PFS holding an 8 MiB file striped
// 128 KiB wide over 8 OSTs, and a client whose path crosses an
// interlink and a node NIC: a 1 MiB read at offset 0 is one stripe from
// each of the 8 targets, a six-resource chain each.
func stripedReadRig() (*sim.Kernel, *Client) {
	k := sim.NewKernel()
	fs := New(k, DefaultConfig())
	fs.PutStriped("/f", make([]byte, 8<<20), 128<<10, 8)
	return k, fs.NewClient(sim.NewResource("interlink", 5e9), sim.NewResource("nic", 1.25e9))
}

// TestStripedReadAllocs pins what one warm 1 MiB, 8-OST ReadAtParts
// allocates: the returned buffer, the parts and their targets, one flow
// per stripe and TransferAll's bookkeeping. Building each stripe's
// resource chain per read, or a closure per part, breaks it.
func TestStripedReadAllocs(t *testing.T) {
	k, c := stripedReadRig()
	var allocs float64
	k.Go("reader", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(50, func() {
			if _, _, err := c.ReadAtParts(p, "/f", 0, 1<<20); err != nil {
				t.Error(err)
			}
		})
	})
	k.Run()
	if allocs > 16 {
		t.Fatalf("a warm 1 MiB striped read allocated %v times, want <= 16", allocs)
	}
}

// BenchmarkStripedRead is a warm client's 1 MiB ReadAtParts over 8 OSTs:
// the segment decomposition, the 8-part TransferAll and the copy out.
func BenchmarkStripedRead(b *testing.B) {
	k, c := stripedReadRig()
	k.Go("reader", func(p *sim.Proc) {
		if _, _, err := c.ReadAtParts(p, "/f", 0, 1<<20); err != nil {
			b.Error(err)
		}
		b.SetBytes(1 << 20)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.ReadAtParts(p, "/f", 0, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	k.Run()
}
