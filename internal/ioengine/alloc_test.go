//go:build !race

package ioengine

import "testing"

// The race detector makes sync.Pool drop a quarter of its Puts, so the
// steady state this guard measures does not exist under -race.

// TestInflateSteadyStateAllocation is the tier-1 guard against a return
// to a decompressor per chunk (~40 KB) and io.ReadAll's doubling: a
// steady-state Inflate allocates its output and little else.
func TestInflateSteadyStateAllocation(t *testing.T) {
	const rawSize = 6400
	stored := oneShotDeflate(t, chunkPayload(rawSize, 1), 6)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Inflate(stored, rawSize); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > rawSize+(4<<10) {
		t.Fatalf("Inflate allocates %d B/op in steady state, want <= raw size %d + 4 KB", got, rawSize)
	}
}

// TestCopyBoxAllocatesNothing: CopyBox's strides and index live on the
// stack, so scattering a chunk into a hyperslab costs no allocation.
func TestCopyBoxAllocatesNothing(t *testing.T) {
	src, dst := make([]byte, 4*6*6*4), make([]byte, 2*3*3*4)
	got := testing.AllocsPerRun(100, func() {
		CopyBox(dst, []int{2, 3, 3}, []int{0, 0, 0}, src, []int{4, 6, 6}, []int{1, 2, 3}, []int{2, 3, 3}, 4)
	})
	if got != 0 {
		t.Fatalf("CopyBox allocated %v times, want 0", got)
	}
}
