//go:build !race

package ioengine

import "testing"

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
