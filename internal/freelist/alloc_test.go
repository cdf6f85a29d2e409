//go:build !race

package freelist

import (
	"runtime"
	"testing"
)

// Built without -race, whose instrumentation allocates on its own.

// TestWarmGetPutSurvivesGC: a kept slice and a kept pointer are still
// there after two garbage collections — which empty a sync.Pool, victim
// cache included — and a warm Get and Put of them allocates nothing.
func TestWarmGetPutSurvivesGC(t *testing.T) {
	var bufs List[[]uint32]
	var ptrs List[*[64]byte]
	buf, ptr := make([]uint32, 0, 64), new([64]byte)
	bufs.Put(buf)
	ptrs.Put(ptr)
	n := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		b, p := bufs.Get(), ptrs.Get()
		if cap(b) != cap(buf) || &b[:1][0] != &buf[:1][0] || p != ptr {
			t.Fatalf("after two collections Get = a buffer of cap %d and pointer %p, want the kept ones", cap(b), p)
		}
		bufs.Put(append(b, 1)[:0])
		ptrs.Put(p)
	})
	if n != 0 {
		t.Fatalf("a warm Get and Put allocated %.0f times, want 0", n)
	}
}
