package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetReturnsWhatWasPut(t *testing.T) {
	var l List[[]byte]
	if s := l.Get(); s != nil {
		t.Fatalf("Get on an empty list = %v, want nil", s)
	}
	a, b := make([]byte, 0, 4), make([]byte, 0, 8)
	l.Put(a)
	l.Put(b)
	// Last in, first out, the same backing array as was kept.
	for _, want := range [][]byte{b, a} {
		got := l.Get()
		if cap(got) != cap(want) || &got[:1][0] != &want[:1][0] {
			t.Fatalf("Get = a buffer of cap %d, want the kept one of cap %d", cap(got), cap(want))
		}
	}
	if s := l.Get(); s != nil {
		t.Fatalf("Get on a drained list = %v, want nil", s)
	}
}

// held is a value that knows whether someone holds it.
type held struct {
	busy atomic.Bool
	uses int // written by the holder alone: the race detector sees sharing
}

// TestNoValueHeldTwice: goroutines Get, hold and Put concurrently, and
// no value is ever held by two at once. A List is also never larger than
// its peak number of concurrent holders: each goroutine holds one value
// at a time, so no more values than goroutines ever exist.
func TestNoValueHeldTwice(t *testing.T) {
	const goroutines, rounds = 8, 2000
	var l List[*held]
	var made atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := l.Get()
				if v == nil {
					v = new(held)
					made.Add(1)
				}
				if !v.busy.CompareAndSwap(false, true) {
					t.Error("a value was handed to two holders at once")
					return
				}
				v.uses++
				runtime.Gosched()
				v.busy.Store(false)
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	n := made.Load()
	if n > goroutines {
		t.Fatalf("%d values made for %d concurrent holders", n, goroutines)
	}
	uses := 0
	for i := int32(0); i < n; i++ {
		v := l.Get()
		if v == nil {
			t.Fatalf("the list keeps %d of %d values", i, n)
		}
		uses += v.uses
	}
	if v := l.Get(); v != nil || uses != goroutines*rounds {
		t.Fatalf("after %d values the list holds %p; they were used %d times, want %d",
			n, v, uses, goroutines*rounds)
	}
}
