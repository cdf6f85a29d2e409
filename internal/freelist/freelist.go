// Package freelist keeps reusable buffers between calls: decode state,
// sort indexes, run buffers and codec scratch that a call draws, uses and
// gives back for the next caller.
//
// A List is a mutex and a stack of values. It stores each value as it
// is, so a kept slice needs no box and a warm Get and Put allocate
// nothing. Unlike a sync.Pool, which a garbage collection empties, a List
// keeps every value it is given and never shrinks: it holds at most the
// buffers of its peak number of concurrent holders, and a run pays for a
// buffer once per concurrent holder, not again after each collection.
//
// Which value a Get returns depends on the order of earlier Puts, so a
// holder overwrites whatever it reads of a value before relying on it.
package freelist

import "sync"

// List is a free list of T. The zero List is empty and ready to use; a
// List is safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get removes and returns the most recently kept value, or T's zero value
// (a nil pointer or slice) when the list is empty.
func (l *List[T]) Get() T {
	var v T
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v = l.free[n-1]
		l.free[n-1] = *new(T) // the holder owns it now: do not pin it here
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v
}

// Put keeps v for a later Get. The caller gives v up: it must not use v
// after the call.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
