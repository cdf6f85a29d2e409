package tenant

// Lease is the scheduler's per-job slot grant, implementing
// mapreduce.SlotLease. The MapReduce engine acquires one token per task
// attempt and polls Killed between compute quanta; the scheduler moves
// the grant up and down from tick events (both sides run on the kernel
// thread, so there is no locking). Shrinking the grant below the live
// token count revokes the newest tokens first — the attempts that have
// sunk the least work.
type Lease struct {
	granted int
	next    uint64
	held    []uint64 // live tokens, acquisition order
	killed  map[uint64]bool
	// maxHeld is the high-water mark of concurrently held tokens, for
	// the within-quota audit.
	maxHeld int
}

func newLease() *Lease { return &Lease{killed: map[uint64]bool{}} }

// Available implements mapreduce.SlotLease: a slot is free while the
// held-token count (revoked-but-not-yet-released ones included — they
// still occupy engine slots) is under the grant.
func (l *Lease) Available() bool { return len(l.held) < l.granted }

// Acquire implements mapreduce.SlotLease.
func (l *Lease) Acquire() uint64 {
	l.next++
	l.held = append(l.held, l.next)
	if len(l.held) > l.maxHeld {
		l.maxHeld = len(l.held)
	}
	return l.next
}

// Release implements mapreduce.SlotLease.
func (l *Lease) Release(token uint64) {
	delete(l.killed, token)
	for i, tok := range l.held {
		if tok == token {
			l.held = append(l.held[:i], l.held[i+1:]...)
			return
		}
	}
}

// Killed implements mapreduce.SlotLease.
func (l *Lease) Killed(token uint64) bool { return l.killed[token] }

// Granted returns the current grant.
func (l *Lease) Granted() int { return l.granted }

// setGranted moves the grant to n, revoking the newest surviving tokens
// while more than n remain, and returns how many it revoked.
func (l *Lease) setGranted(n int) (kills int) {
	l.granted = n
	surviving := 0
	for _, tok := range l.held {
		if !l.killed[tok] {
			surviving++
		}
	}
	for i := len(l.held) - 1; i >= 0 && surviving > n; i-- {
		tok := l.held[i]
		if l.killed[tok] {
			continue
		}
		l.killed[tok] = true
		surviving--
		kills++
	}
	return kills
}
