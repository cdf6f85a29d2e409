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
	held    []token // live tokens, acquisition order
}

// token is one live attempt's slot and whether the scheduler revoked it.
type token struct {
	id     uint64
	killed bool
}

// Available implements mapreduce.SlotLease: a slot is free while the
// held-token count (revoked-but-not-yet-released ones included — they
// still occupy engine slots) is under the grant.
func (l *Lease) Available() bool { return len(l.held) < l.granted }

// Acquire implements mapreduce.SlotLease.
func (l *Lease) Acquire() uint64 {
	l.next++
	l.held = append(l.held, token{id: l.next})
	return l.next
}

// Release implements mapreduce.SlotLease.
func (l *Lease) Release(id uint64) {
	for i, tok := range l.held {
		if tok.id == id {
			l.held = append(l.held[:i], l.held[i+1:]...)
			return
		}
	}
}

// Killed implements mapreduce.SlotLease. It scans the held tokens, at
// most the job's slots; a released token is not held, so not killed.
func (l *Lease) Killed(id uint64) bool {
	for _, tok := range l.held {
		if tok.id == id {
			return tok.killed
		}
	}
	return false
}

// Granted returns the current grant.
func (l *Lease) Granted() int { return l.granted }

// setGranted moves the grant to n, revoking the newest surviving tokens
// while more than n remain, and returns how many it revoked.
func (l *Lease) setGranted(n int) (kills int) {
	l.granted = n
	surviving := 0
	for _, tok := range l.held {
		if !tok.killed {
			surviving++
		}
	}
	for i := len(l.held) - 1; i >= 0 && surviving > n; i-- {
		if l.held[i].killed {
			continue
		}
		l.held[i].killed = true
		surviving--
		kills++
	}
	return kills
}
