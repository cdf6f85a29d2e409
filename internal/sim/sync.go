package sim

// WaitGroup waits for a collection of simulated activities to finish,
// mirroring sync.WaitGroup in virtual time.
type WaitGroup struct {
	k       *Kernel
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group.
func (k *Kernel) NewWaitGroup() *WaitGroup { return &WaitGroup{k: k} }

// Add increments the pending-activity counter by n.
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		w.release()
	}
}

// Done decrements the counter by one, waking all waiters when it hits zero.
func (w *WaitGroup) Done() { w.Add(-1) }

func (w *WaitGroup) release() {
	for _, p := range w.waiters {
		w.k.wake(w.k.now, p)
	}
	clear(w.waiters)
	w.waiters = w.waiters[:0]
}

// Wait blocks the process until the counter reaches zero. A zero counter
// returns immediately.
func (p *Proc) Wait(w *WaitGroup) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.pause()
}

// Queue is an unbounded FIFO channel between simulated processes; a shuffle
// stream between map and reduce tasks, a request queue at a metadata
// server.
type Queue struct {
	k      *Kernel
	items  []any
	closed bool
	recvQ  []*Proc
}

// NewQueue returns an empty open queue.
func (k *Kernel) NewQueue() *Queue { return &Queue{k: k} }

// Push appends an item and wakes the longest-waiting receiver, if any.
// Pushing to a closed queue panics.
func (q *Queue) Push(v any) {
	if q.closed {
		panic("sim: push to closed queue")
	}
	q.items = append(q.items, v)
	q.wakeOne()
}

// Close marks the queue complete; blocked and future receivers observe
// ok=false once the backlog drains.
func (q *Queue) Close() {
	q.closed = true
	for _, p := range q.recvQ {
		q.k.wake(q.k.now, p)
	}
	q.recvQ = nil
}

func (q *Queue) wakeOne() {
	if len(q.recvQ) == 0 {
		return
	}
	p := q.recvQ[0]
	q.recvQ = q.recvQ[1:]
	q.k.wake(q.k.now, p)
}

// Pop blocks the process until an item is available or the queue is closed
// and empty, in which case it returns (nil, false).
func (p *Proc) Pop(q *Queue) (any, bool) {
	for {
		if len(q.items) > 0 {
			v := q.items[0]
			q.items = q.items[1:]
			return v, true
		}
		if q.closed {
			return nil, false
		}
		q.recvQ = append(q.recvQ, p)
		p.pause()
	}
}
