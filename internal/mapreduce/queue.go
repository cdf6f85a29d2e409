package mapreduce

import "scidp/internal/cluster"

// localityQueue hands tasks to workers, preferring node-local splits,
// then (when the cluster has topology) rack-local and zone-local ones.
// Workers that find only remote-preferring tasks back off briefly before
// widening to the next tier and finally stealing (delay scheduling), so
// locality holds whenever nearby slots exist without risking starvation
// when they do not.
//
// Entries are indexed per preferred host, rack, and zone, so every pick
// is O(1) amortized instead of a scan of the whole queue (hot at large
// task counts). Each push wraps the task in a qnode stamped with a FIFO
// sequence number; taking a node marks it consumed in every list that
// references it, and heads are trimmed lazily. Selection order within a
// tier matches the old first-match scan: the live candidate with the
// lowest sequence wins. Drained index keys are deleted and consumed
// entries are compacted out once they outnumber live ones, so a
// long-running windowed phase holds O(window) queue state instead of
// accumulating one entry per task ever pushed.
type localityQueue struct {
	seq    uint64
	live   int
	dead   int                 // consumed qnodes still referenced by lists
	fifo   []*qnode            // every live node, FIFO — pickAny's view
	byHost map[string][]*qnode // nodes preferring each host
	byRack map[string][]*qnode // nodes preferring any host in each rack
	byZone map[string][]*qnode // nodes preferring any host in each zone
	noPref []*qnode            // nodes with no preference, eligible anywhere
	topo   *cluster.Cluster    // nil when the cluster is flat
	room   int                 // the first capacity of fifo and noPref
}

// qnode is one queued task entry. A task's first push uses Task.entry; a
// task requeued after a failure (or for a speculative backup) gets a fresh
// qnode with a fresh sequence, as its old one may still sit in a list.
// spec labels the entry, not the task: a backup and its straggling
// original can be queued at once, and a backup requeued after a failure
// or preemption is still the backup lineage.
type qnode struct {
	t     *Task
	seq   uint64
	spec  bool
	taken bool
}

// newLocalityQueue returns an empty queue for cl's tasks; the host index
// waits for the first push that names a host.
func newLocalityQueue(cl *cluster.Cluster, room int) localityQueue {
	q := localityQueue{room: room, fifo: make([]*qnode, 0, room)}
	if cl != nil && cl.HasTopology() {
		q.topo = cl
		q.byRack = map[string][]*qnode{}
		q.byZone = map[string][]*qnode{}
	}
	return q
}

// qhead trims consumed entries off the list's front and returns the
// trimmed list plus its first live entry (nil when none remain).
func qhead(list []*qnode) ([]*qnode, *qnode) {
	for len(list) > 0 && list[0].taken {
		list = list[1:]
	}
	if len(list) == 0 {
		return list, nil
	}
	return list, list[0]
}

// mapHead trims consumed entries off m[key] and returns its first live
// entry. A drained key is deleted outright: the maps must not retain one
// slowly-growing entry per host, rack, and zone a task ever preferred.
func mapHead(m map[string][]*qnode, key string) *qnode {
	if m == nil {
		return nil
	}
	list, n := qhead(m[key])
	if n == nil {
		delete(m, key)
		return nil
	}
	m[key] = list
	return n
}

// take consumes n everywhere it is indexed and returns it.
func (q *localityQueue) take(n *qnode) *qnode {
	n.taken = true
	q.live--
	q.dead++
	if q.dead > 256 && q.dead > 4*q.live {
		q.compact()
	}
	return n
}

// compact rewrites every list without its consumed entries. Amortized
// O(1) per take: it runs only once dead entries outnumber live ones 4:1,
// and resets the dead count to zero.
func (q *localityQueue) compact() {
	q.fifo = compactList(q.fifo)
	q.noPref = compactList(q.noPref)
	compactIndex(q.byHost)
	compactIndex(q.byRack)
	compactIndex(q.byZone)
	q.dead = 0
}

func compactList(list []*qnode) []*qnode {
	out := list[:0]
	for _, n := range list {
		if !n.taken {
			out = append(out, n)
		}
	}
	// Nil the tail so consumed nodes are collectable.
	tail := list[len(out):cap(list)]
	for i := range tail {
		tail[i] = nil
	}
	return out
}

func compactIndex(m map[string][]*qnode) {
	for key, list := range m {
		if trimmed := compactList(list); len(trimmed) == 0 {
			delete(m, key)
		} else {
			m[key] = trimmed
		}
	}
}

// pickPreferred removes and returns the earliest-queued entry that is
// filed under key in m — the host, rack or zone index — or has no
// preference at all; nil when every queued task prefers somewhere else.
// The earliest entry under key races the no-preference head, so selection
// stays global-FIFO among eligible candidates.
func (q *localityQueue) pickPreferred(m map[string][]*qnode, key string) *qnode {
	hn := mapHead(m, key)
	var nn *qnode
	q.noPref, nn = qhead(q.noPref)
	switch {
	case hn == nil && nn == nil:
		return nil
	case hn == nil:
		return q.take(nn)
	case nn == nil:
		return q.take(hn)
	case nn.seq < hn.seq:
		return q.take(nn)
	default:
		return q.take(hn)
	}
}

// pickAny removes and returns the head entry regardless of preference.
func (q *localityQueue) pickAny() *qnode {
	var n *qnode
	q.fifo, n = qhead(q.fifo)
	if n == nil {
		return nil
	}
	return q.take(n)
}

// push queues t; spec marks the entry as a speculative backup.
func (q *localityQueue) push(t *Task, spec bool) {
	q.seq++
	n := &t.entry
	if n.t != nil {
		n = new(qnode)
	}
	*n = qnode{t: t, seq: q.seq, spec: spec}
	q.fifo = append(q.fifo, n)
	if len(t.Locations) == 0 {
		if q.noPref == nil {
			q.noPref = make([]*qnode, 0, q.room)
		}
		q.noPref = append(q.noPref, n)
	} else {
		if q.byHost == nil {
			q.byHost = map[string][]*qnode{}
		}
		for _, h := range t.Locations {
			q.byHost[h] = append(q.byHost[h], n)
		}
		if q.topo != nil {
			q.indexTopo(n, t.Locations)
		}
	}
	q.live++
}

// indexTopo files n under the rack and zone of each preferred host.
// Within one push the only appends to a given rack/zone list are n
// itself, so a tail check dedups replicas sharing a domain without
// allocating a set.
func (q *localityQueue) indexTopo(n *qnode, locs []string) {
	for _, h := range locs {
		pl := q.topo.Place(h)
		if pl.Rack != "" && !endsWith(q.byRack[pl.Rack], n) {
			q.byRack[pl.Rack] = append(q.byRack[pl.Rack], n)
		}
		if pl.Zone != "" && !endsWith(q.byZone[pl.Zone], n) {
			q.byZone[pl.Zone] = append(q.byZone[pl.Zone], n)
		}
	}
}

func endsWith(list []*qnode, n *qnode) bool {
	return len(list) > 0 && list[len(list)-1] == n
}
