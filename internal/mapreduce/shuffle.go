package mapreduce

import (
	"fmt"
	"slices"

	"scidp/internal/cluster"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// shuffle is the job's intermediate state between its two stages. The
// write side is a taskOut per map task: emit partitions pairs into
// per-reducer buckets and seal sorts each bucket once, so reducers k-way
// merge runs instead of re-sorting. The read side is reduceTask: fetch
// reducer r's run from every map task, index the runs while the flows
// drain, merge.
type shuffle struct {
	j         *Job
	res       *Result
	reducers  int // 0 = map-only: map output is the job output
	partition func(key string, reducers int) int
	pairBytes func(kv KV) int64
	moved     *obs.Counter // mr/shuffle_bytes_total (nil without Job.Obs)

	outs    []*taskOut // per map task in mint order; nil until it commits
	mapOnly []KV       // committed map-only output
	final   [][]KV     // per reducer, committed reduce output
}

func newShuffle(j *Job, res *Result) *shuffle {
	sh := &shuffle{j: j, res: res, reducers: j.NumReducers, partition: j.Partition, pairBytes: j.PairBytes}
	if j.Reduce == nil {
		sh.reducers = 0
	} else if sh.reducers <= 0 {
		sh.reducers = 1
	}
	if sh.partition == nil {
		sh.partition = defaultPartition
	}
	if sh.pairBytes == nil {
		sh.pairBytes = func(kv KV) int64 { return int64(len(kv.K)) + 16 }
	}
	sh.final = make([][]KV, sh.reducers)
	return sh
}

// taskOut is one task attempt's output: a map attempt's bucket per
// reducer, or — for a reduce attempt or a map-only job's map — the pairs.
type taskOut struct {
	sh      *shuffle
	node    *cluster.Node
	buckets []bucket
	local   []KV
}

// bucket is one reducer's share of a map attempt: a run and its shuffle
// byte count.
type bucket struct {
	run   []KV
	bytes int64
}

// mapFeed mints one map task per split, on demand: the stage pulls at
// most SplitWindow ahead of the slots draining them.
func (sh *shuffle) mapFeed(src SplitSource) func(*sim.Proc) (*Task, error) {
	return func(rp *sim.Proc) (*Task, error) {
		s, err := src.Next(rp)
		if err != nil || s == nil {
			return nil, err
		}
		i := len(sh.outs)
		if sh.reducers > 0 {
			sh.outs = append(sh.outs, nil)
		}
		return &Task{Label: s.Label, Locations: s.Locations, Run: func(tc *TaskContext) (func(), error) {
			return sh.mapTask(tc, i, s)
		}}, nil
	}
}

// mapTask is one map attempt: read the split through the user's Map into
// an attempt-local taskOut, seal it, and publish it only on commit.
func (sh *shuffle) mapTask(tc *TaskContext, i int, s *Split) (func(), error) {
	mo := &taskOut{sh: sh, node: tc.node}
	if sh.reducers > 0 {
		mo.buckets = make([]bucket, sh.reducers)
	}
	tc.out = mo
	err := sh.j.Input.ForEach(tc, s, func(key string, value any) error {
		return sh.j.Map(tc, key, value)
	})
	if err != nil {
		return nil, err
	}
	mo.seal(tc)
	return func() {
		if sh.reducers > 0 {
			sh.outs[i] = mo
		}
		sh.mapOnly = append(sh.mapOnly, mo.local...)
	}, nil
}

// emit routes one pair to its reducer's bucket, or onto the attempt's
// pairs, and touches nothing else: map functions may call it from
// concurrent data-plane closures as long as each feeds its own reducers.
func (mo *taskOut) emit(kv KV) {
	if mo.buckets == nil {
		mo.local = append(mo.local, kv)
		return
	}
	sh := mo.sh
	b := &mo.buckets[sh.partition(kv.K, sh.reducers)]
	if b.run == nil {
		b.run = kvBufs.Get()
	}
	b.run = append(b.run, kv)
	b.bytes += sh.pairBytes(kv)
}

// seal leaves every bucket a sorted run. Buckets sort independently on
// the data plane: fork-join within the task, and across map tasks in
// flight at the same virtual instant the closures overlap on the pool's
// workers.
func (mo *taskOut) seal(tc *TaskContext) {
	futs := make([]*sim.Future, 0, 8) // on the stack up to eight buckets
	for _, b := range mo.buckets {
		if run := b.run; len(run) > 1 {
			futs = append(futs, tc.proc.Compute(func() { sortRun(run) }))
		}
	}
	tc.proc.Await(futs...)
}

// reduceFeed mints the reduce wave: reducer r pulls bucket r from every
// map task, and prefers the node the partition hashes to.
func (sh *shuffle) reduceFeed() func(*sim.Proc) (*Task, error) {
	nodes := sh.j.Cluster.Nodes
	r := 0
	return func(*sim.Proc) (*Task, error) {
		if r >= sh.reducers {
			return nil, nil
		}
		i := r
		r++
		return &Task{Label: fmt.Sprintf("reduce-%d", i), Locations: []string{nodes[i%len(nodes)].Name},
			Run: func(tc *TaskContext) (func(), error) { return sh.reduceTask(tc, i) }}, nil
	}
}

// reduceTask is one reduce attempt: shuffle, merge, Reduce.
func (sh *shuffle) reduceTask(tc *TaskContext, r int) (func(), error) {
	// Shuffle: fetch this reducer's sorted runs, in map-task order (the
	// merge's stability tie-break). ShuffleBytes accrues per attempt, not
	// at commit — a retried reducer really does re-fetch its runs over
	// the fabric.
	var parts []sim.Part
	cursors := make([]spanCursor, 0, len(sh.outs)) // one a non-empty run
	for _, mo := range sh.outs {
		if mo == nil {
			continue
		}
		b := &mo.buckets[r]
		if len(b.run) > 0 {
			cursors = append(cursors, spanCursor{kvs: b.run, idx: len(cursors)})
		}
		if mo.node != tc.node && b.bytes > 0 {
			parts = append(parts, sim.Part{
				Bytes: float64(b.bytes),
				Res:   sh.j.Cluster.NetPath(mo.node, tc.node),
			})
			sh.res.ShuffleBytes += b.bytes
			sh.moved.Add(float64(b.bytes))
		}
	}
	// Per-run prefetch: index each run's group boundaries on the data
	// plane while the shuffle's flows drain, joining after the transfer
	// completes.
	futs := make([]*sim.Future, 0, 8) // on the stack up to eight runs
	for i := range cursors {
		c := &cursors[i]
		futs = append(futs, tc.proc.Compute(func() {
			c.ends = runSpans(c.kvs, spanBufs.Get())
		}))
	}
	tc.Phase("Shuffle", func() { tc.proc.TransferAll(parts...) })
	tc.proc.Await(futs...)
	// Streaming sort-merge: span-level k-way heap merge over the indexed
	// runs, grouped values reaching Reduce through a reused buffer (valid
	// only for the duration of each call).
	groups := 0
	for i := range cursors {
		groups += len(cursors[i].ends)
	}
	out := &taskOut{local: make([]KV, 0, groups)}
	tc.out = out
	vals, err := eachGroupSpans(cursors, valBufs.Get(), func(key string, vs []any) error {
		return sh.j.Reduce(tc, key, vs)
	})
	putCleared(&valBufs, vals)
	for i := range cursors {
		spanBufs.Put(cursors[i].ends[:0])
	}
	if err != nil {
		return nil, err
	}
	return func() { sh.final[r] = out.local }, nil
}

// output assembles the committed job output and, once the reduce wave has
// consumed every run, recycles their buffers for the next wave or job.
func (sh *shuffle) output() []KV {
	if sh.reducers == 0 {
		return sh.mapOnly
	}
	for _, mo := range sh.outs {
		if mo == nil {
			continue
		}
		for b := range mo.buckets {
			putCleared(&kvBufs, mo.buckets[b].run)
			mo.buckets[b].run = nil
		}
	}
	return slices.Concat(sh.final...)
}
