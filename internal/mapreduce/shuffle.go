package mapreduce

import (
	"fmt"
	"slices"

	"scidp/internal/cluster"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// shuffle is the job's intermediate state between its two stages. The
// write side is a mapOut per map task: emit partitions pairs into
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

	outs    []*mapOut // per map task in mint order; nil until it commits
	mapOnly []KV      // committed map-only output
	final   [][]KV    // per reducer, committed reduce output
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

// mapOut is one map attempt's output: per reducer a bucket and its
// shuffle byte count, or — for a map-only job — the pairs themselves.
type mapOut struct {
	sh      *shuffle
	node    *cluster.Node
	buckets [][]KV
	bytes   []int64
	local   []KV
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
// an attempt-local mapOut, seal it, and publish it only on commit.
func (sh *shuffle) mapTask(tc *TaskContext, i int, s *Split) (func(), error) {
	mo := &mapOut{sh: sh, node: tc.node}
	if sh.reducers > 0 {
		mo.buckets = make([][]KV, sh.reducers)
		mo.bytes = make([]int64, sh.reducers)
	}
	tc.emit = mo.emit
	err := sh.j.Input.ForEach(tc, s, func(key string, value any) error {
		return sh.j.Map(tc, key, value)
	})
	if err == nil {
		err = mo.seal(tc)
	}
	if err != nil {
		return nil, err
	}
	return func() {
		if sh.reducers > 0 {
			sh.outs[i] = mo
		}
		sh.mapOnly = append(sh.mapOnly, mo.local...)
	}, nil
}

// emit routes one pair to its reducer's bucket and touches nothing else:
// map functions may call it from concurrent data-plane closures as long
// as each closure feeds its own reducers.
func (mo *mapOut) emit(kv KV) {
	sh := mo.sh
	if sh.reducers == 0 {
		mo.local = append(mo.local, kv)
		return
	}
	b := sh.partition(kv.K, sh.reducers)
	bkt := mo.buckets[b]
	if bkt == nil {
		bkt = getKVBuf()
	}
	mo.buckets[b] = append(bkt, kv)
	mo.bytes[b] += sh.pairBytes(kv)
}

// seal leaves every bucket a sorted run. Buckets sort independently on
// the data plane: fork-join within the task, and across map tasks in
// flight at the same virtual instant the closures overlap on the pool's
// workers. A combiner then folds each run in place, shrinking what the
// shuffle must move; its passes stay on the kernel thread, because user
// combiners may Charge virtual time or read shared state.
func (mo *mapOut) seal(tc *TaskContext) error {
	futs := make([]*sim.Future, 0, len(mo.buckets))
	for _, bkt := range mo.buckets {
		if len(bkt) > 1 {
			futs = append(futs, tc.proc.Compute(func() { sortRun(bkt) }))
		}
	}
	tc.proc.Await(futs...)
	if mo.sh.j.Combine == nil {
		return nil
	}
	vals := getVals()
	defer putVals(vals)
	for b, pairs := range mo.buckets {
		if len(pairs) < 2 {
			continue
		}
		combined := getKVBuf()
		var combinedBytes int64
		tc.emit = func(kv KV) {
			combined = append(combined, kv)
			combinedBytes += mo.sh.pairBytes(kv)
		}
		spans := runSpans(pairs)
		err := eachGroupSpans([][]KV{pairs}, [][]uint32{spans}, vals, func(key string, vs []any) error {
			return mo.sh.j.Combine(tc, key, vs)
		})
		putSpanBuf(spans)
		if err != nil {
			return err
		}
		// The combiner consumes groups in key order, so its output is
		// normally sorted already: sortRun's scan, not a re-sort.
		sortRun(combined)
		mo.buckets[b] = combined
		mo.bytes[b] = combinedBytes
		putKVBuf(pairs)
	}
	return nil
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
	runs := make([][]KV, 0, len(sh.outs))
	for _, mo := range sh.outs {
		if mo == nil {
			continue
		}
		if len(mo.buckets[r]) > 0 {
			runs = append(runs, mo.buckets[r])
		}
		if mo.node != tc.node && mo.bytes[r] > 0 {
			parts = append(parts, sim.Part{
				Bytes: float64(mo.bytes[r]),
				Res:   sh.j.Cluster.NetPath(mo.node, tc.node),
			})
			sh.res.ShuffleBytes += mo.bytes[r]
			sh.moved.Add(float64(mo.bytes[r]))
		}
	}
	// Per-run prefetch: index each run's group boundaries on the data
	// plane while the shuffle's flows drain, joining after the transfer
	// completes.
	spans := make([][]uint32, len(runs))
	futs := make([]*sim.Future, len(runs))
	for i := range runs {
		futs[i] = tc.proc.Compute(func() { spans[i] = runSpans(runs[i]) })
	}
	tc.Phase("Shuffle", func() { tc.proc.TransferAll(parts...) })
	tc.proc.Await(futs...)
	// Streaming sort-merge: span-level k-way heap merge over the indexed
	// runs, grouped values reaching Reduce through a pooled buffer (valid
	// only for the duration of each call).
	groups := 0
	for _, sp := range spans {
		groups += len(sp)
	}
	local := make([]KV, 0, groups)
	tc.emit = func(kv KV) { local = append(local, kv) }
	vals := getVals()
	defer putVals(vals)
	err := eachGroupSpans(runs, spans, vals, func(key string, vs []any) error {
		return sh.j.Reduce(tc, key, vs)
	})
	for i := range spans {
		putSpanBuf(spans[i])
	}
	if err != nil {
		return nil, err
	}
	return func() { sh.final[r] = local }, nil
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
			putKVBuf(mo.buckets[b])
			mo.buckets[b] = nil
		}
	}
	return slices.Concat(sh.final...)
}
