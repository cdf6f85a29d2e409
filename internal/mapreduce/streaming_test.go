package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/sim"
)

// streamInput is a StreamingInput that mints splits on demand and records
// how far the engine pulled ahead of completed reads — the lazy-window
// contract under test. Splits must never be called on it.
type streamInput struct {
	total   int
	line    string
	failAt  int // >0: Next errors after this many pulls
	pulled  int
	done    int // splits fully read
	maxLive int // max pulled-but-unread splits observed
	eager   bool
}

func (s *streamInput) Splits(p *sim.Proc) ([]*Split, error) {
	if !s.eager {
		return nil, errors.New("Splits called on a StreamingInput")
	}
	var splits []*Split
	for i := 0; i < s.total; i++ {
		splits = append(splits, &Split{Label: fmt.Sprintf("st%d", i), Payload: s.line})
	}
	return splits, nil
}

func (s *streamInput) SplitSource(p *sim.Proc) (SplitSource, error) { return s, nil }

func (s *streamInput) Next(p *sim.Proc) (*Split, error) {
	if s.failAt > 0 && s.pulled == s.failAt {
		return nil, errors.New("stream broke")
	}
	if s.pulled >= s.total {
		return nil, nil
	}
	i := s.pulled
	s.pulled++
	if live := s.pulled - s.done; live > s.maxLive {
		s.maxLive = live
	}
	return &Split{Label: fmt.Sprintf("st%d", i), Payload: s.line}, nil
}

func (s *streamInput) ForEach(tc *TaskContext, sp *Split, fn func(key string, value any) error) error {
	tc.Charge("Read", 0.05)
	if err := fn(sp.Label, sp.Payload.(string)); err != nil {
		return err
	}
	s.done++
	return nil
}

func streamJob(k *sim.Kernel, in InputFormat, nodes, slots, reducers, window int) *Job {
	j := wordCountJob(k, in, nodes, slots, reducers)
	j.Input = in
	j.SplitWindow = window
	return j
}

func TestStreamingWindowBoundsOutstandingSplits(t *testing.T) {
	k := sim.NewKernel()
	in := &streamInput{total: 200, line: "a b"}
	res := runJob(t, k, streamJob(k, in, 2, 2, 2, 16))
	if in.pulled != 200 || in.done != 200 {
		t.Fatalf("pulled %d done %d, want 200/200", in.pulled, in.done)
	}
	// The engine may hold a full window queued plus one task per slot in
	// flight; anything past that means splits were materialized eagerly.
	if limit := 16 + 2*2 + 1; in.maxLive > limit {
		t.Fatalf("engine ran %d splits ahead, want <= %d", in.maxLive, limit)
	}
	want := map[string]int{"a": 200, "b": 200}
	for _, kv := range res.Output {
		if kv.V.(int) != want[kv.K] {
			t.Errorf("%s = %v, want %d", kv.K, kv.V, want[kv.K])
		}
	}
	if len(res.MapStats) != 200 {
		t.Fatalf("map stats = %d, want 200", len(res.MapStats))
	}
}

func TestStreamingMatchesEagerInput(t *testing.T) {
	run := func(eager bool) *Result {
		k := sim.NewKernel()
		in := &streamInput{total: 40, line: "x y z", eager: eager}
		var j *Job
		if eager {
			// Route around the StreamingInput interface so the engine
			// takes the Splits path with identical data.
			j = streamJob(k, eagerOnly{in}, 3, 2, 2, 0)
		} else {
			j = streamJob(k, in, 3, 2, 2, 0)
		}
		return runJob(t, k, j)
	}
	se, le := run(false), run(true)
	if se.Elapsed() != le.Elapsed() {
		t.Fatalf("streaming elapsed %v != eager elapsed %v", se.Elapsed(), le.Elapsed())
	}
	if len(se.Output) != len(le.Output) {
		t.Fatalf("output sizes differ: %d vs %d", len(se.Output), len(le.Output))
	}
	for i := range se.Output {
		if se.Output[i] != le.Output[i] {
			t.Fatalf("output[%d]: %+v vs %+v", i, se.Output[i], le.Output[i])
		}
	}
}

// eagerOnly hides the StreamingInput methods of the wrapped format.
type eagerOnly struct{ in *streamInput }

func (e eagerOnly) Splits(p *sim.Proc) ([]*Split, error) { return e.in.Splits(p) }
func (e eagerOnly) ForEach(tc *TaskContext, s *Split, fn func(key string, value any) error) error {
	return e.in.ForEach(tc, s, fn)
}

func TestStreamingErrorMidwayFailsJob(t *testing.T) {
	k := sim.NewKernel()
	in := &streamInput{total: 100, line: "a", failAt: 20}
	job := streamJob(k, in, 2, 2, 1, 8)
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = job.Run(p)
	})
	k.Run()
	if err == nil || !strings.Contains(err.Error(), "stream broke") {
		t.Fatalf("err = %v, want stream broke", err)
	}
}

func topoCluster(k *sim.Kernel, nodes, slots, perRack, racksPerZone int) *cluster.Cluster {
	return cluster.New(k, "bd", cluster.Config{
		Nodes: nodes, SlotsPerNode: slots,
		DiskBW: 1e6, NICBW: 1e6, FabricBW: 1e6,
		NodesPerRack: perRack, RacksPerZone: racksPerZone,
	})
}

// TestRackLocalityEscalation: two splits pinned to bd-0 on a 4-node,
// 2-per-rack cluster with one slot each. bd-0 runs one; its rack mate
// bd-1 picks the other after 3 delay beats (0.6 s), well before the other
// rack's steal threshold (6 beats) — so both tasks stay on rack 0.
func TestRackLocalityEscalation(t *testing.T) {
	k := sim.NewKernel()
	in := &memInput{readCost: 2.0}
	for i := 0; i < 2; i++ {
		in.splits = append(in.splits, &Split{
			Label: fmt.Sprintf("pin-%d", i), Payload: []string{"a"},
			Locations: []string{"bd-0"},
		})
	}
	job := wordCountJob(k, in, 4, 1, 1)
	job.Cluster = topoCluster(k, 4, 1, 2, 0)
	res := runJob(t, k, job)
	nodes := map[string]bool{}
	for _, ts := range res.MapStats {
		nodes[ts.Node] = true
	}
	if !nodes["bd-0"] || !nodes["bd-1"] || len(nodes) != 2 {
		t.Fatalf("tasks ran on %v, want exactly {bd-0, bd-1} (rack-local pickup)", nodes)
	}
}

// TestZoneLocalityEscalation: one node per rack, two racks per zone. The
// zone mate (bd-1) reaches its zone tier at 6 beats while out-of-zone
// nodes cannot steal before 9 — the second pinned task must land on bd-1.
func TestZoneLocalityEscalation(t *testing.T) {
	k := sim.NewKernel()
	in := &memInput{readCost: 3.0}
	for i := 0; i < 2; i++ {
		in.splits = append(in.splits, &Split{
			Label: fmt.Sprintf("pin-%d", i), Payload: []string{"a"},
			Locations: []string{"bd-0"},
		})
	}
	job := wordCountJob(k, in, 4, 1, 1)
	job.Cluster = topoCluster(k, 4, 1, 1, 2)
	res := runJob(t, k, job)
	nodes := map[string]bool{}
	for _, ts := range res.MapStats {
		nodes[ts.Node] = true
	}
	if !nodes["bd-0"] || !nodes["bd-1"] || len(nodes) != 2 {
		t.Fatalf("tasks ran on %v, want exactly {bd-0, bd-1} (zone-local pickup)", nodes)
	}
}

// TestQueueCompaction drains a large pushed set and checks consumed
// entries do not accumulate: lists stay near the live count and drained
// index keys disappear.
func TestQueueCompaction(t *testing.T) {
	q := newLocalityQueue(nil, 4)
	const n = 20000
	for i := 0; i < n; i++ {
		q.push(&Task{index: i, Locations: []string{fmt.Sprintf("h%d", i%7)}}, false)
	}
	for i := 0; i < n; i++ {
		var got *qnode
		if i%2 == 0 {
			got = q.pickPreferred(q.byHost, fmt.Sprintf("h%d", i%7))
		}
		if got == nil {
			got = q.pickAny()
		}
		if got == nil {
			t.Fatalf("queue empty after %d picks, want %d", i, n)
		}
	}
	if q.live != 0 {
		t.Fatalf("live = %d after draining", q.live)
	}
	if len(q.fifo) > 4*256 {
		t.Fatalf("fifo retains %d consumed entries", len(q.fifo))
	}
	// Only the last sub-threshold batch of consumed entries may linger in
	// the host index; the old queue kept one entry per task forever.
	residual := 0
	for _, list := range q.byHost {
		residual += len(list)
	}
	if residual > 256 {
		t.Fatalf("byHost retains %d consumed entries: leak", residual)
	}
}

// TestDrainedHostKeyDeleted is the narrow regression test for the old
// leak: a host's index entry must vanish once its queued tasks drain.
func TestDrainedHostKeyDeleted(t *testing.T) {
	q := newLocalityQueue(nil, 4)
	q.push(&Task{Locations: []string{"h1"}}, false)
	if q.pickPreferred(q.byHost, "h1") == nil {
		t.Fatal("the host pick missed the pushed task")
	}
	if q.pickPreferred(q.byHost, "h1") != nil {
		t.Fatal("queue should be empty")
	}
	if _, ok := q.byHost["h1"]; ok {
		t.Fatal("drained byHost entry not deleted")
	}
}

// TestPermanentFailureStopsTheFeed: once a task has failed for good the
// job's answer is known, so the stage must stop minting splits and drop
// what is queued but unstarted instead of running the rest of the input.
func TestPermanentFailureStopsTheFeed(t *testing.T) {
	k := sim.NewKernel()
	in := &streamInput{total: 5000, line: "a"}
	job := streamJob(k, in, 2, 2, 1, 16)
	job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
		if phase == "map" && task == 0 {
			return errors.New("dead"), 1
		}
		return nil, 1
	})
	var err error
	k.Go("driver", func(p *sim.Proc) { _, err = job.Run(p) })
	k.Run()
	if err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("err = %v, want dead", err)
	}
	if limit := 16 + 2*2 + 1; in.pulled > limit {
		t.Fatalf("pulled %d splits (done %d, virtual %.1f s) after task 0 failed for good, want <= %d",
			in.pulled, in.done, k.Now(), limit)
	}
}
