package ioengine

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"scidp/internal/sim"
)

// stubTopo is a two-rack topology over nodes n0..n3 (n0,n1 in rack a;
// n2,n3 in rack b) with free transfer paths.
type stubTopo struct{}

func (stubTopo) PeerPathByName(src, dst string) []*sim.Resource { return nil }

func (stubTopo) Distance(src, dst string) int {
	if src == dst {
		return 0
	}
	rack := func(n string) string {
		if n == "n0" || n == "n1" {
			return "a"
		}
		return "b"
	}
	if rack(src) == rack(dst) {
		return 1
	}
	return 3
}

func tierNodes(t *Tier, names ...string) {
	for _, n := range names {
		t.Register(n, t.cfg.NodeBytes)
	}
}

// held reports whether node's buffer holds key, touching no counter and
// no recency.
func held(t *Tier, node, key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buffers[node]
	return b != nil && b.entries[key] != nil
}

// residency returns a deterministic dump of every buffer's keys — the
// comparison artifact for the same-seed determinism test.
func residency(t *Tier) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := ""
	for _, n := range slices.Sorted(maps.Keys(t.buffers)) {
		out += fmt.Sprintf("%s:%v;", n, slices.Sorted(maps.Keys(t.buffers[n].entries)))
	}
	return out
}

// TestTierCapacityNeverExceeded drives both policies with a seeded
// random admit stream and asserts no buffer ever exceeds its capacity.
func TestTierCapacityNeverExceeded(t *testing.T) {
	for _, policy := range []string{PolicyLRU, PolicyCost} {
		t.Run(policy, func(t *testing.T) {
			const capBytes = 1000
			tier := NewTier(TierConfig{NodeBytes: capBytes, Policy: policy}, stubTopo{}, nil)
			tierNodes(tier, "n0", "n1", "n2", "n3")
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5000; i++ {
				node := fmt.Sprintf("n%d", rng.Intn(4))
				key := fmt.Sprintf("k%d", rng.Intn(200))
				size := 1 + rng.Intn(400)
				stored := 1 + rng.Intn(size)
				tier.Admit(node, key, make([]byte, size), int64(stored))
				tier.mu.Lock()
				for _, b := range tier.buffers {
					if b.bytes > b.cap {
						tier.mu.Unlock()
						t.Fatalf("op %d: buffer %s holds %d > cap %d", i, b.name, b.bytes, b.cap)
					}
					var sum int64
					for _, e := range b.entries {
						sum += int64(len(e.val))
					}
					if sum != b.bytes {
						tier.mu.Unlock()
						t.Fatalf("op %d: buffer %s accounting %d != actual %d", i, b.name, b.bytes, sum)
					}
				}
				tier.mu.Unlock()
			}
			st := tier.Stats()
			if st.Admits == 0 || st.Evictions == 0 {
				t.Fatalf("stream did not exercise admit+evict: %+v", st)
			}
		})
	}
}

// TestTierVictimDeterminism replays one seeded op sequence through two
// tiers and requires byte-identical residency and stats — victim
// selection must not depend on map iteration order.
func TestTierVictimDeterminism(t *testing.T) {
	for _, policy := range []string{PolicyLRU, PolicyCost} {
		t.Run(policy, func(t *testing.T) {
			run := func() (string, TierStats) {
				tier := NewTier(TierConfig{NodeBytes: 600, Policy: policy}, stubTopo{}, nil)
				tierNodes(tier, "n0", "n1")
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < 2000; i++ {
					node := fmt.Sprintf("n%d", rng.Intn(2))
					key := fmt.Sprintf("k%d", rng.Intn(60))
					if rng.Intn(3) == 0 {
						tier.Read(nil, node, key) // stubTopo's peer paths are free
						continue
					}
					size := 50 + rng.Intn(200)
					tier.Admit(node, key, make([]byte, size), int64(size/2))
				}
				return residency(tier), tier.Stats()
			}
			res1, st1 := run()
			res2, st2 := run()
			if res1 != res2 {
				t.Fatalf("residency diverged:\n%s\n%s", res1, res2)
			}
			if st1 != st2 {
				t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
			}
		})
	}
}

// TestTierCostOracle checks the cost-aware victim against a brute-force
// oracle on small inputs: the evicted key must be the argmin of
// CostScore (ties to the smaller key).
func TestTierCostOracle(t *testing.T) {
	type entry struct {
		key    string
		size   int
		stored int
	}
	cases := [][]entry{
		{{"a", 300, 10}, {"b", 300, 290}, {"c", 300, 150}},
		{{"a", 100, 100}, {"b", 400, 20}, {"c", 200, 200}, {"d", 250, 5}},
		{{"x", 200, 50}, {"y", 200, 50}, {"z", 500, 499}},
	}
	for ci, entries := range cases {
		var capSum int64
		for _, e := range entries {
			capSum += int64(e.size)
		}
		tier := NewTier(TierConfig{NodeBytes: capSum, Policy: PolicyCost}, stubTopo{}, nil)
		tierNodes(tier, "n0")
		for _, e := range entries {
			tier.Admit("n0", e.key, make([]byte, e.size), int64(e.stored))
		}
		// Oracle: rank every resident entry (and the newcomer) by score.
		all := append([]entry{}, entries...)
		newcomer := entry{key: "new", size: 50, stored: 200}
		all = append(all, newcomer)
		victim := all[0]
		best := CostScore(int64(all[0].stored), int64(all[0].size), 0)
		for _, e := range all[1:] {
			s := CostScore(int64(e.stored), int64(e.size), 0)
			if s < best || (s == best && e.key < victim.key) {
				victim, best = e, s
			}
		}
		tier.Admit("n0", newcomer.key, make([]byte, newcomer.size), int64(newcomer.stored))
		if held(tier, "n0", victim.key) {
			t.Fatalf("case %d: oracle victim %q still resident", ci, victim.key)
		}
		for _, e := range all {
			if e.key == victim.key {
				continue
			}
			if !held(tier, "n0", e.key) {
				t.Fatalf("case %d: non-victim %q evicted (oracle says %q)", ci, e.key, victim.key)
			}
		}
	}
}

// TestTierQueueDepthShiftsVictim pins the policy's congestion
// sensitivity: the same pair of entries yields a different victim at
// queue depth 0 (decode cost dominates — the decode-heavy entry is
// dear, the transfer-heavy one goes) than at depth 8 (congested OSTs
// make the transfer-heavy entry dear instead).
func TestTierQueueDepthShiftsVictim(t *testing.T) {
	run := func(depth float64) (decodeHeavyHeld, transferHeavyHeld bool) {
		tier := NewTier(TierConfig{NodeBytes: 350, Policy: PolicyCost},
			stubTopo{}, func() float64 { return depth })
		tierNodes(tier, "n0")
		// decode-heavy: inflates 6x (stored 50 -> 300 decoded).
		tier.Admit("n0", "decode-heavy", make([]byte, 300), 50)
		// transfer-heavy: barely compresses (stored 100 -> 50 decoded).
		tier.Admit("n0", "transfer-heavy", make([]byte, 50), 100)
		// The pinned entry overflows the buffer and always scores
		// highest, forcing one of the first two out.
		tier.Admit("n0", "pinned", make([]byte, 50), 300)
		return held(tier, "n0", "decode-heavy"), held(tier, "n0", "transfer-heavy")
	}
	if dec, tr := run(0); !dec || tr {
		t.Fatalf("depth 0: want transfer-heavy evicted (decode cost dominates), got decode=%v transfer=%v", dec, tr)
	}
	if dec, tr := run(8); dec || !tr {
		t.Fatalf("depth 8: want decode-heavy evicted (congestion dominates), got decode=%v transfer=%v", dec, tr)
	}
}

// TestTierPeerFetch runs the cooperative path on a kernel: a peer hit
// serves another node's entry and installs a local copy, repeat reads hit
// that copy, and the peer copy is the only replica reads make.
func TestTierPeerFetch(t *testing.T) {
	k := sim.NewKernel()
	tier := NewTier(TierConfig{NodeBytes: 1 << 20}, stubTopo{}, nil)
	tierNodes(tier, "n0", "n1", "n2", "n3")
	val := make([]byte, 100)
	k.Go("driver", func(p *sim.Proc) {
		tier.Admit("n0", "hot", val, 50)
		if _, ok := tier.Read(p, "n2", "missing"); ok {
			t.Error("read of unknown key must miss")
		}
		got, ok := tier.Read(p, "n2", "hot")
		if !ok || len(got) != len(val) {
			t.Errorf("peer read failed: ok=%v len=%d", ok, len(got))
		}
		if !held(tier, "n2", "hot") {
			t.Error("peer fetch must install a local copy")
		}
		for i := 0; i < 4; i++ {
			tier.Read(p, "n2", "hot")
		}
	})
	k.Run()
	st := tier.Stats()
	if st.PeerHits != 1 {
		t.Fatalf("want exactly 1 peer hit, got %+v", st)
	}
	if st.LocalHits != 4 {
		t.Fatalf("repeat reads should hit locally: %+v", st)
	}
	if got := tier.dir["hot"]; !slices.Equal(got, []string{"n0", "n2"}) {
		t.Fatalf("holders %v, want [n0 n2]: the admit and the peer fetch", got)
	}
}

// TestTierNearestHolderWins checks the directory pick prefers the
// rack-local holder over a cross-rack one.
func TestTierNearestHolderWins(t *testing.T) {
	tier := NewTier(TierConfig{NodeBytes: 1 << 20}, stubTopo{}, nil)
	tierNodes(tier, "n0", "n1", "n2", "n3")
	tier.Admit("n2", "k", make([]byte, 10), 5) // cross-rack from n1
	tier.Admit("n0", "k", make([]byte, 10), 5) // rack-local to n1
	holder, _, _ := func() (string, []byte, int64) {
		tier.mu.Lock()
		defer tier.mu.Unlock()
		return tier.pickHolderLocked("n1", "k")
	}()
	if holder != "n0" {
		t.Fatalf("want rack-local holder n0, got %q", holder)
	}
}

// TestTierNilSafe pins the nil-receiver contract every call site relies
// on: all methods no-op or miss on a nil tier.
func TestTierNilSafe(t *testing.T) {
	var tier *Tier
	if _, ok := tier.Read(nil, "n", "k"); ok {
		t.Fatal("nil tier must miss")
	}
	tier.Admit("n", "k", []byte{1}, 1)
	tier.MissOST(1)
	tier.Register("n", 1)
	tier.RegisterObs(nil)
	if st := tier.Stats(); st != (TierStats{}) {
		t.Fatalf("nil tier stats must be zero: %+v", st)
	}
}

// TestScanLeavesTierAlone: a single-pass Scan through a tier-bound Bound
// neither serves from the tier (not this node's copy, not a peer's) nor
// admits to it, so the tier's counters and residency are as it found them.
func TestScanLeavesTierAlone(t *testing.T) {
	data := []byte("abcdefghijklmnop")
	r := &slowReader{data: data}
	tier := NewTier(TierConfig{NodeBytes: 1 << 20}, stubTopo{}, nil)
	tierNodes(tier, "n0", "n1")
	tier.Admit("n1", "slow#d@8+8", data[8:], 8) // chunk 1 on a peer
	chunks := []Chunk{{Offset: 0, StoredSize: 8, RawSize: 8}, {Offset: 8, StoredSize: 8, RawSize: 8}}
	var before, after TierStats
	var resBefore, resAfter string
	k := sim.NewKernel()
	k.Go("p", func(p *sim.Proc) {
		x := ChunkIndex{Src: Bind(p, r, Options{Tier: tier, TierNode: "n0"}), Pkg: "test", Len: len(chunks),
			At: func(i int) *Chunk { return &chunks[i] }}
		if _, err := x.Read(0); err != nil { // chunk 0 lands in n0's buffer
			t.Error(err)
		}
		before, resBefore = tier.Stats(), residency(tier)
		for i, c := range chunks {
			got, err := decoded(x.Scan(i))
			if err != nil || !bytes.Equal(got, data[c.Offset:c.Offset+c.StoredSize]) {
				t.Errorf("Scan(%d) = %q, %v", i, got, err)
			}
		}
		after, resAfter = tier.Stats(), residency(tier)
	})
	k.Run()
	if before.Admits != 2 || !held(tier, "n0", "slow#d@0+8") {
		t.Fatalf("setup: Read did not admit chunk 0 to n0: %+v", before)
	}
	if after != before || resAfter != resBefore {
		t.Fatalf("Scan touched the tier:\nstats %+v\n   -> %+v\nresidency %s\n       -> %s", before, after, resBefore, resAfter)
	}
	if r.reads != 3 {
		t.Fatalf("engine reads = %d, want 3 (the Read, then both scanned chunks)", r.reads)
	}
}
