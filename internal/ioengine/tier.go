package ioengine

import (
	"slices"
	"sync"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

// Tier is the cluster-wide cooperative cache: per-node burst buffers
// holding decoded chunks and a directory mapping keys to holder nodes.
// A local hit costs nothing (the decoded bytes are
// already on the node); a peer hit charges a transfer over the
// topology's intra-rack/zone links; only a full miss falls back to the
// storage engine. The tier sits above the per-job Cache in Bound's
// lookup order and below it in lifetime: job caches die with the run,
// tier buffers persist across every job sharing the Env.
//
// Concurrency contract: one mutex guards all tier state, so the tier is
// safe from any goroutine; the mutex is never held across a virtual
// transfer (Read unlocks before charging the peer path). Determinism of
// the counters and of victim selection is again a property of the
// caller — all mutations happen on the kernel thread in event order —
// plus the victim orders below, which are total (unique seq for LRU,
// key tie-break for cost) so map iteration order can never leak in.
// Values are shared, not copied: callers must treat them as read-only,
// and must copy before admitting bytes a task will mutate.

// Eviction policy names for TierConfig.Policy.
const (
	PolicyLRU  = "lru"
	PolicyCost = "cost"
)

// TierTopology resolves peer transfer costs. *cluster.Cluster satisfies
// it; the indirection keeps ioengine free of a cluster dependency.
type TierTopology interface {
	// PeerPathByName returns the resource chain a node-to-node transfer
	// crosses (nil for unknown nodes — the transfer is then free).
	PeerPathByName(src, dst string) []*sim.Resource
	// Distance ranks locality: 0 same node, 1 same rack, 2 same zone,
	// 3 beyond.
	Distance(src, dst string) int
}

// TierConfig selects the tier's capacity model and policies.
type TierConfig struct {
	// NodeBytes is each node's burst-buffer capacity; 0 disables the
	// tier entirely.
	NodeBytes int64
	// Policy is the admission/eviction policy: PolicyLRU (default) or
	// PolicyCost, which weighs refetch cost (stored size scaled by the
	// live OST queue depth) against retained bytes.
	Policy string
}

// Enabled reports whether the config describes an active tier.
func (c TierConfig) Enabled() bool { return c.NodeBytes > 0 }

// TierStats is a point-in-time snapshot of the tier's counters.
type TierStats struct {
	// LocalHits/PeerHits/OSTReads classify every chunk Read the tier
	// arbitrated: served from the node's own buffer, fetched from a
	// peer's, or fallen through to the storage engine.
	LocalHits int64
	PeerHits  int64
	OSTReads  int64
	// LocalBytes/PeerBytes count decoded bytes served per level;
	// OSTBytes counts the stored bytes read on fallbacks.
	LocalBytes int64
	PeerBytes  int64
	OSTBytes   int64
	Admits     int64
	Evictions  int64
	// Promotions is always 0: the tier replicates a key only when a peer
	// read installs a local copy. It stays while the benchmark's
	// ioengine.tier_promotions reads it.
	Promotions      int64
	ResidentBytes   int64
	ResidentEntries int64
}

// HitRate returns the cross-job hit rate: reads served from the tier
// (local or peer) over all tier-arbitrated reads.
func (s TierStats) HitRate() float64 {
	total := s.LocalHits + s.PeerHits + s.OSTReads
	if total == 0 {
		return 0
	}
	return float64(s.LocalHits+s.PeerHits) / float64(total)
}

// CostScore is the cost-aware policy's retention score: the modeled
// cost of refetching the entry — transferring its stored bytes over
// OSTs inflated by the live queue depth, plus re-decoding it to its
// decoded size. The eviction victim is the entry with the LOWEST score
// (cheapest to bring back); object size enters through both terms, and
// a congested OST pool shifts retention toward transfer-heavy entries,
// while an idle pool favors keeping decode-heavy ones. Exported so the
// brute-force oracle in the tests ranks independently.
func CostScore(stored, decoded int64, queueDepth float64) float64 {
	return float64(stored)*(1+queueDepth) + 0.25*float64(decoded)
}

type tierEntry struct {
	key    string
	val    []byte
	stored int64 // engine-level (compressed) size, the refetch cost basis
	seq    uint64
}

type tierBuffer struct {
	name    string
	cap     int64
	bytes   int64
	entries map[string]*tierEntry
}

// Tier implements the cooperative cache. The zero value is not usable;
// a nil *Tier is: every method no-ops or misses, so call sites need no
// enable checks.
type Tier struct {
	mu         sync.Mutex
	cfg        TierConfig
	topo       TierTopology
	queueDepth func() float64
	buffers    map[string]*tierBuffer
	dir        map[string][]string
	seq        uint64
	stats      TierStats
}

// NewTier builds a tier over topo. queueDepth supplies the cost-aware
// policy's congestion signal (typically pfs.FS.MeanQueueDepth); nil
// means zero depth. An unknown policy name panics — configs are
// validated at flag-parse time.
func NewTier(cfg TierConfig, topo TierTopology, queueDepth func() float64) *Tier {
	if cfg.Policy == "" {
		cfg.Policy = PolicyLRU
	}
	if cfg.Policy != PolicyLRU && cfg.Policy != PolicyCost {
		panic("ioengine: unknown tier policy " + cfg.Policy)
	}
	return &Tier{
		cfg: cfg, topo: topo, queueDepth: queueDepth,
		buffers: map[string]*tierBuffer{}, dir: map[string][]string{},
	}
}

// Register creates node's burst buffer with an explicit capacity.
// Unregistered nodes get a buffer with the config's NodeBytes on first
// touch.
func (t *Tier) Register(name string, capBytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.bufferLocked(name).cap = capBytes
	t.mu.Unlock()
}

func (t *Tier) bufferLocked(name string) *tierBuffer {
	b, ok := t.buffers[name]
	if !ok {
		b = &tierBuffer{name: name, cap: t.cfg.NodeBytes, entries: map[string]*tierEntry{}}
		t.buffers[name] = b
	}
	return b
}

// Read serves key for a task on node: local buffer first (free), then
// the nearest directory holder (charged over the peer path, and the
// fetched copy is installed locally so the working set spreads), else a
// miss. The caller reads from the engine on a miss and calls MissOST +
// Admit.
func (t *Tier) Read(p *sim.Proc, node, key string) ([]byte, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	buf := t.bufferLocked(node)
	if e, ok := buf.entries[key]; ok {
		t.seq++
		e.seq = t.seq
		t.stats.LocalHits++
		t.stats.LocalBytes += int64(len(e.val))
		val := e.val
		t.mu.Unlock()
		return val, true
	}
	holder, val, stored := t.pickHolderLocked(node, key)
	if holder == "" {
		t.mu.Unlock()
		return nil, false
	}
	t.stats.PeerHits++
	t.stats.PeerBytes += int64(len(val))
	var path []*sim.Resource
	if t.topo != nil {
		path = t.topo.PeerPathByName(holder, node)
	}
	// Unlock before charging the transfer: Transfer parks the process,
	// and other processes must be able to use the tier meanwhile.
	t.mu.Unlock()
	if len(val) > 0 && len(path) > 0 {
		p.Transfer(float64(len(val)), path...)
	}
	t.mu.Lock()
	t.admitLocked(node, key, val, stored)
	t.mu.Unlock()
	return val, true
}

// pickHolderLocked returns the holder nearest to node (ties to the
// earliest admitted holder) and its entry's value.
func (t *Tier) pickHolderLocked(node, key string) (string, []byte, int64) {
	best, bestDist := "", 0
	var val []byte
	var stored int64
	for _, h := range t.dir[key] {
		if h == node {
			continue
		}
		hb := t.buffers[h]
		if hb == nil {
			continue
		}
		e, ok := hb.entries[key]
		if !ok {
			continue
		}
		d := 0
		if t.topo != nil {
			d = t.topo.Distance(h, node)
		}
		if best == "" || d < bestDist {
			best, bestDist, val, stored = h, d, e.val, e.stored
		}
	}
	return best, val, stored
}

// MissOST books an engine fallback of the given stored size.
func (t *Tier) MissOST(stored int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stats.OSTReads++
	t.stats.OSTBytes += stored
	t.mu.Unlock()
}

// Admit offers (key, val) decoded from stored engine bytes to node's
// buffer after a miss.
func (t *Tier) Admit(node, key string, val []byte, stored int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.admitLocked(node, key, val, stored)
	t.mu.Unlock()
}

func (t *Tier) admitLocked(node, key string, val []byte, stored int64) {
	buf := t.bufferLocked(node)
	if e, ok := buf.entries[key]; ok {
		t.seq++
		e.seq = t.seq
		return
	}
	if buf.cap > 0 && int64(len(val)) > buf.cap {
		return
	}
	t.seq++
	buf.entries[key] = &tierEntry{key: key, val: val, stored: stored, seq: t.seq}
	buf.bytes += int64(len(val))
	t.addHolderLocked(key, node)
	t.stats.Admits++
	// Under the cost policy the newcomer competes on score and may be
	// the immediate victim — that IS the admission decision.
	for buf.cap > 0 && buf.bytes > buf.cap {
		victim := t.victimLocked(buf)
		if victim == nil {
			break
		}
		t.evictLocked(buf, victim)
	}
}

// victimLocked picks the eviction victim under a total order: LRU by
// unique sequence number, cost by score with a key tie-break — map
// iteration order cannot influence either.
func (t *Tier) victimLocked(buf *tierBuffer) *tierEntry {
	var victim *tierEntry
	if t.cfg.Policy == PolicyCost {
		qd := 0.0
		if t.queueDepth != nil {
			qd = t.queueDepth()
		}
		best := 0.0
		for _, e := range buf.entries {
			s := CostScore(e.stored, int64(len(e.val)), qd)
			if victim == nil || s < best || (s == best && e.key < victim.key) {
				victim, best = e, s
			}
		}
		return victim
	}
	for _, e := range buf.entries {
		if victim == nil || e.seq < victim.seq {
			victim = e
		}
	}
	return victim
}

func (t *Tier) evictLocked(buf *tierBuffer, e *tierEntry) {
	delete(buf.entries, e.key)
	buf.bytes -= int64(len(e.val))
	t.stats.Evictions++
	t.removeHolderLocked(e.key, buf.name)
}

func (t *Tier) addHolderLocked(key, node string) {
	if !slices.Contains(t.dir[key], node) {
		t.dir[key] = append(t.dir[key], node)
	}
}

func (t *Tier) removeHolderLocked(key, node string) {
	hs := t.dir[key]
	if i := slices.Index(hs, node); i >= 0 {
		hs = slices.Delete(hs, i, i+1)
	}
	if len(hs) == 0 {
		delete(t.dir, key)
		return
	}
	t.dir[key] = hs
}

// Stats snapshots the tier counters plus current residency.
func (t *Tier) Stats() TierStats {
	if t == nil {
		return TierStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.stats
	for _, b := range t.buffers {
		out.ResidentBytes += b.bytes
		out.ResidentEntries += int64(len(b.entries))
	}
	return out
}

// RegisterObs mirrors the tier counters into r at every export under
// ioengine/tier_*, and derives the per-level ioengine/cache_hit_ratio
// series (level=local|peer|ost — each level's share of tier-arbitrated
// reads; the three sum to 1 once any read happened).
func (t *Tier) RegisterObs(r *obs.Registry, labels ...obs.Label) {
	if t == nil || r == nil {
		return
	}
	level := func(l string) []obs.Label {
		out := append([]obs.Label{}, labels...)
		return append(out, obs.L("level", l))
	}
	localReads := r.Counter("ioengine/tier_reads_total", level("local")...)
	peerReads := r.Counter("ioengine/tier_reads_total", level("peer")...)
	ostReads := r.Counter("ioengine/tier_reads_total", level("ost")...)
	localBytes := r.Counter("ioengine/tier_bytes_total", level("local")...)
	peerBytes := r.Counter("ioengine/tier_bytes_total", level("peer")...)
	ostBytes := r.Counter("ioengine/tier_bytes_total", level("ost")...)
	admits := r.Counter("ioengine/tier_admits_total", labels...)
	evictions := r.Counter("ioengine/tier_evictions_total", labels...)
	resBytes := r.Gauge("ioengine/tier_resident_bytes", labels...)
	resEntries := r.Gauge("ioengine/tier_resident_entries", labels...)
	localRatio := r.Gauge("ioengine/cache_hit_ratio", level("local")...)
	peerRatio := r.Gauge("ioengine/cache_hit_ratio", level("peer")...)
	ostRatio := r.Gauge("ioengine/cache_hit_ratio", level("ost")...)
	r.AddCollector(func() {
		st := t.Stats()
		localReads.Set(float64(st.LocalHits))
		peerReads.Set(float64(st.PeerHits))
		ostReads.Set(float64(st.OSTReads))
		localBytes.Set(float64(st.LocalBytes))
		peerBytes.Set(float64(st.PeerBytes))
		ostBytes.Set(float64(st.OSTBytes))
		admits.Set(float64(st.Admits))
		evictions.Set(float64(st.Evictions))
		resBytes.Set(float64(st.ResidentBytes))
		resEntries.Set(float64(st.ResidentEntries))
		total := float64(st.LocalHits + st.PeerHits + st.OSTReads)
		if total > 0 {
			localRatio.Set(float64(st.LocalHits) / total)
			peerRatio.Set(float64(st.PeerHits) / total)
			ostRatio.Set(float64(st.OSTReads) / total)
		} else {
			localRatio.Set(0)
			peerRatio.Set(0)
			ostRatio.Set(0)
		}
	})
}
