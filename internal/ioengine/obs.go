package ioengine

import (
	"scidp/internal/obs"
)

// Observability bridge. Cache and CacheSet counters stay where they are
// (mutex-guarded ints, see the concurrency contract in cache.go) and
// are mirrored into a registry by collectors at export time; the Bound
// read path publishes chunk/prefetch counters directly.

// RegisterObs installs the package-level derived metrics on r once per
// registry: ioengine/cache_hit_ratio, computed from the chunk-read
// hit/miss counters every Bound with Options.Obs feeds. Call it when
// the registry is created (not per run).
func RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	hits := r.Counter("ioengine/chunk_reads_total", obs.L("result", "hit"))
	misses := r.Counter("ioengine/chunk_reads_total", obs.L("result", "miss"))
	ratio := r.Gauge("ioengine/cache_hit_ratio")
	r.AddCollector(func() {
		total := hits.Value() + misses.Value()
		if total > 0 {
			ratio.Set(hits.Value() / total)
		} else {
			ratio.Set(0)
		}
	})
}

// RegisterObs mirrors the set's aggregated counters into r at every
// export, under the same ioengine/cache_* names as Cache.RegisterObs.
func (cs *CacheSet) RegisterObs(r *obs.Registry, labels ...obs.Label) {
	if r == nil || cs == nil {
		return
	}
	hits := r.Counter("ioengine/cache_hits_total", labels...)
	misses := r.Counter("ioengine/cache_misses_total", labels...)
	evictions := r.Counter("ioengine/cache_evictions_total", labels...)
	bytes := r.Gauge("ioengine/cache_bytes", labels...)
	entries := r.Gauge("ioengine/cache_entries", labels...)
	ratio := r.Gauge("ioengine/cache_hit_ratio", labels...)
	r.AddCollector(func() {
		st := cs.Stats()
		hits.Set(float64(st.Hits))
		misses.Set(float64(st.Misses))
		evictions.Set(float64(st.Evictions))
		bytes.Set(float64(st.Bytes))
		entries.Set(float64(st.Entries))
		ratio.Set(st.HitRate())
	})
}
