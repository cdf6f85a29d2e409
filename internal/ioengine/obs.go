package ioengine

import (
	"scidp/internal/obs"
)

// Observability bridge. The Bound read path publishes the chunk and
// prefetch counters directly; the cache itself counts nothing.

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
