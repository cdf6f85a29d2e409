package bench

import (
	"testing"

	"scidp/internal/ioengine"
)

// benchmarkPipeline runs the canonical quick pipeline end to end (host
// wall-clock, registry attached, post-run analysis included) with the
// given tier config — the comparison pair for the cooperative cache's
// host-side overhead.
func benchmarkPipeline(b *testing.B, tier ioengine.TierConfig) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, _, _, err := AnalyzeRun(QuickScale(), 4, nil, 0, "tier-bench", tier)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Jobs) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkPipelineTierOff is the baseline: no cache tier attached —
// every tier call sites hits the nil fast path.
func BenchmarkPipelineTierOff(b *testing.B) {
	benchmarkPipeline(b, ioengine.TierConfig{})
}

// BenchmarkPipelineTierCold attaches a cooperative cache tier large
// enough to admit every chunk, but the single-pass pipeline never
// re-reads — the tier is pure overhead here: directory lookups that
// miss, admissions, and the obs collector. The claim is that this
// stays within noise of TierOff (PR 10 measured +197 allocs, about 1%).
func BenchmarkPipelineTierCold(b *testing.B) {
	benchmarkPipeline(b, ioengine.TierConfig{NodeBytes: 8 << 20, Policy: ioengine.PolicyCost})
}
