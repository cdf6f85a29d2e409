package obs

import "testing"

// The detached benchmarks quantify the "zero-cost when no registry is
// attached" contract: a producer holding nil handles pays a nil check
// and nothing else (0 allocs/op, sub-nanosecond). The attached variants
// give the comparison point. BenchmarkTeraSortWall against
// BenchmarkTeraSortWallObs is the end-to-end version of the same claim.

func BenchmarkCounterDetached(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAttached(b *testing.B) {
	c := New().Counter("bench/counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeDetached(b *testing.B) {
	var g *Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkGaugeAttached(b *testing.B) {
	r := New()
	r.SetClock(&fakeClock{})
	g := r.Gauge("bench/gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkSpanDetached(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.StartSpan("x", "y", nil)
		s.End()
	}
}

func BenchmarkSpanAttached(b *testing.B) {
	r := New()
	r.SetClock(&fakeClock{})
	r.SetMaxSpans(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.StartSpan("x", "y", nil)
		s.End()
	}
	if r.SpanCount() != b.N {
		b.Fatal("span count mismatch")
	}
}
