package tenant

import (
	"testing"

	"scidp/internal/solutions"
)

// BenchmarkReplay is the tenant scheduler end to end: one replay of the
// service's bundled small trace per op on the benchmark's service cluster
// (6 nodes of 2 slots, 3 jobs running at a time) — admission, fair share,
// leases, backfill and every job's stages. Building the cluster and
// installing the inputs is outside the timer. It reports the kernel
// events a replay takes.
func BenchmarkReplay(b *testing.B) {
	tr, err := LoadTrace("../../cmd/scidpd/testdata/trace-small.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events uint64
	for range b.N {
		b.StopTimer()
		env := solutions.NewEnv(solutions.EnvConfig{Nodes: 6, SlotsPerNode: 2, ByteScale: 1, Workers: 1})
		svc := New(env, Config{MaxConcurrent: 3})
		before := env.K.EventsProcessed()
		b.StartTimer()
		sum, err := Replay(svc, tr)
		b.StopTimer()
		if err != nil || sum.Completed == 0 {
			b.Fatalf("replay: %v, %+v", err, sum)
		}
		events += env.K.EventsProcessed() - before
		env.Close()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
