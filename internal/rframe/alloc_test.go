package rframe

import "testing"

// TestImage2DSteadyStateAllocation is the tier-1 guard against a return
// to per-call codec construction (a fresh PNG encoder is ~850 KB): at the
// benchmark's 32 px a steady-state call may allocate its output copy and
// little else.
func TestImage2DSteadyStateAllocation(t *testing.T) {
	z := testGrid(40, 40, 0)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Image2D(z, 40, 40, PlotOpts{Width: 32, Height: 32}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > 32<<10 {
		t.Fatalf("Image2D at 32 px allocates %d B/op in steady state, want <= %d", got, 32<<10)
	}
}

// TestWriteCSVAllocation guards WriteCSV's one buffer: a string per cell
// was 25 000 allocations for this frame.
func TestWriteCSVAllocation(t *testing.T) {
	f := orderBenchFrame(5000)
	if got := testing.AllocsPerRun(10, func() { benchSink = f.WriteCSV() }); got > 4 {
		t.Fatalf("WriteCSV of a 5000 x 5 frame makes %v allocations, want <= 4", got)
	}
}
