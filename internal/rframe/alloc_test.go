package rframe

import "testing"

// TestImage2DSteadyStateAllocation is the tier-1 guard against a return
// to per-call codec construction (a fresh PNG encoder is ~850 KB): at the
// benchmark's 32 px a steady-state call may allocate its output copy and
// little else, and Image2DFrame only its 1 KB frame more (the palette
// memo lives in the scratch).
func TestImage2DSteadyStateAllocation(t *testing.T) {
	z := testGrid(40, 40, 0)
	opts := PlotOpts{Width: 32, Height: 32}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Image2D(z, 40, 40, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	plain := res.AllocedBytesPerOp()
	if plain > 32<<10 {
		t.Fatalf("Image2D at 32 px allocates %d B/op in steady state, want <= %d", plain, 32<<10)
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Image2DFrame(z, 40, 40, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The frame is its 32 x 32 pixels and the image.Paletted header.
	if got, want := res.AllocedBytesPerOp(), plain+32*32+128; got > want {
		t.Fatalf("Image2DFrame at 32 px allocates %d B/op in steady state, want <= %d (Image2D's %d and the frame)",
			got, want, plain)
	}
}

// TestAnimateFramesSteadyStateAllocation guards the one LZW writer a call
// (a fresh one is 64 KB; AnimateGIF allocates ~600 KB for this series):
// ten 32 px frames allocate their GIF and a small constant.
func TestAnimateFramesSteadyStateAllocation(t *testing.T) {
	frames := seriesFrames(t)
	out, err := AnimateFrames(frames, 20)
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnimateFrames(frames, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, want := res.AllocedBytesPerOp(), int64(len(out))+2<<10; got > want {
		t.Fatalf("AnimateFrames of ten 32 px frames allocates %d B/op in steady state, want <= %d (its %d-byte GIF and 2 KB)",
			got, want, len(out))
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
