package bench

import (
	"bytes"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/obs/analyze"
)

// analyzeJSON runs the canonical pipeline and returns the analysis
// JSON.
func analyzeJSON(t *testing.T, rate float64, workers int) []byte {
	t.Helper()
	s := QuickScale()
	p := FaultsPlan(analyzeSeed, analyzeBaselineJCT(t, s), rate)
	if rate == 0 {
		p = nil
	}
	rep, _, _, err := AnalyzeRun(s, 4, p, workers, "analyze-test", ioengine.TierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

const analyzeSeed = 42

var baselineJCT float64

func analyzeBaselineJCT(t *testing.T, s Scale) float64 {
	t.Helper()
	if baselineJCT == 0 {
		_, rep, _, err := AnalyzeRun(s, 4, nil, 0, "analyze-baseline", ioengine.TierConfig{})
		if err != nil {
			t.Fatal(err)
		}
		baselineJCT = rep.TotalSeconds
	}
	return baselineJCT
}

// TestAnalyzeReportDeterministic is the pipeline-level acceptance
// property: same seed (including under a chaos plan and at any
// ComputePool worker count) ⇒ byte-identical analysis JSON.
func TestAnalyzeReportDeterministic(t *testing.T) {
	plain1 := analyzeJSON(t, 0, 0)
	plain2 := analyzeJSON(t, 0, 0)
	if !bytes.Equal(plain1, plain2) {
		t.Error("plain analyze JSON differs between identical runs")
	}
	for _, workers := range []int{1, 4} {
		if !bytes.Equal(plain1, analyzeJSON(t, 0, workers)) {
			t.Errorf("analyze JSON differs between workers=0 and workers=%d", workers)
		}
	}
	chaos1 := analyzeJSON(t, 0.1, 0)
	chaos2 := analyzeJSON(t, 0.1, 4)
	if !bytes.Equal(chaos1, chaos2) {
		t.Error("chaos analyze JSON differs between identical same-seed runs")
	}
	if bytes.Equal(plain1, chaos1) {
		t.Error("chaos plan left the analysis unchanged — injection inert?")
	}
}

// maxCriticalPathIOShare bounds the input-I/O share of the canonical
// run's critical path (observed 0.0216): the pipeline is plot-bound, so
// a path dominated by reads means attribution or the read path broke.
const maxCriticalPathIOShare = 0.9

// TestAnalyzeReportShape asserts the canonical run produces the
// artifacts the CLI prints: jobs with phases, attribution, a critical
// path that tiles the job, and a resource ranking — and that recovery
// time is booked under a chaos plan and only there. 16 timestamps make
// the map phase two waves on the faults testbed, so the plan's
// task-failure and straggler draws hit.
func TestAnalyzeReportShape(t *testing.T) {
	rep, solRep, _, err := AnalyzeRun(QuickScale(), 16, nil, 0, "analyze-shape", ioengine.TierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if solRep.TotalSeconds <= 0 {
		t.Fatalf("pipeline report: %+v", solRep)
	}
	if rep.SpansDropped != 0 {
		t.Fatalf("span buffer overflowed (%d dropped): analysis is partial", rep.SpansDropped)
	}
	if len(rep.Jobs) == 0 {
		t.Fatal("no jobs analyzed")
	}
	if len(rep.Resources) == 0 {
		t.Fatal("no resources ranked")
	}
	for _, j := range rep.Jobs {
		if len(j.CriticalPath.Segments) == 0 {
			t.Fatalf("job %s has no critical path", j.Name)
		}
		last := j.Start
		for _, seg := range j.CriticalPath.Segments {
			if seg.Start != last {
				t.Fatalf("job %s: critical path gap at %v", j.Name, last)
			}
			last = seg.End
		}
		if last != j.End {
			t.Fatalf("job %s: critical path stops at %v, job ends %v", j.Name, last, j.End)
		}
		if len(j.Phases) == 0 {
			t.Fatalf("job %s has no phases", j.Name)
		}
		if j.Buckets.Total() <= 0 {
			t.Fatalf("job %s attributed no time: %+v", j.Name, j.Buckets)
		}
	}
	// The canonical pipeline does real input I/O: some job's critical
	// path must carry a nonzero I/O share, and not be all I/O.
	var io, path, recovery float64
	for _, j := range rep.Jobs {
		io += j.CriticalPath.Buckets.IO
		path += j.CriticalPath.Buckets.Total()
		recovery += j.Buckets.Recovery
	}
	if io <= 0 {
		t.Fatal("no critical-path I/O anywhere — span chain broken?")
	}
	if io/path > maxCriticalPathIOShare {
		t.Errorf("critical-path I/O share %.4f > %.2f", io/path, maxCriticalPathIOShare)
	}
	if recovery != 0 {
		t.Errorf("fault-free run books %.3fs of recovery time", recovery)
	}

	plan := FaultsPlan(analyzeSeed, solRep.TotalSeconds, 0.1)
	chaosRep, _, _, err := AnalyzeRun(QuickScale(), 16, plan, 0, "analyze-shape", ioengine.TierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recovery = 0
	for _, j := range chaosRep.Jobs {
		recovery += j.Buckets.Recovery
	}
	if recovery <= 0 {
		t.Error("chaos run books no recovery time — attribution missed the faults")
	}
}

// BenchmarkAnalyze measures the analyzer itself over a real pipeline
// registry: the post-run overhead of `scidpctl analyze` and -explain.
func BenchmarkAnalyze(b *testing.B) {
	_, _, reg, err := AnalyzeRun(QuickScale(), 4, nil, 0, "analyze-bench", ioengine.TierConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := analyze.Analyze(reg); len(rep.Jobs) == 0 {
			b.Fatal("empty report")
		}
	}
}
