// Package-level benchmarks: one testing.B benchmark per table and figure
// of the SciDP paper's evaluation, each regenerating the corresponding
// artifact on the simulated testbed and reporting the headline metric.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// These run at a reduced geometry/sweep so the whole suite completes in
// minutes; cmd/scidp-bench runs the full paper-size sweeps.
package scidp_test

import (
	"fmt"
	"testing"

	"scidp/internal/bench"
	"scidp/internal/solutions"
)

// benchScale is the geometry the testing.B benchmarks run at.
func benchScale() bench.Scale { return bench.QuickScale() }

// BenchmarkTable1_DataPaths renders the qualitative data-path matrix.
func BenchmarkTable1_DataPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := bench.Table1(); len(tab.Rows) != 5 {
			b.Fatal("Table I wrong shape")
		}
	}
}

// BenchmarkTable2_Workloads renders the workload matrix.
func BenchmarkTable2_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := bench.Table2(); len(tab.Rows) != 2 {
			b.Fatal("Table II wrong shape")
		}
	}
}

// BenchmarkFig2_HDFSvsLustre reproduces Figure 2: TeraSort, Grep, and
// TestDFSIO on native HDFS versus the Lustre HDFS connector.
func BenchmarkFig2_HDFSvsLustre(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig5_ImgOnly reproduces Figure 5: total execution time of the
// five solutions across dataset sizes.
func BenchmarkFig5_ImgOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig5(benchScale(), []int{8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.Fig5Table(r).String())
		}
	}
}

// BenchmarkTable3_Speedups reproduces Table III: SciDP's speedup over
// every existing solution.
func BenchmarkTable3_Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig5(benchScale(), []int{16})
		if err != nil {
			b.Fatal(err)
		}
		tab := bench.Table3(r)
		if i == 0 {
			b.Log("\n" + tab.String())
			b.ReportMetric(r.Totals["scihadoop"][16]/r.Totals["scidp"][16], "speedup-vs-scihadoop")
			b.ReportMetric(r.Totals["naive"][16]/r.Totals["scidp"][16], "speedup-vs-naive")
		}
	}
}

// BenchmarkFig6_IOBandwidth reproduces Figure 6: I/O bandwidth against
// reader count for the four read methods.
func BenchmarkFig6_IOBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig6(benchScale(), 32, []int{1, 4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig7_TaskDecomposition reproduces Figure 7: per-task
// Read/Convert/Plot decomposition per level.
func BenchmarkFig7_TaskDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig7(benchScale(), 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig8_ScaleOut reproduces Figure 8: SciDP at 4/8/16 nodes.
func BenchmarkFig8_ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig8(benchScale(), 128, []int{4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkFig9_Analysis reproduces Figure 9: the Anlys workload's three
// SQL cases across dataset sizes.
func BenchmarkFig9_Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig9(benchScale(), []int{8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkAblation_BlockGranularity measures SciDP's dummy-block
// granularity trade-off (DESIGN.md ablation 1).
func BenchmarkAblation_BlockGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.AblationBlockGranularity(benchScale(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkAblation_VariableSubsetting measures mapping with and without
// variable subsetting (DESIGN.md ablation 2).
func BenchmarkAblation_VariableSubsetting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.AblationVariableSubsetting(benchScale(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkAblation_WholeBlockRead measures the single whole-block read
// against 64 KB streaming (DESIGN.md ablation 3).
func BenchmarkAblation_WholeBlockRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.AblationWholeBlockRead(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkAblation_Overlap measures overlapped versus staged SciDP
// (DESIGN.md ablation 4).
func BenchmarkAblation_Overlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.AblationOverlap(benchScale(), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}

// BenchmarkSciDPPipeline measures one full SciDP run end to end (map,
// process, store) as a plain throughput number.
func BenchmarkSciDPPipeline(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunOne(s, 8, 0, solutions.AnalysisNone, "scidp")
		if err != nil {
			b.Fatal(err)
		}
		if rep.Images == 0 {
			b.Fatal("no images")
		}
		if i == 0 {
			b.ReportMetric(rep.TotalSeconds, "virtual-seconds")
			b.Log(fmt.Sprintf("scidp: %d images in %.1f virtual s", rep.Images, rep.TotalSeconds))
		}
	}
}

// BenchmarkWorkflow_InSitu measures the end-to-end simulate+analyze
// workflow, in-situ versus offline.
func BenchmarkWorkflow_InSitu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Workflow(benchScale(), 8, 30)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tab.String())
		}
	}
}
