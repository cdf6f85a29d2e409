package bench

import (
	"strconv"
	"strings"
	"testing"

	"scidp/internal/solutions"
)

// cell parses a numeric table cell (strips trailing "x").
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.Fields(s)[0], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestTable1And2Shape(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 5 || t1.Rows[4][0] != "SciDP" || t1.Rows[4][1] != "No" || t1.Rows[4][2] != "No" {
		t.Fatalf("Table I = %+v", t1.Rows)
	}
	t2 := Table2()
	if len(t2.Rows) != 2 || t2.Rows[0][0] != "Img-only" || t2.Rows[1][3] != "Yes" {
		t.Fatalf("Table II = %+v", t2.Rows)
	}
	if !strings.Contains(t1.String(), "SciDP") {
		t.Fatal("render missing SciDP")
	}
}

func TestFig5AndTable3Shape(t *testing.T) {
	s := QuickScale()
	sizes := []int{4, 8}
	r, err := RunFig5(s, sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in dataset size for every solution.
	for _, d := range solutions.All() {
		name := d.Name()
		if r.Totals[name][8] <= r.Totals[name][4] {
			t.Errorf("%s: total should grow with dataset size: %v vs %v", name, r.Totals[name][4], r.Totals[name][8])
		}
	}
	// SciDP wins at every size; naive loses at every size.
	for _, ts := range sizes {
		for _, d := range solutions.All() {
			name := d.Name()
			if name == "scidp" {
				continue
			}
			if r.Totals["scidp"][ts] >= r.Totals[name][ts] {
				t.Errorf("scidp (%v) should beat %s (%v) at %d ts", r.Totals["scidp"][ts], name, r.Totals[name][ts], ts)
			}
		}
		if r.Totals["naive"][ts] <= r.Totals["vanilla-hadoop"][ts] {
			t.Errorf("naive should be slowest at %d ts", ts)
		}
	}
	tab := Fig5Table(r)
	if len(tab.Rows) != len(solutions.All())*len(sizes) {
		t.Fatalf("Fig5 rows = %d", len(tab.Rows))
	}
	t3 := Table3(r)
	if len(t3.Rows) != 4 {
		t.Fatalf("Table3 rows = %d", len(t3.Rows))
	}
	// Speedups all > 1, and naive's is the largest.
	var naive, minSpeed float64 = 0, 1e18
	for _, row := range t3.Rows {
		v := cell(t, row[len(row)-1])
		if v <= 1 {
			t.Errorf("speedup %s = %v, want > 1", row[0], v)
		}
		if row[0] == "naive" {
			naive = v
		}
		if v < minSpeed {
			minSpeed = v
		}
	}
	if naive < 4*minSpeed {
		t.Errorf("naive speedup (%v) should dwarf the best existing solution's (%v)", naive, minSpeed)
	}
}

func TestFig2Shape(t *testing.T) {
	tab, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Fig2Workloads) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		hd, lu := cell(t, row[1]), cell(t, row[2])
		if hd <= 0 || lu <= 0 {
			t.Fatalf("non-positive times: %v", row)
		}
		if lu <= hd {
			t.Errorf("%s: native HDFS (%v) should beat the connector (%v)", row[0], hd, lu)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	s := QuickScale()
	tab, err := Fig6(s, 16, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ncInd := cell(t, row[1])
		mpiColl := cell(t, row[3])
		scidp := cell(t, row[4])
		equal := cell(t, row[5])
		if ncInd <= 0 || mpiColl <= 0 || scidp <= 0 {
			t.Fatalf("non-positive bandwidth: %v", row)
		}
		if equal <= scidp {
			t.Errorf("SciDP Equal (%v) must exceed SciDP (%v): raw > compressed", equal, scidp)
		}
		if mpiColl < ncInd {
			t.Errorf("MPI Coll (%v) is the ideal; NC Ind (%v) should not beat it", mpiColl, ncInd)
		}
	}
	// Bandwidth grows with reader count for SciDP.
	if cell(t, tab.Rows[2][4]) <= cell(t, tab.Rows[0][4]) {
		t.Error("SciDP bandwidth should grow with readers")
	}
}

func TestFig7Shape(t *testing.T) {
	s := QuickScale()
	tab, err := Fig7(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	perLevel := map[string][3]float64{}
	for _, row := range tab.Rows {
		perLevel[row[0]] = [3]float64{cell(t, row[1]), cell(t, row[2]), cell(t, row[3])}
	}
	// Convert dominates the text paths and is tiny for SciDP.
	for _, name := range []string{"vanilla-hadoop", "porthadoop"} {
		if perLevel[name][1] <= perLevel["scidp"][1] {
			t.Errorf("%s convert (%v) should dwarf scidp's (%v)", name, perLevel[name][1], perLevel["scidp"][1])
		}
		if perLevel[name][1] <= perLevel[name][2] {
			t.Errorf("%s: convert (%v) should dominate plot (%v)", name, perLevel[name][1], perLevel[name][2])
		}
	}
	// Plot cost is roughly equal for the parallel solutions and slightly
	// lower for naive.
	if perLevel["naive"][2] >= perLevel["scidp"][2] {
		t.Errorf("naive plot (%v) should be below parallel plot (%v)", perLevel["naive"][2], perLevel["scidp"][2])
	}
}

func TestFig8Shape(t *testing.T) {
	s := QuickScale()
	tab, err := Fig8(s, 128, []int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	t4, t8, t16 := cell(t, tab.Rows[0][2]), cell(t, tab.Rows[1][2]), cell(t, tab.Rows[2][2])
	if !(t4 > t8 && t8 > t16) {
		t.Fatalf("scale-out should reduce time: %v %v %v", t4, t8, t16)
	}
	// Near-optimal speedup: doubling nodes gives >= 1.5x.
	if t4/t8 < 1.5 || t8/t16 < 1.5 {
		t.Errorf("speedups %v and %v below near-optimal band", t4/t8, t8/t16)
	}
}

func TestFig9Shape(t *testing.T) {
	s := QuickScale()
	tab, err := Fig9(s, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	none4, none8 := cell(t, tab.Rows[0][1]), cell(t, tab.Rows[0][2])
	hl8 := cell(t, tab.Rows[1][2])
	top8 := cell(t, tab.Rows[2][2])
	if none8 <= none4 {
		t.Error("no-analysis should grow with size")
	}
	// Figure 9: highlight ~ no analysis; top 1% clearly slower.
	if hl8 > none8*1.2 {
		t.Errorf("highlight (%v) should be close to no-analysis (%v)", hl8, none8)
	}
	if top8 <= hl8 {
		t.Errorf("top 1%% (%v) should exceed highlight (%v)", top8, hl8)
	}
}

func TestAblations(t *testing.T) {
	s := QuickScale()
	a1, err := AblationBlockGranularity(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Rows) < 2 {
		t.Fatalf("A1 rows = %d", len(a1.Rows))
	}
	a2, err := AblationVariableSubsetting(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub, all := cell(t, a2.Rows[0][1]), cell(t, a2.Rows[1][1])
	if sub > all {
		t.Errorf("subset mapping (%v) should not exceed full mapping (%v)", sub, all)
	}
	if cell(t, a2.Rows[0][2]) >= cell(t, a2.Rows[1][2]) {
		t.Error("subsetting should create fewer virtual files")
	}
	a3, err := AblationWholeBlockRead(s)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, a3.Rows[1][2]) <= cell(t, a3.Rows[0][2]) {
		t.Error("streaming reads should be slower than a whole-block read")
	}
	a4, err := AblationOverlap(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, a4.Rows[1][1]) < cell(t, a4.Rows[0][1]) {
		t.Error("staged should not beat overlapped")
	}
}

func TestRunOneUnknownSolution(t *testing.T) {
	if _, err := RunOne(QuickScale(), 2, 0, solutions.AnalysisNone, "ghost"); err == nil {
		t.Fatal("unknown solution should fail")
	}
}

func TestScaleFactors(t *testing.T) {
	s := DefaultScale()
	if s.ByteScale() < 100 || s.LevelScale() != 5 {
		t.Fatalf("scale = %v / %v", s.ByteScale(), s.LevelScale())
	}
	spec := s.Spec(7)
	if spec.Timestamps != 7 || spec.Vars != 23 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestWorkflowShape(t *testing.T) {
	s := QuickScale()
	tab, err := Workflow(s, 12, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	offEnd, inEnd := cell(t, tab.Rows[0][2]), cell(t, tab.Rows[1][2])
	offLag, inLag := cell(t, tab.Rows[0][3]), cell(t, tab.Rows[1][3])
	if inEnd > offEnd {
		t.Errorf("in-situ end-to-end (%v) should not exceed offline (%v)", inEnd, offEnd)
	}
	if inLag > offLag {
		t.Errorf("in-situ lag (%v) should not exceed offline lag (%v)", inLag, offLag)
	}
}

func TestFig8ScaleUpShape(t *testing.T) {
	s := QuickScale()
	tab, err := Fig8ScaleUp(s, 128, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	t2, t8 := cell(t, tab.Rows[0][2]), cell(t, tab.Rows[2][2])
	if t8 >= t2 {
		t.Fatalf("scale-up should reduce time: %v -> %v", t2, t8)
	}
	if t2/t8 < 2 {
		t.Fatalf("4x slots should give >= 2x speedup, got %v", t2/t8)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := Table1()
	md := tab.Markdown()
	if !strings.Contains(md, "## Table I") || !strings.Contains(md, "| SciDP | No | No | Parallel |") {
		t.Fatalf("markdown = %q", md)
	}
	tab.Notes = append(tab.Notes, "a note")
	if !strings.Contains(tab.Markdown(), "*a note*") {
		t.Fatal("note missing from markdown")
	}
}

// TestFaultsSweep runs the quick faults experiment (16 timestamps, rate
// 0.1): every run completes, writes the fault-free baseline's bytes and
// reproduces its output and export digests on the same-seed repeat, and
// the faulted run shows each kind of recovery work.
func TestFaultsSweep(t *testing.T) {
	_, res, err := RunFaults(QuickScale(), 16, []float64{0.1}, FaultsSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs, want the baseline and one faulted run", len(res.Runs))
	}
	for _, r := range res.Runs {
		if r.JCTSeconds <= 0 || r.ResultBytes <= 0 {
			t.Errorf("rate %g: job did not complete (jct=%g, bytes=%d)", r.Rate, r.JCTSeconds, r.ResultBytes)
		}
		if !r.OutputMatchesBaseline {
			t.Errorf("rate %g: output differs from the fault-free baseline", r.Rate)
		}
		if !r.Deterministic {
			t.Errorf("rate %g: same-seed repeat did not reproduce the digests", r.Rate)
		}
	}
	// Observed: 8 failovers, 5 read retries, 2 speculative wins, 12 faults.
	if f := res.Runs[1]; f.Failovers <= 0 || f.ReadRetries <= 0 || f.SpecWins <= 0 || f.FaultsInjected <= 0 {
		t.Errorf("faulted run recovered nothing: failovers=%g read retries=%g spec wins=%g faults=%g",
			f.Failovers, f.ReadRetries, f.SpecWins, f.FaultsInjected)
	}
}

// querySkipFloor is the least pruning any query of the sweep may show,
// oracle over pushdown, in chunks decoded and in bytes inflated
// (observed 10: one chunk of ten read).
const querySkipFloor = 5.0

// TestQuerySweep runs the quick query experiment, which itself fails
// when a pushdown result differs from the oracle's or a same-seed repeat
// exports different metrics, and holds the pruning floor.
func TestQuerySweep(t *testing.T) {
	_, res, err := RunQuery(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("the sweep ran no queries")
	}
	if got := res.MinSkipRatio(); got < querySkipFloor {
		t.Errorf("weakest query pruned %.2fx, floor %.2fx", got, querySkipFloor)
	}
}
