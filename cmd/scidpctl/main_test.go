package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scidp/internal/bench"
	"scidp/internal/chaos"
	"scidp/internal/ioengine"
)

const chaosPlan = "testdata/chaos-plan.json"

// recoveryTable reads the recovery table that ends a text report into
// label -> value.
func recoveryTable(t *testing.T, report string) map[string]float64 {
	t.Helper()
	_, table, ok := strings.Cut(report, "== chaos & recovery counters ==\n")
	if !ok {
		t.Fatalf("no recovery table in:\n%s", report)
	}
	rows := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("recovery row %q: %v", line, err)
		}
		rows[strings.Join(f[:len(f)-1], " ")] = v
	}
	return rows
}

// TestAnalyzeUnderChaosPlan runs `scidpctl analyze -chaos` on the bundled
// plan the way main does: the text report ends in the recovery table,
// whose eight rows show the injected faults and the recovery they forced,
// and the -json - bytes are bench.AnalyzeRun's report for the same
// arguments.
func TestAnalyzeUnderChaosPlan(t *testing.T) {
	var text bytes.Buffer
	if err := runAnalyze(&text, []string{"-chaos", chaosPlan, "-timestamps", "2"}); err != nil {
		t.Fatal(err)
	}
	rows := recoveryTable(t, text.String())
	if len(rows) != 8 {
		t.Errorf("recovery table has %d rows, want 8: %v", len(rows), rows)
	}
	// The SciDP pipeline reads its input from the PFS and no HDFS file
	// back, so the DataNode crash shows in no replica failover here; the
	// faults experiment's manifest audit is what exercises those.
	for _, label := range []string{"faults injected", "PFS read retries", "PFS read-arounds"} {
		if rows[label] <= 0 {
			t.Errorf("%s = %v, want > 0", label, rows[label])
		}
	}

	var got bytes.Buffer
	if err := runAnalyze(&got, []string{"-chaos", chaosPlan, "-json", "-"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chaosPlan)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, _, err := bench.AnalyzeRun(bench.QuickScale(), 4, plan, 0, "scidpctl-analyze",
		ioengine.TierConfig{Policy: ioengine.PolicyCost})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), append(want, '\n')) {
		t.Errorf("analyze -chaos -json - differs from bench.AnalyzeRun's report:\n  cli: %.200s\n  run: %.200s", got.Bytes(), want)
	}

	// A target the testbed lacks (24 OSTs, 4 DataNodes) is an error
	// naming the rule before anything runs, not a panic in the kernel.
	for _, bad := range []struct{ plan, want string }{
		{`{"rules":[{"kind":"ost-outage","at":0.5,"until":2,"target":99}]}`, "rule 0 (ost-outage): target 99 outside the testbed's 24 OSTs"},
		{`{"rules":[{"kind":"flaky-reads","at":0,"rate":0.1},{"kind":"dn-crash","at":1,"target":42}]}`, "rule 1 (dn-crash): target 42 outside the testbed's 4 DataNodes"},
	} {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, []byte(bad.plan), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runAnalyze(io.Discard, []string{"-chaos", path}); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("analyze -chaos %s: %v; want an error containing %q", bad.plan, err, bad.want)
		}
	}
}
