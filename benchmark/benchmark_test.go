package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json to the tables in
// metrics.go and workloads.go, and both to the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(catalog) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog", len(m.Workloads), len(catalog))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != catalog[i].Name || w.Why != catalog[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the catalog %q (%q)", i, w.Name, w.Why, catalog[i].Name, catalog[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			unique(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is outside the driver's alphabet", g.Name, g.Unit)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], metrics.go %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if g.Better != lower && g.Better != higher {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in metrics.go; want the same, in (0, 0.25]", g.Name, g.Bound, d.Bound)
			case !bounded && (g.Bound != nil || d.Bound != 0 || d.Layer == ""):
				t.Errorf("%s: a per-layer metric has a layer and no bound", g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's limits", len(m.EndToEnd), len(m.PerLayer))
	}
	var setup *metricDef
	for i := range endToEnd {
		if endToEnd[i].Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// smokeRuns holds two untraced and two traced smoke runs of every
// workload with seed 1; the tests below share them.
type smokeRuns struct {
	untraced, traced [2]*result
	dirs             [2]string
}

var (
	smokeOnce sync.Once
	smoke     map[string]*smokeRuns
	smokeErr  error
	// artifacts is where the traced smoke runs write; TestMain removes it.
	artifacts string
)

func TestMain(m *testing.M) {
	var err error
	if artifacts, err = os.MkdirTemp("", "scidp-benchmark-test"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(artifacts)
	os.Exit(code)
}

func smokeResults(t *testing.T) map[string]*smokeRuns {
	t.Helper()
	smokeOnce.Do(func() {
		smoke = map[string]*smokeRuns{}
		root := artifacts
		var err error
		for _, info := range catalog {
			runs := &smokeRuns{}
			for i := range runs.untraced {
				if runs.untraced[i], err = runUntraced(info, smokeSizes, 1, 0); err != nil {
					smokeErr = err
					return
				}
				runs.dirs[i] = filepath.Join(root, info.Name, string(rune('a'+i)))
				if runs.traced[i], err = runTraced(info, smokeSizes, 1, runs.dirs[i]); err != nil {
					smokeErr = err
					return
				}
			}
			smoke[info.Name] = runs
		}
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smoke
}

// TestEveryMetricOnce: every workload emits every named metric exactly
// once, finite, and passes its own output checks.
func TestEveryMetricOnce(t *testing.T) {
	for name, runs := range smokeResults(t) {
		for _, c := range []struct {
			res  *result
			defs []metricDef
		}{{runs.untraced[0], endToEnd}, {runs.traced[0], perLayer}} {
			if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", name, c.res.Correct, c.res.Attempted, c.res.Failed, c.res.Problems)
			}
			if len(c.res.Metrics) != len(c.defs) {
				t.Errorf("%s: %d metrics, want %d", name, len(c.res.Metrics), len(c.defs))
			}
			for _, d := range c.defs {
				m, ok := c.res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s: metric %s = %+v (present %v)", name, d.Name, m, ok)
				}
				if d.Layer == "" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestExactMetricsRepeat: every virtual figure, counter and digest is
// bit-identical across two in-process runs. (Inside each traced run the
// same holds across Workers 2, Workers 2 with tracing and Workers -1,
// or the run would not be correct.)
func TestExactMetricsRepeat(t *testing.T) {
	for name, runs := range smokeResults(t) {
		for _, c := range []struct {
			a, b *result
			defs []metricDef
		}{{runs.untraced[0], runs.untraced[1], endToEnd}, {runs.traced[0], runs.traced[1], perLayer}} {
			for _, d := range c.defs {
				va, vb := c.a.Metrics[d.Name].Value, c.b.Metrics[d.Name].Value
				if d.Exact && math.Float64bits(va) != math.Float64bits(vb) {
					t.Errorf("%s: %s = %v then %v", name, d.Name, va, vb)
				}
			}
			if c.a.OutputDigest != c.b.OutputDigest || c.a.InputDigest != c.b.InputDigest {
				t.Errorf("%s: digests differ between two runs of one seed", name)
			}
		}
	}
}

// TestWorkerCountInvariance runs one iteration with two workers and one
// with the inline pool and compares outputs, event count and virtual time.
func TestWorkerCountInvariance(t *testing.T) {
	for _, info := range catalog {
		w := info.make(smokeSizes)
		if err := w.setup(1, nil); err != nil {
			t.Fatal(err)
		}
		pooled, err := w.iterate(0, runOpts{workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		inline, err := w.iterate(0, runOpts{workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if d := differs(inline, pooled); d != nil {
			t.Errorf("%s: Workers -1 vs 2: %v", info.Name, d)
		}
	}
}

// TestSeedChangesInputs: another seed gives another dataset or trace.
func TestSeedChangesInputs(t *testing.T) {
	for _, info := range catalog {
		var digests [2]string
		for i := range digests {
			w := info.make(smokeSizes)
			if err := w.setup(int64(i+1), nil); err != nil {
				t.Fatal(err)
			}
			digests[i] = w.inputDigest()
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", info.Name)
		}
		if smokeResults(t)[info.Name].untraced[0].InputDigest != digests[0] {
			t.Errorf("%s: seed 1 does not reproduce its inputs", info.Name)
		}
	}
}

// TestSpansTile: in spans.json each workload's top-level spans tile the
// traced wall time, and no span's self time is negative.
func TestSpansTile(t *testing.T) {
	for name, runs := range smokeResults(t) {
		data, err := os.ReadFile(filepath.Join(runs.dirs[0], "spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		var tops []span
		layers := map[string]bool{}
		for _, s := range file.Spans {
			if s.SelfNS < 0 || s.EndNS < s.StartNS || s.Workload != name {
				t.Errorf("%s: bad span %+v", name, s)
			}
			if s.Parent == 0 {
				tops = append(tops, s)
			}
			layers[s.Layer] = true
		}
		if len(tops) < 5 {
			t.Fatalf("%s: %d top-level spans", name, len(tops))
		}
		for i := 1; i < len(tops); i++ {
			if tops[i].StartNS != tops[i-1].EndNS {
				t.Errorf("%s: gap between %s and %s", name, tops[i-1].Name, tops[i].Name)
			}
		}
		for _, l := range []string{"solutions", "workloads", "pipeline", "sim", "hdfs", "mapreduce", "obs"} {
			if !layers[l] {
				t.Errorf("%s: no span for layer %s", name, l)
			}
		}
		for _, f := range []string{"trace.json", "analysis.json", "cpu.pprof"} {
			if st, err := os.Stat(filepath.Join(runs.dirs[0], f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: artifact %s missing or empty (%v)", name, f, err)
			}
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("w")
	tr.top("a")
	tr.do("child", func() { tr.do("grandchild", func() {}) })
	tr.top("b")
	spans := tr.finish()
	if len(spans) != 4 || spans[0].Name != "a" || spans[1].Parent != 1 || spans[2].Parent != 2 || spans[3].Parent != 0 {
		t.Fatalf("unexpected tree: %+v", spans)
	}
	if spans[0].EndNS != spans[3].StartNS {
		t.Errorf("top-level spans do not tile: %+v", spans)
	}
	var self, total int64
	for _, s := range spans {
		self += s.SelfNS
	}
	total = spans[3].EndNS - spans[0].StartNS
	if self != total {
		t.Errorf("self times sum to %d ns, the run took %d", self, total)
	}
}

// TestCompare covers the three statuses and the exit condition.
func TestCompare(t *testing.T) {
	set := func(wall, jct []float64) string {
		var buf bytes.Buffer
		for i := range wall {
			r := &result{Workload: "terasort", Env: envHeader{Seed: int64(i)}, OutputDigest: "d"}
			r.Metrics = map[string]metricValue{
				"iter_wall_s_p50": {Value: wall[i], Unit: "s"},
				"jct_virtual_s":   {Value: jct[i], Unit: "virtual_s"},
			}
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(data)
			buf.WriteByte('\n')
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set([]float64{1.00, 1.01, 0.99, 1.00}, []float64{9, 9, 9, 9})
	for _, c := range []struct {
		name  string
		other string
		worse bool
		want  []string
	}{
		{"same", set([]float64{1.02, 1.00, 1.01, 1.03}, []float64{9, 9, 9, 9}), false,
			[]string{"iter_wall_s_p50 ok", "jct_virtual_s ok", "4 run pairs identical, 0 differ"}},
		{"slower", set([]float64{1.30, 1.31, 1.29, 1.30}, []float64{9, 9, 9, 9}), true,
			[]string{"iter_wall_s_p50 worse", "jct_virtual_s ok"}},
		{"faster", set([]float64{0.50, 0.51, 0.49, 0.50}, []float64{8, 8, 8, 8}), false,
			[]string{"iter_wall_s_p50 ok", "jct_virtual_s ok"}},
		{"noisy", set([]float64{0.8, 1.3, 0.7, 1.2}, []float64{8.8, 9.2, 8.7, 9.3}), false,
			[]string{"iter_wall_s_p50 unresolved", "jct_virtual_s unresolved"}},
		{"virtual moved", set([]float64{1, 1, 1, 1}, []float64{9.1, 9.1, 9.1, 9.1}), true,
			[]string{"iter_wall_s_p50 ok", "jct_virtual_s worse"}},
	} {
		var out bytes.Buffer
		worse, err := compare(&out, base, c.other)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.worse, out.String())
		}
		// Collapse the table's columns to "metric status".
		var rows []string
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 7 && f[0] == "terasort" {
				rows = append(rows, f[1]+" "+f[6])
			} else {
				rows = append(rows, line)
			}
		}
		for _, want := range c.want {
			found := false
			for _, row := range rows {
				found = found || strings.Contains(row, want)
			}
			if !found {
				t.Errorf("%s: no row %q in\n%s", c.name, want, out.String())
			}
		}
	}
}
