package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads a result set: a directory of result-*.json files (an
// -out directory) or one file holding one or more result objects.
func loadResults(path string) ([]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(f)
		for {
			r := &result{}
			if err := dec.Decode(r); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			out = append(out, r)
		}
		f.Close()
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

type seriesKey struct {
	workload, metric string
}

func series(results []*result) map[seriesKey][]float64 {
	out := map[seriesKey][]float64{}
	for _, r := range results {
		for name, m := range r.Metrics {
			k := seriesKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / med
}

// compare prints, per workload and metric, both sets' medians, the ratio
// b/a with a as its base, the bound and a status: ok, worse (b's median
// is worse than a's by more than the bound) or unresolved (either set's
// quartiles lie further apart than the bound, so the medians cannot tell).
// Per-layer metrics have no bound and read info. It also reports whether
// runs with the same workload and seed produced the same outputs, event
// counts and exact metrics. The return value is true when any row is
// worse.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	sa, sb := series(a), series(b)
	anyWorse := false
	fmt.Fprintf(w, "%-15s %-36s %14s %14s %9s %6s  %s\n", "workload", "metric", "a median", "b median", "b/a", "bound", "status")
	for _, c := range catalog {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := sa[seriesKey{c.Name, d.Name}], sb[seriesKey{c.Name, d.Name}]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				ratio := 1.0
				if ma != 0 {
					ratio = mb / ma
				}
				status := "info"
				if d.Layer == "" {
					loss := ratio - 1
					if d.Better == higher {
						loss = 1 - ratio
					}
					switch {
					case loss > d.Bound:
						status = "worse"
						anyWorse = true
					case spread(va) > d.Bound || spread(vb) > d.Bound:
						status = "unresolved"
					default:
						status = "ok"
					}
				}
				fmt.Fprintf(w, "%-15s %-36s %14.6g %14.6g %9.4f %6g  %s (n=%d,%d)\n",
					c.Name, d.Name, ma, mb, ratio, d.Bound, status, len(va), len(vb))
			}
		}
	}
	type runKey struct {
		workload string
		seed     int64
		traced   bool
	}
	digests := map[runKey]*result{}
	for _, r := range a {
		digests[runKey{r.Workload, r.Env.Seed, r.Traced}] = r
	}
	same, differ := 0, 0
	for _, r := range b {
		ra, ok := digests[runKey{r.Workload, r.Env.Seed, r.Traced}]
		if !ok {
			continue
		}
		var moved []string
		if ra.OutputDigest != r.OutputDigest {
			moved = append(moved, fmt.Sprintf("output digest %.12s/%.12s", ra.OutputDigest, r.OutputDigest))
		}
		if fmt.Sprint(ra.Events) != fmt.Sprint(r.Events) {
			moved = append(moved, fmt.Sprintf("sim events %v/%v", ra.Events, r.Events))
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				ma, oka := ra.Metrics[d.Name]
				mb, okb := r.Metrics[d.Name]
				if d.Exact && oka && okb && ma.Value != mb.Value {
					moved = append(moved, fmt.Sprintf("%s %v/%v", d.Name, ma.Value, mb.Value))
				}
			}
		}
		if len(moved) == 0 {
			same++
			continue
		}
		differ++
		fmt.Fprintf(w, "exact figures differ: %s seed %d: %s\n", r.Workload, r.Env.Seed, strings.Join(moved, "; "))
	}
	fmt.Fprintf(w, "outputs, event counts and exact metrics: %d run pairs identical, %d differ\n", same, differ)
	return anyWorse, nil
}
