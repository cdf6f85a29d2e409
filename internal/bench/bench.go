// Package bench regenerates every table and figure of the SciDP paper's
// evaluation (Section V): Figure 2 (HDFS vs. Lustre connector), Tables
// I-III, Figure 5 (total execution time across solutions and dataset
// sizes), Figure 6 (I/O bandwidth vs. reader count), Figure 7 (per-task
// time decomposition), Figure 8 (scale-out), and Figure 9 (SQL analysis),
// plus ablations of SciDP's design choices. Each experiment returns a
// Table whose rows mirror what the paper reports; absolute numbers are
// virtual seconds on the simulated testbed, so the shapes — who wins, by
// what factor, where crossovers fall — are the reproduction target.
package bench

import (
	"fmt"
	"strings"

	"scidp/internal/obs"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

// Obs, when set before running experiments, attaches the observability
// registry to every testbed the experiments build: runs produce spans,
// component metrics, and resource timelines in it, ready for the
// Chrome-trace and Prometheus exporters. Leave nil (the default) for
// instrumentation-free runs.
var Obs *obs.Registry

// obsEnvConfig stamps the shared registry into a testbed config and
// names the run's process group (how trace rows are grouped per run).
func obsEnvConfig(cfg solutions.EnvConfig, process string) solutions.EnvConfig {
	if Obs != nil {
		cfg.Obs = Obs
		Obs.SetProcess(process)
	}
	return cfg
}

// PaperVarRawBytes is the paper's per-variable raw size: "Each variable
// is about 298MB in raw binary format".
const PaperVarRawBytes = 298e6

// PaperLevels is the NU-WRF vertical resolution (50 levels).
const PaperLevels = 50

// Table is one experiment's output.
type Table struct {
	// ID names the paper artifact ("Figure 5").
	ID string
	// Title describes the experiment.
	Title string
	// Header labels the columns.
	Header []string
	// Rows are the data rows, already formatted.
	Rows [][]string
	// Notes carry caveats (scaling, substitutions).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Markdown renders the table as a GitHub-flavored markdown section —
// what EXPERIMENTS.md embeds.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", t.ID, t.Title)
	row := func(cells []string) {
		sb.WriteString("|")
		for _, c := range cells {
			sb.WriteString(" " + c + " |")
		}
		sb.WriteByte('\n')
	}
	row(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	return sb.String()
}

// String renders the table column-aligned.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Scale fixes the generated-data geometry and the derived scale factors.
type Scale struct {
	// Levels, Lat, Lon are the generated grid dimensions.
	Levels, Lat, Lon int
	// Vars is the variable count (23 in the paper).
	Vars int
}

// DefaultScale is the geometry the benchmarks run at: 10x40x40 cells per
// variable, 23 variables — 1/4656 of the paper's bytes per variable.
func DefaultScale() Scale {
	return Scale{Levels: 10, Lat: 40, Lon: 40, Vars: workloads.NUWRFVars}
}

// QuickScale is a smaller geometry for tests and -quick runs.
func QuickScale() Scale {
	return Scale{Levels: 5, Lat: 24, Lon: 24, Vars: 8}
}

// ByteScale returns logical-bytes-per-actual-byte for this geometry.
func (s Scale) ByteScale() float64 {
	ourRaw := float64(s.Levels*s.Lat*s.Lon) * 4
	return PaperVarRawBytes / ourRaw
}

// LevelScale returns paper-levels-per-generated-level.
func (s Scale) LevelScale() float64 { return float64(PaperLevels) / float64(s.Levels) }

// Spec builds the generator spec for a timestamp count.
func (s Scale) Spec(timestamps int) workloads.NUWRFSpec {
	return workloads.NUWRFSpec{
		Timestamps: timestamps,
		Levels:     s.Levels, Lat: s.Lat, Lon: s.Lon,
		Vars: s.Vars, Deflate: 1, Dir: "/nuwrf",
	}
}

// EnvConfig builds the solution testbed config for this scale.
func (s Scale) EnvConfig(nodes int) solutions.EnvConfig {
	cfg := solutions.DefaultEnvConfig(s.ByteScale(), s.LevelScale())
	if nodes > 0 {
		cfg.Nodes = nodes
	}
	return cfg
}

// datasetCache memoizes generated blobs per (scale, timestamps): the
// paper's sweep reuses one dataset per size across the five solutions.
type datasetKey struct {
	scale Scale
	ts    int
}

var blobCache = map[datasetKey]cachedDataset{}

type cachedDataset struct {
	blobs map[string][]byte
	ds    *workloads.Dataset
}

// dataset returns (possibly cached) generated blobs for a sweep point.
func dataset(s Scale, timestamps int) (map[string][]byte, *workloads.Dataset, error) {
	key := datasetKey{scale: s, ts: timestamps}
	if c, ok := blobCache[key]; ok {
		return c.blobs, c.ds, nil
	}
	blobs, ds, err := workloads.GenerateBlobs(s.Spec(timestamps))
	if err != nil {
		return nil, nil, err
	}
	blobCache[key] = cachedDataset{blobs: blobs, ds: ds}
	return blobs, ds, nil
}

func secs(v float64) string { return fmt.Sprintf("%.1f", v) }

func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }
