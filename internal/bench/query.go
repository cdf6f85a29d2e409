package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"scidp/internal/aquery"
	"scidp/internal/cluster"
	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/pfs"
	"scidp/internal/rsql"
	"scidp/internal/sim"
)

// This file is the chunk-pushdown query experiment: selective SQL over a
// NU-WRF-shaped variable served from the PFS, run twice per query — once
// with the planner's zone-map pruning and projection (pushdown), once in
// the full-scan oracle mode (every chunk read and decoded, like the
// fair-share experiment's FairShareFull control). The two modes must
// produce byte-identical result frames; the bench errors out otherwise.
// A third pushdown run with a fresh registry checks that the metric
// export is deterministic. The -json artifact carries chunk and byte
// accounting plus the digests; TestQuerySweep holds MinSkipRatio to its
// floor.

// queryLevels is the experiment geometry's level count, fixed regardless
// of -quick so the level-selective queries keep an exact 10x chunk
// selectivity (one chunk per level).
const queryLevels = 10

// QueryRun is one mode's measurement of one query.
type QueryRun struct {
	ChunksScanned int     `json:"chunks_scanned"`
	ChunksSkipped int     `json:"chunks_skipped"`
	BytesInflated int64   `json:"bytes_inflated"`
	BytesAvoided  int64   `json:"bytes_avoided"`
	RowsMatched   int     `json:"rows_matched"`
	VirtualSecs   float64 `json:"virtual_secs"`
	WallSecs      float64 `json:"wall_secs"`
	// ResultDigest is the first 8 bytes, in hex, of the sha256 of the
	// result frame's CSV rendering.
	ResultDigest string `json:"result_digest"`
	// MetricsDigest is the first 8 bytes, in hex, of the sha256 of the
	// run's full Prometheus export, hashed as it streams.
	MetricsDigest string `json:"metrics_digest"`
}

// QueryPoint is one query's pushdown-vs-oracle comparison.
type QueryPoint struct {
	Name        string   `json:"name"`
	SQL         string   `json:"sql"`
	ChunksTotal int      `json:"chunks_total"`
	Pushdown    QueryRun `json:"pushdown"`
	Oracle      QueryRun `json:"oracle"`
	// RepeatMetricsDigest is the metrics digest of a second same-seed
	// pushdown run; determinism requires it to equal Pushdown's.
	RepeatMetricsDigest string `json:"repeat_metrics_digest"`
	// ChunkSkipRatio is oracle chunks decoded / pushdown chunks decoded.
	ChunkSkipRatio float64 `json:"chunk_skip_ratio"`
	// ByteSkipRatio is oracle bytes inflated / pushdown bytes inflated.
	ByteSkipRatio float64 `json:"byte_skip_ratio"`
	// DigestsMatch records pushdown == oracle result bytes.
	DigestsMatch bool `json:"digests_match"`
	// Deterministic records pushdown repeat == first run metric bytes.
	Deterministic bool `json:"deterministic"`
}

// QueryResult is the machine-readable output (scidp-bench -json).
type QueryResult struct {
	Levels int          `json:"levels"`
	Lat    int          `json:"lat"`
	Lon    int          `json:"lon"`
	Points []QueryPoint `json:"points"`
}

// MinSkipRatio returns the weakest pruning across points — the smaller
// of the chunk and byte ratios, minimized over queries (0 with no
// points).
func (r *QueryResult) MinSkipRatio() float64 {
	min := 0.0
	for i, p := range r.Points {
		m := math.Min(p.ChunkSkipRatio, p.ByteSkipRatio)
		if i == 0 || m < min {
			min = m
		}
	}
	return min
}

// queryFile generates the experiment's variable: QR[level][lat][lon],
// one chunk per level, values rising with level so value-threshold
// predicates prune through the zone maps alone.
func queryFile(lat, lon int) ([]byte, error) {
	w := netcdf.NewWriter()
	w.AddDim("level", queryLevels)
	w.AddDim("lat", lat)
	w.AddDim("lon", lon)
	if err := w.AddVar("QR", netcdf.Float32, []string{"level", "lat", "lon"},
		netcdf.Chunking{Shape: []int{1, lat, lon}, Deflate: 1}); err != nil {
		return nil, err
	}
	per := lat * lon
	vals := make([]float32, queryLevels*per)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/37.0) + 2.5*float64(i/per))
	}
	if err := w.PutVarFloat32("QR", vals); err != nil {
		return nil, err
	}
	return w.Bytes()
}

const queryPath = "/query/plot_all.nc"

// queryRunOnce executes one SQL query over the file served from a fresh
// PFS testbed, with the chunk scans offloaded to a 4-worker data plane.
func queryRunOnce(s Scale, blob []byte, sql string, mode rsql.PushdownMode) (QueryRun, error) {
	bs := s.ByteScale()
	k := sim.NewKernel()
	pool := sim.NewComputePool(4)
	defer pool.Close()
	k.SetComputePool(pool)
	reg := obs.New()
	k.SetObs(reg)
	bd := cluster.New(k, "bd", cluster.DefaultHardware(4, 8).Scaled(bs))
	fs := pfs.New(k, pfs.DefaultConfig().Scaled(bs))
	il := cluster.NewInterlink(2*1.25e9/bs, 0.0002)
	fs.Put(queryPath, blob)

	var run QueryRun
	var errOut error
	wallStart := time.Now()
	k.Go("query", func(p *sim.Proc) {
		client := fs.NewClient(il.Link, bd.Node(0).NIC)
		eng, err := client.Engine(p, queryPath)
		if err != nil {
			errOut = err
			return
		}
		b := ioengine.Bind(p, eng, ioengine.Options{Cache: ioengine.NewCache(1 << 22), Prefetch: 2, Obs: reg})
		f, err := netcdf.Open(b)
		if err != nil {
			errOut = err
			return
		}
		tab, err := aquery.NewNetCDF(f, "QR")
		if err != nil {
			errOut = err
			return
		}
		out, st, err := rsql.QueryArrays(map[string]rsql.ArrayTable{"qr": tab}, sql, rsql.ArrayQueryOpts{Mode: mode, Obs: reg})
		if err != nil {
			errOut = err
			return
		}
		run.ChunksScanned = st.ChunksScanned
		run.ChunksSkipped = st.ChunksSkipped
		run.BytesInflated = st.BytesInflated
		run.BytesAvoided = st.BytesAvoided
		run.RowsMatched = st.RowsMatched
		sum := sha256.Sum256(out.WriteCSV())
		run.ResultDigest = hex.EncodeToString(sum[:8])
	})
	k.Run()
	if errOut != nil {
		return QueryRun{}, errOut
	}
	run.VirtualSecs = k.Now()
	run.WallSecs = time.Since(wallStart).Seconds()
	prom := sha256.New()
	if err := reg.WritePrometheus(prom); err != nil {
		return QueryRun{}, err
	}
	run.MetricsDigest = hex.EncodeToString(prom.Sum(nil)[:8])
	return run, nil
}

// zoneMapThreshold picks a value threshold from the written file's own
// zone maps: the midpoint between the largest and second-largest chunk
// maxima, so exactly one chunk can contain matching rows — a pure
// statistics-driven 10x selectivity, independent of the data formula.
func zoneMapThreshold(blob []byte) (float64, error) {
	f, err := netcdf.Open(netcdf.BytesReader(blob))
	if err != nil {
		return 0, err
	}
	v, err := f.Var("QR")
	if err != nil {
		return 0, err
	}
	first, second := math.Inf(-1), math.Inf(-1)
	for _, c := range v.Chunks {
		if c.Stats.Max > first {
			first, second = c.Stats.Max, first
		} else if c.Stats.Max > second {
			second = c.Stats.Max
		}
	}
	return (first + second) / 2, nil
}

// RunQuery runs the pushdown experiment and returns the table plus the
// machine-readable result. A digest mismatch between modes, or a
// nondeterministic repeat, is an error, not a table row.
func RunQuery(s Scale) (*Table, *QueryResult, error) {
	blob, err := queryFile(s.Lat, s.Lon)
	if err != nil {
		return nil, nil, err
	}
	thresh, err := zoneMapThreshold(blob)
	if err != nil {
		return nil, nil, err
	}
	latCut := s.Lat / 10
	if latCut < 1 {
		latCut = 1
	}
	points := []struct{ name, sql string }{
		{"topk-sel10", `SELECT lat, lon, value FROM qr WHERE level = 5 ORDER BY value DESC LIMIT 16`},
		{"range-sel100", fmt.Sprintf(`SELECT lat, lon, value FROM qr WHERE level = 5 AND lat < %d`, latCut)},
		{"agg-sel10", `SELECT level, COUNT(*), SUM(value), MAX(value) FROM qr WHERE level >= 9 GROUP BY level ORDER BY level`},
		{"zonemap-topk", fmt.Sprintf(`SELECT level, value FROM qr WHERE value > %g ORDER BY value DESC LIMIT 16`, thresh)},
	}
	res := &QueryResult{Levels: queryLevels, Lat: s.Lat, Lon: s.Lon}
	t := &Table{
		ID:     "Query",
		Title:  "Chunk-pushdown query engine: zone-map pruning vs full-scan oracle",
		Header: []string{"query", "mode", "chunks", "skipped", "KB inflated", "KB avoided", "rows", "virt s", "speedup"},
	}
	for _, q := range points {
		push, err := queryRunOnce(s, blob, q.sql, rsql.Pushdown)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: query %s (pushdown): %w", q.name, err)
		}
		oracle, err := queryRunOnce(s, blob, q.sql, rsql.PushdownOff)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: query %s (oracle): %w", q.name, err)
		}
		repeat, err := queryRunOnce(s, blob, q.sql, rsql.Pushdown)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: query %s (repeat): %w", q.name, err)
		}
		pt := QueryPoint{
			Name: q.name, SQL: q.sql,
			ChunksTotal:         push.ChunksScanned + push.ChunksSkipped,
			Pushdown:            push,
			Oracle:              oracle,
			RepeatMetricsDigest: repeat.MetricsDigest,
			DigestsMatch:        push.ResultDigest == oracle.ResultDigest,
			Deterministic:       repeat.MetricsDigest == push.MetricsDigest && repeat.ResultDigest == push.ResultDigest,
		}
		if push.ChunksScanned > 0 {
			pt.ChunkSkipRatio = float64(oracle.ChunksScanned) / float64(push.ChunksScanned)
		}
		if push.BytesInflated > 0 {
			pt.ByteSkipRatio = float64(oracle.BytesInflated) / float64(push.BytesInflated)
		}
		if !pt.DigestsMatch {
			return nil, nil, fmt.Errorf("bench: query %s: pushdown result %s != oracle result %s",
				q.name, push.ResultDigest, oracle.ResultDigest)
		}
		if !pt.Deterministic {
			return nil, nil, fmt.Errorf("bench: query %s: repeat run diverged (metrics %s vs %s)",
				q.name, repeat.MetricsDigest, push.MetricsDigest)
		}
		res.Points = append(res.Points, pt)
		for _, m := range []struct {
			label string
			r     QueryRun
		}{{"pushdown", push}, {"oracle", oracle}} {
			t.AddRow(q.name, m.label,
				fmt.Sprintf("%d/%d", m.r.ChunksScanned, pt.ChunksTotal),
				fmt.Sprintf("%d", m.r.ChunksSkipped),
				fmt.Sprintf("%.1f", float64(m.r.BytesInflated)/1e3),
				fmt.Sprintf("%.1f", float64(m.r.BytesAvoided)/1e3),
				fmt.Sprintf("%d", m.r.RowsMatched),
				fmt.Sprintf("%.4f", m.r.VirtualSecs),
				ratio(oracle.VirtualSecs/push.VirtualSecs))
		}
	}
	t.Notes = append(t.Notes,
		"result frames are byte-identical between pushdown and oracle (digest-checked; a mismatch fails the run)",
		"metric exports are byte-identical across same-seed pushdown repeats (digest-checked)",
		fmt.Sprintf("min skip ratio %.1fx (chunks decoded and bytes inflated, oracle/pushdown)", res.MinSkipRatio()),
		"geometry fixed at 10 levels x lat x lon, one chunk per level, so level-selective queries are exactly 10x selective")
	return t, res, nil
}
