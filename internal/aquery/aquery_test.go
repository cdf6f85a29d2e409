package aquery

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/rframe"
	"scidp/internal/rsql"
	"scidp/internal/sim"
)

// memEngine is an engine-level ReaderAt over a blob with a fixed virtual
// latency per call, so reads advance the simulated clock.
type memEngine struct {
	data    []byte
	latency float64
}

func (m *memEngine) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	p.Sleep(m.latency)
	return ioengine.Bytes(m.data).ReadAt(off, n)
}

func (m *memEngine) Size() int64 { return int64(len(m.data)) }

// buildNC writes a NU-WRF-shaped netcdf blob: QR(level=6, lat=4, lon=5)
// chunked one level per chunk, deterministic values, zone maps on.
func buildNC(t *testing.T) ([]byte, []float32) {
	t.Helper()
	w := netcdf.NewWriter()
	for _, d := range []struct {
		name string
		n    int
	}{{"level", 6}, {"lat", 4}, {"lon", 5}} {
		if err := w.AddDim(d.name, d.n); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddVar("QR", netcdf.Float32, []string{"level", "lat", "lon"}, netcdf.Chunking{Shape: []int{1, 4, 5}, Deflate: 2}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 6*4*5)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/7.0) + float64(i/20))
	}
	if err := w.PutVarFloat32("QR", vals); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob, vals
}

// legacyNCFrame materializes the same rows the adapter exposes, in the
// adapter's row order (chunk order × row-major — global row-major here,
// since chunks are whole level slabs).
func legacyNCFrame(vals []float32) *rframe.Frame {
	var level, lat, lon []int64
	var value []float64
	for i, v := range vals {
		level = append(level, int64(i/20))
		lat = append(lat, int64((i/5)%4))
		lon = append(lon, int64(i%5))
		value = append(value, float64(v))
	}
	return rframe.New().MustAddInt("level", level).MustAddInt("lat", lat).
		MustAddInt("lon", lon).MustAddFloat("value", value)
}

// queryNC runs one SQL query over the netcdf adapter inside a kernel,
// with the blob served through a bound engine (cache + prefetch) and the
// scan offloaded to a compute pool of the given size (-1 = no pool).
// It returns the result CSV, the scan stats, and the registry the query
// reported to.
func queryNC(t *testing.T, blob []byte, sql string, mode rsql.PushdownMode, workers int) ([]byte, *rsql.ScanStats, *obs.Registry) {
	t.Helper()
	k := sim.NewKernel()
	if workers >= 0 {
		pool := sim.NewComputePool(workers)
		defer pool.Close()
		k.SetComputePool(pool)
	}
	reg := obs.New()
	k.SetObs(reg)
	var csv []byte
	var stats *rsql.ScanStats
	k.Go("query", func(p *sim.Proc) {
		b := ioengine.Bind(p, &memEngine{data: blob, latency: 0.001}, ioengine.Options{Cache: ioengine.NewCache(1 << 20), Prefetch: 2, Obs: reg})
		f, err := netcdf.Open(b)
		if err != nil {
			panic(err)
		}
		tab, err := NewNetCDF(f, "QR")
		if err != nil {
			panic(err)
		}
		out, st, err := rsql.QueryArrays(map[string]rsql.ArrayTable{"qr": tab}, sql, rsql.ArrayQueryOpts{Mode: mode, Obs: reg})
		if err != nil {
			panic(err)
		}
		csv = out.WriteCSV()
		stats = st
	})
	k.Run()
	return csv, stats, reg
}

// promOf is reg's full Prometheus export.
func promOf(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return prom.Bytes()
}

// TestNetCDFAdapterVsLegacy compares adapter queries against the legacy
// executor over a materialized frame. Aggregates use a tolerance — their
// partial sums merge in chunk order, not global row order.
func TestNetCDFAdapterVsLegacy(t *testing.T) {
	blob, vals := buildNC(t)
	legacy := legacyNCFrame(vals)
	queries := []struct {
		sql string
		tol float64
	}{
		{`SELECT * FROM qr WHERE level = 3 AND value > 3.2 ORDER BY value DESC LIMIT 5`, 0},
		{`SELECT lat, lon, value FROM qr WHERE level >= 4 AND lat = 2`, 0},
		{`SELECT level, COUNT(*), SUM(value), MAX(value), AVG(value) FROM qr WHERE value > 1.0 GROUP BY level ORDER BY level`, 1e-12},
		{`SELECT lon FROM qr WHERE level = 2 AND lat = 1 ORDER BY lon`, 0},
		{`SELECT COUNT(*) FROM qr WHERE value > 100`, 0},
	}
	for _, q := range queries {
		gotCSV, _, _ := queryNC(t, blob, q.sql, rsql.Pushdown, -1)
		want, err := rsql.Query(map[string]*rframe.Frame{"qr": legacy}, q.sql)
		if err != nil {
			t.Fatalf("legacy %q: %v", q.sql, err)
		}
		if q.tol == 0 {
			if !bytes.Equal(gotCSV, want.WriteCSV()) {
				t.Fatalf("%q differs from legacy:\n%svs\n%s", q.sql, gotCSV, want.WriteCSV())
			}
			continue
		}
		got, err := rframe.ReadTable(gotCSV)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("%q: %d rows vs legacy %d", q.sql, got.NumRows(), want.NumRows())
		}
		for _, name := range want.Names() {
			gc, wc := got.Col(name), want.Col(name)
			if gc == nil {
				t.Fatalf("%q: missing column %s", q.sql, name)
			}
			for r := 0; r < want.NumRows(); r++ {
				a, b := gc.Float64At(r), wc.Float64At(r)
				if a != b && math.Abs(a-b) > q.tol*math.Max(math.Abs(a), math.Abs(b)) {
					t.Fatalf("%q: %s[%d] = %v vs legacy %v", q.sql, name, r, a, b)
				}
			}
		}
	}
}

// TestNetCDFPruningAndProjection checks zone-map pruning really happens
// through the adapter, and geometry-only queries never inflate payloads.
func TestNetCDFPruningAndProjection(t *testing.T) {
	blob, _ := buildNC(t)
	_, st, _ := queryNC(t, blob, `SELECT value FROM qr WHERE level = 3`, rsql.Pushdown, -1)
	if st.ChunksScanned != 1 || st.ChunksSkipped != 5 {
		t.Fatalf("level pruning: %+v", st)
	}
	if st.BytesAvoided == 0 || st.StoredAvoided == 0 {
		t.Fatalf("no bytes avoided: %+v", st)
	}
	// Values climb with level (the +i/20 term): a high threshold prunes
	// low levels via the write-time zone maps alone.
	_, st2, _ := queryNC(t, blob, `SELECT value FROM qr WHERE value > 4.5`, rsql.Pushdown, -1)
	if st2.ChunksSkipped < 3 {
		t.Fatalf("zone maps should prune low levels: %+v", st2)
	}
	// Geometry-only projection: payloads never decoded.
	_, st3, _ := queryNC(t, blob, `SELECT lon FROM qr WHERE level = 2 AND lat = 1`, rsql.Pushdown, -1)
	if st3.BytesInflated != 0 || st3.StoredRead != 0 {
		t.Fatalf("geometry-only query inflated payloads: %+v", st3)
	}
}

// TestWorkerCountInvariance runs the same query at several data-plane
// widths: results AND the full obs export (counters, spans, virtual
// clock) must be byte-identical — the two-plane determinism contract.
func TestWorkerCountInvariance(t *testing.T) {
	blob, _ := buildNC(t)
	const sql = `SELECT level, COUNT(*), SUM(value) FROM qr WHERE value > 1.0 GROUP BY level ORDER BY level`
	baseCSV, _, baseReg := queryNC(t, blob, sql, rsql.Pushdown, -1)
	baseExp := promOf(t, baseReg)
	for _, workers := range []int{1, 4, 8} {
		csv, _, reg := queryNC(t, blob, sql, rsql.Pushdown, workers)
		if !bytes.Equal(csv, baseCSV) {
			t.Fatalf("workers=%d: result differs:\n%svs\n%s", workers, csv, baseCSV)
		}
		if !bytes.Equal(promOf(t, reg), baseExp) {
			t.Fatalf("workers=%d: obs export differs", workers)
		}
	}
}

// TestObsExportDeterminism pins the satellite requirement: two same-seed
// runs of the same mode produce byte-identical metric exports, and the
// query counters are populated, and the rsql/query span carries the
// query's table, mode and scan accounting.
func TestObsExportDeterminism(t *testing.T) {
	blob, _ := buildNC(t)
	const sql = `SELECT * FROM qr WHERE level = 4 AND value > 4.0`
	csv1, st, reg1 := queryNC(t, blob, sql, rsql.Pushdown, 2)
	csv2, _, reg2 := queryNC(t, blob, sql, rsql.Pushdown, 2)
	exp1, exp2 := promOf(t, reg1), promOf(t, reg2)
	if !bytes.Equal(csv1, csv2) || !bytes.Equal(exp1, exp2) {
		t.Fatal("same-seed runs diverged")
	}
	if !bytes.Contains(exp1, []byte("query_chunks_skipped_total")) ||
		!bytes.Contains(exp1, []byte("query_chunks_scanned_total")) ||
		!bytes.Contains(exp1, []byte("query_bytes_avoided_total")) {
		t.Fatalf("query counters missing from export:\n%s", exp1)
	}
	var args []string
	for _, sp := range reg1.Spans() {
		if sp.Name == "rsql/query" {
			for _, a := range sp.Args {
				args = append(args, fmt.Sprintf("%s=%v", a.Key, a.Value))
			}
		}
	}
	want := fmt.Sprintf("[table=qr mode=%v chunks_scanned=%d chunks_skipped=%d bytes_avoided=%d rows_matched=%d]",
		rsql.Pushdown, st.ChunksScanned, st.ChunksSkipped, st.BytesAvoided, st.RowsMatched)
	if got := fmt.Sprint(args); got != want || st.ChunksSkipped == 0 || st.RowsMatched == 0 {
		t.Fatalf("rsql/query span args = %s, want %s", got, want)
	}
	// Pushdown and oracle must agree on results (the acceptance digest).
	oracleCSV, _, _ := queryNC(t, blob, sql, rsql.PushdownOff, 2)
	if !bytes.Equal(csv1, oracleCSV) {
		t.Fatalf("pushdown vs oracle:\n%svs\n%s", csv1, oracleCSV)
	}
}
