package sparklite

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"scidp/internal/aquery"
	"scidp/internal/cluster"
	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/rsql"
	"scidp/internal/sim"
)

// queryBlob builds the shared array every node "mounts": QR(level=8,
// lat=4, lon=4), one chunk per level, values rising with level so value
// predicates prune via the zone maps.
func queryBlob(t *testing.T) []byte {
	t.Helper()
	w := netcdf.NewWriter()
	for _, d := range []struct {
		name string
		n    int
	}{{"level", 8}, {"lat", 4}, {"lon", 4}} {
		if err := w.AddDim(d.name, d.n); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddVar("QR", netcdf.Float32, []string{"level", "lat", "lon"}, netcdf.Chunking{Shape: []int{1, 4, 4}, Deflate: 3}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 8*4*4)
	for i := range vals {
		vals[i] = float32(math.Cos(float64(i)/5.0) + float64(i/16))
	}
	if err := w.PutVarFloat32("QR", vals); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

type blobEngine struct {
	data    []byte
	latency float64
}

func (m *blobEngine) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	p.Sleep(m.latency)
	return ioengine.Bytes(m.data).ReadAt(off, n)
}

func (m *blobEngine) Size() int64 { return int64(len(m.data)) }

func openQR(blob []byte) func(p *sim.Proc, node *cluster.Node) (rsql.ArrayTable, error) {
	return func(p *sim.Proc, node *cluster.Node) (rsql.ArrayTable, error) {
		b := ioengine.Bind(p, &blobEngine{data: blob, latency: 0.0008}, ioengine.Options{Prefetch: 1})
		f, err := netcdf.Open(b)
		if err != nil {
			return nil, err
		}
		return aquery.NewNetCDF(f, "QR")
	}
}

// runDistributed executes one ArrayQuery on a fresh kernel and cluster,
// returning the result CSV, the scan stats, and the final virtual time.
func runDistributed(t *testing.T, blob []byte, sql string, mode rsql.PushdownMode) ([]byte, *rsql.ScanStats, float64) {
	t.Helper()
	csv, stats, now, _ := runDistributedObs(t, blob, sql, mode)
	return csv, stats, now
}

// runDistributedObs is runDistributed plus the registry the query wrote.
func runDistributedObs(t *testing.T, blob []byte, sql string, mode rsql.PushdownMode) ([]byte, *rsql.ScanStats, float64, *obs.Registry) {
	t.Helper()
	k := sim.NewKernel()
	pool := sim.NewComputePool(4)
	defer pool.Close()
	k.SetComputePool(pool)
	reg := obs.New()
	k.SetObs(reg)
	sc := NewContext(cluster.New(k, "bd", cluster.Config{
		Nodes: 3, SlotsPerNode: 2, DiskBW: 1e6, NICBW: 1e6, FabricBW: 4e6,
	}))
	var csv []byte
	var stats *rsql.ScanStats
	k.Go("driver", func(p *sim.Proc) {
		q := &ArrayQuery{SQL: sql, Mode: mode, Open: openQR(blob), Obs: reg}
		out, st, err := q.Run(p, sc)
		if err != nil {
			t.Error(err)
			return
		}
		csv, stats = out.WriteCSV(), st
	})
	k.Run()
	return csv, stats, k.Now(), reg
}

// runLocal executes the same SQL through the single-proc executor.
func runLocal(t *testing.T, blob []byte, sql string, mode rsql.PushdownMode) []byte {
	t.Helper()
	k := sim.NewKernel()
	var csv []byte
	k.Go("q", func(p *sim.Proc) {
		tab, err := openQR(blob)(p, nil)
		if err != nil {
			t.Error(err)
			return
		}
		out, _, err := rsql.QueryArrays(map[string]rsql.ArrayTable{"qr": tab}, sql, rsql.ArrayQueryOpts{Mode: mode})
		if err != nil {
			t.Error(err)
			return
		}
		csv = out.WriteCSV()
	})
	k.Run()
	return csv
}

// TestDistributedMatchesLocalAndOracle is the engine-equivalence check:
// the sparklite-distributed plan, the local executor, and the full-scan
// oracle must all produce byte-identical frames.
func TestDistributedMatchesLocalAndOracle(t *testing.T) {
	blob := queryBlob(t)
	for _, sql := range []string{
		`SELECT * FROM qr WHERE level = 5 AND value > 5.0 ORDER BY value DESC LIMIT 6`,
		`SELECT level, COUNT(*), SUM(value), MAX(value) FROM qr WHERE value > 2.0 GROUP BY level ORDER BY level`,
		`SELECT lat, lon FROM qr WHERE level >= 6 AND lat < 2 ORDER BY lat, lon LIMIT 10`,
	} {
		dist, st, _ := runDistributed(t, blob, sql, rsql.Pushdown)
		local := runLocal(t, blob, sql, rsql.Pushdown)
		oracle, ost, _ := runDistributed(t, blob, sql, rsql.PushdownOff)
		if !bytes.Equal(dist, local) {
			t.Fatalf("%q: distributed vs local:\n%svs\n%s", sql, dist, local)
		}
		if !bytes.Equal(dist, oracle) {
			t.Fatalf("%q: pushdown vs oracle:\n%svs\n%s", sql, dist, oracle)
		}
		if ost.ChunksScanned != 8 {
			t.Fatalf("%q: oracle scanned %d of 8", sql, ost.ChunksScanned)
		}
		if st.ChunksScanned >= ost.ChunksScanned {
			t.Fatalf("%q: pushdown scanned %d, no better than oracle", sql, st.ChunksScanned)
		}
	}
}

// TestDistributedPrunedToNothing: a plan that prunes every chunk still
// completes (no job is launched) and returns the empty/aggregate frame
// the oracle produces.
func TestDistributedPrunedToNothing(t *testing.T) {
	blob := queryBlob(t)
	dist, st, _ := runDistributed(t, blob, `SELECT COUNT(*), SUM(value) FROM qr WHERE level = 42`, rsql.Pushdown)
	oracle, _, _ := runDistributed(t, blob, `SELECT COUNT(*), SUM(value) FROM qr WHERE level = 42`, rsql.PushdownOff)
	if st.ChunksScanned != 0 || st.ChunksSkipped != 8 {
		t.Fatalf("stats %+v", st)
	}
	if !bytes.Equal(dist, oracle) {
		t.Fatalf("empty plan vs oracle:\n%svs\n%s", dist, oracle)
	}
}

// TestDistributedQueryDeterministic: same-seed runs agree on both the
// frame and the virtual clock.
func TestDistributedQueryDeterministic(t *testing.T) {
	blob := queryBlob(t)
	const sql = `SELECT level, COUNT(*), MAX(value) FROM qr WHERE value > 1.5 GROUP BY level ORDER BY level`
	csv1, _, now1 := runDistributed(t, blob, sql, rsql.Pushdown)
	csv2, _, now2 := runDistributed(t, blob, sql, rsql.Pushdown)
	if !bytes.Equal(csv1, csv2) || now1 != now2 {
		t.Fatalf("nondeterministic: now %v vs %v", now1, now2)
	}
}

// TestDistributedQuerySpans: the registry on ArrayQuery.Obs receives the
// stage runner's spans — the query span parents one phase span, which
// parents one task span per surviving chunk, each on a node/slot track.
func TestDistributedQuerySpans(t *testing.T) {
	_, st, _, reg := runDistributedObs(t, queryBlob(t), `SELECT level, COUNT(*) FROM qr WHERE level >= 5 GROUP BY level ORDER BY level`, rsql.Pushdown)
	var query, phase obs.SpanInfo
	tasks := 0
	spans := reg.Spans()
	for _, sp := range spans {
		switch {
		case sp.Name == "sparklite/query":
			query = sp
		case sp.Name == "phase:scan":
			phase = sp
		}
	}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "task:query#") && sp.Parent == phase.ID && strings.Contains(sp.Track, "/slot-") {
			tasks++
		}
	}
	if query.ID == 0 || phase.ID == 0 || phase.Parent != query.ID {
		t.Fatalf("phase span %+v not nested under query span %+v", phase, query)
	}
	if tasks == 0 || tasks != st.ChunksScanned {
		t.Fatalf("%d task spans under the phase, want one per scanned chunk (%d)", tasks, st.ChunksScanned)
	}
}
