package aquery

import (
	"bytes"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/rsql"
	"scidp/internal/sim"
)

// TestDeferredDecodeContract: a scan keeps no copy of a chunk it misses,
// so the value column's payload is decoded inside rsql's ScanChunk on the
// data plane, not behind a join of its own. Through an uncached and a
// cached Bound, at every data-plane width, the result is the plain
// source's, and the query ends at the same virtual instant after the same
// events either way, with one data-plane task per chunk scanned.
func TestDeferredDecodeContract(t *testing.T) {
	blob, _ := buildNC(t)
	const sql = `SELECT level, COUNT(*), SUM(value) FROM qr WHERE value > 1.0 GROUP BY level ORDER BY level`
	query := func(src ioengine.Source, reg *obs.Registry) ([]byte, *rsql.ScanStats) {
		f, err := netcdf.Open(src)
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		tab, err := NewNetCDF(f, "QR")
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		out, st, err := rsql.QueryArrays(map[string]rsql.ArrayTable{"qr": tab}, sql, rsql.ArrayQueryOpts{Mode: rsql.Pushdown, Obs: reg})
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		return out.WriteCSV(), st
	}
	want, _ := query(netcdf.BytesReader(blob), obs.New())
	type run struct {
		csv    []byte
		now    float64
		events uint64
		tasks  float64
		st     *rsql.ScanStats
	}
	for _, workers := range []int{-1, 1, 4} {
		var runs [2]run
		for i, opts := range []ioengine.Options{{}, {Cache: ioengine.NewCache(1 << 20)}} {
			k := sim.NewKernel()
			pool := sim.NewComputePool(workers)
			if workers >= 0 {
				k.SetComputePool(pool)
			}
			reg := obs.New()
			k.SetObs(reg)
			k.Go("query", func(p *sim.Proc) {
				opts.Obs = reg
				runs[i].csv, runs[i].st = query(ioengine.Bind(p, &memEngine{data: blob, latency: 0.001}, opts), reg)
			})
			k.Run()
			pool.Close()
			runs[i].now, runs[i].events = k.Now(), k.EventsProcessed()
			runs[i].tasks = reg.Counter("sim/compute_tasks_total").Value()
		}
		for i, name := range []string{"uncached", "cached"} {
			if !bytes.Equal(runs[i].csv, want) {
				t.Errorf("workers=%d %s: result differs from the plain source's:\n%s\nvs\n%s", workers, name, runs[i].csv, want)
			}
			if st := runs[i].st; st == nil || st.ChunksScanned == 0 || runs[i].tasks != float64(st.ChunksScanned) {
				t.Errorf("workers=%d %s: %v data-plane tasks for %+v; want one per chunk scanned", workers, name, runs[i].tasks, st)
			}
		}
		if runs[0].now != runs[1].now || runs[0].events != runs[1].events {
			t.Errorf("workers=%d: uncached query ends at %v after %d events, cached at %v after %d",
				workers, runs[0].now, runs[0].events, runs[1].now, runs[1].events)
		}
	}
}
