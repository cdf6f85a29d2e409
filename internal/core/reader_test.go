package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"scidp/internal/fault"
	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// TestReadSlabRejectsFileChangedSinceMapped: a file rewritten on the PFS
// after it was mapped fails the header check — by its CRC when the header
// kept its length, by its length otherwise — and ReadSlab returns no bytes
// and follows no offset of the stale index: no chunk is read.
func TestReadSlabRejectsFileChangedSinceMapped(t *testing.T) {
	for _, c := range []struct {
		name    string
		vars    []string
		nx      int
		sameLen bool
	}{
		{"a variable renamed", []string{"QR", "T", "Q"}, 6, true},
		{"a wider grid", nil, 7, true},
		{"two variables dropped", []string{"QR"}, 6, false},
	} {
		r := newRig(t)
		r.ncFile(t, "/in/plot.nc", 4, 6, 6)
		reg := obs.New()
		r.run(t, func(p *sim.Proc) {
			src := r.mapQR(t, p, "/in/plot.nc", 0)[1]
			r.ncFile(t, "/in/plot.nc", 4, 6, c.nx, c.vars...)
			f, err := netcdf.Open(ioengine.Bytes(r.pfs.Get("/in/plot.nc")))
			if err != nil || (f.Header.Bytes == src.Header.Bytes) != c.sameLen {
				t.Fatalf("%s: rewritten header %+v (%v), mapped %+v", c.name, f.Header, err, *src.Header)
			}
			reader := NewPFSReader(nil, r.mount(r.bd.Node(1)))
			reader.Obs = reg
			slab, err := reader.ReadSlab(p, src)
			if slab != nil || err == nil || !strings.Contains(err.Error(), "/in/plot.nc changed since it was mapped") {
				t.Fatalf("%s: ReadSlab = %v, %v; want no slab and the changed-since-mapped error", c.name, slab, err)
			}
		})
		if n := reg.Counter("ioengine/chunk_reads_total", obs.L("result", "miss")).Value(); n != 0 {
			t.Fatalf("%s: %v chunks read from a file that changed since it was mapped", c.name, n)
		}
	}
}

// decodeRead is the slab read as it was made before a mapping carried its
// chunk index: the same bound reader and recovery loop ReadSlab sets up,
// then a full header decode and nc_get_vara. The header-fault test holds
// ReadSlab to it.
func decodeRead(p *sim.Proc, r *PFSReader, src *SlabSource) ([]byte, error) {
	eng, err := r.Client.Engine(p, src.PFSPath)
	if err != nil {
		return nil, err
	}
	if r.Retry.MaxRetries > 0 {
		eng = &retryEngine{r: r, path: src.PFSPath, size: eng.Size()}
	}
	f, err := netcdf.Open(ioengine.Bind(p, eng, ioengine.Options{Cache: r.Cache, Prefetch: r.Prefetch,
		Obs: r.Obs, Tier: r.Tier, TierNode: r.Node}))
	if err != nil {
		return nil, err
	}
	arr, err := f.GetVara(src.Var.Path, src.Start, src.Count)
	if err != nil {
		return nil, err
	}
	return arr.Data, nil
}

// TestReadSlabHeaderFaultsAsBeforeTheIndex: a flaky and then a corrupt
// read of a mapped file's header range, with and without a retry policy,
// and no fault at all. ReadSlab fails or retries exactly as the decoding
// read did: the same error kind, the same retries, the same virtual
// seconds, and when it recovers the same bytes as a read with no faults.
func TestReadSlabHeaderFaultsAsBeforeTheIndex(t *testing.T) {
	type outcome struct {
		raw     []byte
		kind    string
		secs    float64
		retries [2]float64 // flaky-read, corrupt
	}
	run := func(retry RetryPolicy, faults []fault.Outcome, read func(*sim.Proc, *PFSReader, *SlabSource) ([]byte, error)) outcome {
		r := newRig(t)
		r.ncFile(t, "/in/plot.nc", 4, 6, 6)
		reg := obs.New()
		var out outcome
		r.run(t, func(p *sim.Proc) {
			src := r.mapQR(t, p, "/in/plot.nc", 2)[1]
			next := 0 // the next header read's place in faults
			r.pfs.SetReadFault(func(path string, off, n int64) fault.Outcome {
				if off >= src.Header.Bytes || next == len(faults) {
					return fault.OK
				}
				next++
				return faults[next-1]
			})
			reader := NewPFSReader(nil, r.mount(r.bd.Node(1)))
			reader.Obs, reader.Retry = reg, retry
			start := p.Now()
			raw, err := read(p, reader, src)
			out = outcome{raw: raw, kind: fault.KindOf(err), secs: p.Now() - start}
			if err != nil && out.kind == "" {
				t.Errorf("%v: non-transient error %v", faults, err)
			}
		})
		for i, kind := range []string{"flaky-read", "corrupt"} {
			out.retries[i] = reg.Counter("core/read_retries_total", obs.L("kind", kind)).Value()
		}
		return out
	}
	slabRead := func(p *sim.Proc, r *PFSReader, src *SlabSource) ([]byte, error) {
		slab, err := r.ReadSlab(p, src)
		if err != nil {
			return nil, err
		}
		return slab.Raw, nil
	}
	clean := run(RetryPolicy{}, nil, slabRead)
	if clean.kind != "" || len(clean.raw) != 2*6*6*4 {
		t.Fatalf("read with no faults: %d bytes, fault %q", len(clean.raw), clean.kind)
	}
	flakyThenCorrupt := []fault.Outcome{fault.Fail, fault.Corrupt}
	for _, c := range []struct {
		retry  RetryPolicy
		faults []fault.Outcome
		kind   string // "" when the read recovers
	}{
		{RetryPolicy{}, nil, ""},
		{RetryPolicy{}, flakyThenCorrupt, "flaky-read"},
		{RetryPolicy{}, []fault.Outcome{fault.Corrupt}, "corrupt"},
		{RetryPolicy{MaxRetries: 1, Backoff: 0.01}, flakyThenCorrupt, "corrupt"},
		{RetryPolicy{MaxRetries: 3, Backoff: 0.01}, flakyThenCorrupt, ""},
	} {
		name := fmt.Sprintf("%+v %v", c.retry, c.faults)
		got, want := run(c.retry, c.faults, slabRead), run(c.retry, c.faults, decodeRead)
		if got.kind != c.kind || got.kind != want.kind || got.secs != want.secs || got.retries != want.retries {
			t.Errorf("%s: fault %q after %v s and %v retries; the decoding read: %q after %v s and %v retries",
				name, got.kind, got.secs, got.retries, want.kind, want.secs, want.retries)
		}
		if c.kind == "" && (!bytes.Equal(got.raw, clean.raw) || !bytes.Equal(want.raw, clean.raw)) {
			t.Errorf("%s: the retried slab differs from the read with no faults", name)
		}
	}
}

// TestSharedIndexAcrossPoolWorkers: every block of a mapping shares its
// variable's chunk index, and tasks on several nodes read it at once while
// a four-worker data plane copies their chunks. Each gets its own block's
// bytes; under -race, nothing writes to what they share.
func TestSharedIndexAcrossPoolWorkers(t *testing.T) {
	r := newRig(t)
	pool := sim.NewComputePool(4)
	defer pool.Close()
	r.k.SetComputePool(pool)
	qr := r.ncFile(t, "/in/plot.nc", 8, 6, 6)
	var srcs []*SlabSource
	r.run(t, func(p *sim.Proc) { srcs = r.mapQR(t, p, "/in/plot.nc", 2) })
	if len(srcs) != 4 || srcs[0].Var != srcs[3].Var {
		t.Fatalf("%d blocks; want 4 sharing one variable entry", len(srcs))
	}
	want := ioengine.PutFloat32s(qr)
	for task := range 8 {
		src := srcs[task%len(srcs)]
		node := r.bd.Node(task % len(r.bd.Nodes))
		r.k.Go(fmt.Sprintf("task-%d", task), func(p *sim.Proc) {
			slab, err := NewPFSReader(nil, r.mount(node)).ReadSlab(p, src)
			if err != nil {
				t.Error(err)
				return
			}
			if off := src.Start[0] * 6 * 6 * 4; !bytes.Equal(slab.Raw, want[off:off+len(slab.Raw)]) {
				t.Errorf("task %d: block at level %d read wrong bytes", task, src.Start[0])
			}
		})
	}
	r.k.Run()
}
