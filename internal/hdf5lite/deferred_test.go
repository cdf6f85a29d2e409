package hdf5lite

import (
	"bytes"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// latencyEngine serves a blob to a bound process at 1 ms of virtual time a
// read, so every chunk fetch moves the clock.
type latencyEngine []byte

func (e latencyEngine) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	p.Sleep(0.001)
	return ioengine.Bytes(e).ReadAt(off, n)
}

func (e latencyEngine) Size() int64 { return int64(len(e)) }

// boundRun is what one read inside a kernel left behind: the virtual clock
// and the events processed at its end, and the data-plane tasks forked.
type boundRun struct {
	now    float64
	events uint64
	tasks  float64
}

// runBound opens blob through a Bound with opts on a kernel whose data
// plane has the given workers (-1: none attached, the inline pool) and
// hands the file to read, in process context.
func runBound(t *testing.T, workers int, blob []byte, opts ioengine.Options, read func(f *File)) boundRun {
	t.Helper()
	k := sim.NewKernel()
	if workers >= 0 {
		pool := sim.NewComputePool(workers)
		defer pool.Close()
		k.SetComputePool(pool)
	}
	reg := obs.New()
	k.SetObs(reg)
	k.Go("reader", func(p *sim.Proc) {
		f, err := Open(ioengine.Bind(p, latencyEngine(blob), opts))
		if err != nil {
			t.Error(err)
			return
		}
		read(f)
	})
	k.Run()
	return boundRun{k.Now(), k.EventsProcessed(), reg.Counter("sim/compute_tasks_total").Value()}
}

// TestDeferredDecodeContract: a chunk miss the engine keeps no copy of
// (an uncached Bound) decodes inside ReadBox's assembly closure instead of
// behind a join of its own. The bytes are the plain source's, and the read
// ends at the same virtual instant after the same events as through a
// cached Bound, whose misses still decode eagerly; it forks one data-plane
// task fewer a chunk.
func TestDeferredDecodeContract(t *testing.T) {
	blob, _ := sampleFile(t)
	rows := func(f *File) ([]byte, error) {
		d, err := f.Find("model/physics/QR")
		if err != nil {
			return nil, err
		}
		return readRows(f, d, 1, 4) // rows 1–4 touch all three two-row chunks
	}
	plain, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rows(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 1, 4} {
		var got [2][]byte
		var runs [2]boundRun
		for i, opts := range []ioengine.Options{{}, {Cache: ioengine.NewCache(1 << 20)}} {
			runs[i] = runBound(t, workers, blob, opts, func(f *File) {
				var err error
				if got[i], err = rows(f); err != nil {
					t.Error(err)
				}
			})
		}
		deferred, eager := runs[0], runs[1]
		for i, name := range []string{"uncached", "cached"} {
			if !bytes.Equal(got[i], want) {
				t.Errorf("workers=%d %s: bytes differ from the plain source's", workers, name)
			}
		}
		if deferred.now != eager.now || deferred.events != eager.events {
			t.Errorf("workers=%d: uncached read ends at %v after %d events, cached at %v after %d",
				workers, deferred.now, deferred.events, eager.now, eager.events)
		}
		if deferred.tasks != eager.tasks-3 {
			t.Errorf("workers=%d: %v data-plane tasks uncached, %v cached; want one fewer a chunk", workers, deferred.tasks, eager.tasks)
		}
	}
}
