package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/hdfs"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/pfs"
	"scidp/internal/sim"
)

func tinySpec() NUWRFSpec {
	return NUWRFSpec{Timestamps: 3, Levels: 4, Lat: 16, Lon: 16, Vars: 5, Dir: "/nuwrf"}
}

func TestGenerateBlobsShape(t *testing.T) {
	blobs, ds, err := GenerateBlobs(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 3 || len(ds.Files) != 3 {
		t.Fatalf("files = %d", len(blobs))
	}
	if ds.Files[0] != "/nuwrf/plot_00_00_00.nc" {
		t.Fatalf("first file = %s", ds.Files[0])
	}
	if ds.VarRawBytes != 4*16*16*4 {
		t.Fatalf("VarRawBytes = %d", ds.VarRawBytes)
	}
	// Every blob parses and carries the requested variables.
	f, err := netcdf.Open(netcdf.BytesReader(blobs[ds.Files[2]]))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Vars()) != 5 {
		t.Fatalf("vars = %d", len(f.Vars()))
	}
	if _, err := f.Var("QR"); err != nil {
		t.Fatal("missing QR")
	}
	if len(f.Vars()[0].Chunks) != 4 {
		t.Fatalf("chunks per var = %d, want one per level", len(f.Vars()[0].Chunks))
	}
}

// tinyBlobsSHA256 is the digest of tinySpec()'s blobs as the serial
// generator wrote them, before timestamps were generated in parallel.
const tinyBlobsSHA256 = "a0cf693b90a849eabbb1f55ac2f05df9011737382f5e33b198568c877c2fd5b7"

// TestGenerateDeterministic: the blobs and the Dataset do not depend on
// how many goroutines generate them, and equal the serial generator's
// bytes.
func TestGenerateDeterministic(t *testing.T) {
	generate := func(procs int) (string, *Dataset) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		blobs, ds, err := GenerateBlobs(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		if len(blobs) != len(ds.Files) {
			t.Fatalf("%d blobs for %d files", len(blobs), len(ds.Files))
		}
		h := sha256.New()
		for _, path := range ds.Files {
			fmt.Fprintf(h, "%s %d\n", path, len(blobs[path]))
			h.Write(blobs[path])
		}
		return hex.EncodeToString(h.Sum(nil)), ds
	}
	serial, dsSerial := generate(1)
	parallel, dsParallel := generate(4)
	if serial != parallel {
		t.Fatalf("blobs at GOMAXPROCS 1 and 4 differ: %s vs %s", serial, parallel)
	}
	if !reflect.DeepEqual(dsSerial, dsParallel) {
		t.Fatalf("Dataset at GOMAXPROCS 1 and 4 differs: %+v vs %+v", dsSerial, dsParallel)
	}
	if serial != tinyBlobsSHA256 {
		t.Fatalf("blobs digest %s, want %s", serial, tinyBlobsSHA256)
	}
}

func TestCompressionRatioRealistic(t *testing.T) {
	spec := tinySpec()
	spec.Lat, spec.Lon, spec.Levels = 48, 48, 10
	_, ds, err := GenerateBlobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := ds.CompressionRatio()
	if r < 1.8 || r > 12 {
		t.Fatalf("compression ratio %v outside netCDF-4-like band [1.8, 12]", r)
	}
}

func TestGenerateInstallsOnPFS(t *testing.T) {
	k := sim.NewKernel()
	fs := pfs.New(k, pfs.DefaultConfig())
	ds, err := Generate(fs, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ds.Files {
		if fs.Get(f) == nil {
			t.Fatalf("missing %s on PFS", f)
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	if _, _, err := GenerateBlobs(NUWRFSpec{}); err == nil {
		t.Fatal("empty spec should fail")
	}
}

func TestWorkloadKinds(t *testing.T) {
	p, a, an := ImgOnly.Phases()
	if !p || a || an {
		t.Fatal("Img-only phases wrong")
	}
	p, a, an = Anlys.Phases()
	if !p || !a || !an {
		t.Fatal("Anlys phases wrong")
	}
	if ImgOnly.String() != "Img-only" || Anlys.String() != "Anlys" {
		t.Fatal("names wrong")
	}
}

func TestVarAndFileNames(t *testing.T) {
	if VarName(0) != "QR" || VarName(3) != "VAR03" {
		t.Fatal("VarName wrong")
	}
	if FileName(61) != "plot_01_01_00.nc" {
		t.Fatalf("FileName = %s", FileName(61))
	}
}

// miniRig builds both backends over the same virtual hardware shape.
type miniRig struct {
	k  *sim.Kernel
	cl *cluster.Cluster
	h  *HDFSBackend
	l  *LustreBackend
}

func newMiniRig(t *testing.T) *miniRig {
	t.Helper()
	k := sim.NewKernel()
	cl := cluster.New(k, "bd", cluster.Config{
		Nodes: 4, SlotsPerNode: 2,
		DiskBW: 1e6, NICBW: 5e5, FabricBW: 2e6,
	})
	hfs := hdfs.New(k, cl, hdfs.Config{BlockSize: 8192, Replication: 1, NNOpsPerSec: 1e9})
	pcfg := pfs.DefaultConfig()
	pcfg.OSSCount, pcfg.OSTsPerOSS = 2, 4
	pcfg.OSTBW = 5e5
	pcfg.OSSNICBW = 2e6
	pcfg.FabricBW = 2e6
	pcfg.DefaultStripeSize = 4096
	pfsFS := pfs.New(k, pcfg)
	mount := func(n *cluster.Node) *pfs.Client { return pfsFS.NewClient(n.NIC) }
	return &miniRig{
		k:  k,
		cl: cl,
		h:  &HDFSBackend{FS: hfs},
		l:  &LustreBackend{FS: pfsFS, MountFor: mount, SetupClient: pfsFS.NewClient()},
	}
}

func TestGrepCountsMatchAcrossBackends(t *testing.T) {
	r := newMiniRig(t)
	cfg := MiniConfig{Files: 4, FileBytes: 8192, SplitSize: 8192, TaskStartup: 0.1}
	hin := InstallTextInputs(r.h, cfg, "needle")
	var hres, lres MiniResult
	r.k.Go("driver", func(p *sim.Proc) {
		var err error
		hres, err = RunGrep(p, r.cl, r.h, cfg, hin, "needle")
		if err != nil {
			t.Error(err)
		}
	})
	r.k.Run()

	r2 := newMiniRig(t)
	lin := InstallTextInputs(r2.l, cfg, "needle")
	r2.k.Go("driver", func(p *sim.Proc) {
		var err error
		lres, err = RunGrep(p, r2.cl, r2.l, cfg, lin, "needle")
		if err != nil {
			t.Error(err)
		}
	})
	r2.k.Run()
	if hres.Output == 0 || hres.Output != lres.Output {
		t.Fatalf("grep counts differ: hdfs=%d lustre=%d", hres.Output, lres.Output)
	}
	if hres.Seconds >= lres.Seconds {
		t.Fatalf("native HDFS grep (%v) should beat the connector (%v)", hres.Seconds, lres.Seconds)
	}
}

func TestDFSIOWriteThenRead(t *testing.T) {
	r := newMiniRig(t)
	cfg := MiniConfig{Files: 4, FileBytes: 4096, TaskStartup: 0.1}
	r.k.Go("driver", func(p *sim.Proc) {
		w, err := RunTestDFSIOWrite(p, r.cl, r.h, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if w.Bytes != 4*4096 || w.Seconds <= 0 {
			t.Errorf("write result = %+v", w)
		}
		rd, err := RunTestDFSIORead(p, r.cl, r.h, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if rd.Bytes != 4*4096 {
			t.Errorf("read bytes = %d", rd.Bytes)
		}
		if rd.Throughput() <= 0 {
			t.Error("throughput should be positive")
		}
	})
	r.k.Run()
}

func TestTeraSortConservesRecords(t *testing.T) {
	r := newMiniRig(t)
	cfg := MiniConfig{Files: 2, FileBytes: 10000, SplitSize: 10000, TaskStartup: 0.1}
	in := InstallTextInputs(r.h, cfg, "key")
	r.k.Go("driver", func(p *sim.Proc) {
		res, err := RunTeraSort(p, r.cl, r.h, cfg, in, 2)
		if err != nil {
			t.Error(err)
			return
		}
		// Records that straddle the 8192-byte block boundary are dropped
		// by the mini (it does not re-align records across splits):
		// floor(8192/100) + floor(1808/100) = 99 records per file.
		wantRecords := int64(2 * 99 * 100)
		if res.Output != wantRecords {
			t.Errorf("sorted bytes = %d, want %d", res.Output, wantRecords)
		}
	})
	r.k.Run()
}

// TestTeraSortReportsToKernelRegistry: the minis hand their job the
// kernel's registry, so an attached run is counted per layer — and is the
// same run: observing moves neither the result nor the event count.
func TestTeraSortReportsToKernelRegistry(t *testing.T) {
	cfg := MiniConfig{Files: 2, FileBytes: 10000, SplitSize: 10000, TaskStartup: 0.1}
	sorted := func(reg *obs.Registry) (MiniResult, uint64) {
		r := newMiniRig(t)
		if reg != nil {
			r.k.SetObs(reg)
		}
		in := InstallTextInputs(r.h, cfg, "key")
		var res MiniResult
		r.k.Go("driver", func(p *sim.Proc) {
			var err error
			if res, err = RunTeraSort(p, r.cl, r.h, cfg, in, 2); err != nil {
				t.Error(err)
			}
		})
		r.k.Run()
		return res, r.k.EventsProcessed()
	}
	reg := obs.New()
	res, events := sorted(reg)
	if jobs := reg.Counter("mr/jobs_total").Value(); jobs != 1 {
		t.Errorf("mr/jobs_total = %v, want 1", jobs)
	}
	if bare, bareEvents := sorted(nil); res != bare || events != bareEvents {
		t.Errorf("attached run = %+v in %d events, detached %+v in %d", res, events, bare, bareEvents)
	}
}

func TestHDFSInputSplitsCarryLocality(t *testing.T) {
	r := newMiniRig(t)
	cfg := MiniConfig{Files: 2, FileBytes: 20000, SplitSize: 8192, TaskStartup: 0.1}
	in := InstallTextInputs(r.h, cfg, "x")
	r.k.Go("driver", func(p *sim.Proc) {
		splits, err := r.h.Input(in, cfg.SplitSize).Splits(p)
		if err != nil {
			t.Error(err)
			return
		}
		if len(splits) != 6 { // 2 files x ceil(20000/8192)=3 blocks
			t.Errorf("splits = %d, want 6", len(splits))
		}
		for _, s := range splits {
			if len(s.Locations) == 0 {
				t.Error("HDFS split missing locality hint")
			}
		}
	})
	r.k.Run()
}

func TestLustreInputSplitsHaveNoLocality(t *testing.T) {
	r := newMiniRig(t)
	cfg := MiniConfig{Files: 1, FileBytes: 20000, SplitSize: 8192, TaskStartup: 0.1}
	in := InstallTextInputs(r.l, cfg, "x")
	r.k.Go("driver", func(p *sim.Proc) {
		splits, err := r.l.Input(in, cfg.SplitSize).Splits(p)
		if err != nil {
			t.Error(err)
			return
		}
		if len(splits) != 3 {
			t.Errorf("splits = %d, want 3", len(splits))
		}
		for _, s := range splits {
			if len(s.Locations) != 0 {
				t.Error("connector split should have no locality")
			}
		}
	})
	r.k.Run()
}

// Throughput returns bytes/second.
func (r MiniResult) Throughput() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Seconds
}
