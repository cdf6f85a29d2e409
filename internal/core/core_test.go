package core

import (
	"bytes"
	"strings"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/fault"
	"scidp/internal/hdf5lite"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
)

// rig is a two-cluster testbed: a PFS with input files and an HDFS over a
// small BD cluster, joined by an interlink.
type rig struct {
	k    *sim.Kernel
	pfs  *pfs.FS
	hdfs *hdfs.FS
	bd   *cluster.Cluster
	il   *cluster.Interlink
}

func newRig(t testing.TB) *rig {
	t.Helper()
	k := sim.NewKernel()
	bd := cluster.New(k, "bd", cluster.Config{
		Nodes: 4, SlotsPerNode: 2,
		DiskBW: 1e6, NICBW: 1e6, FabricBW: 4e6,
	})
	pcfg := pfs.DefaultConfig()
	pcfg.OSTBW = 1e6
	pcfg.OSSNICBW = 4e6
	pcfg.FabricBW = 8e6
	pcfg.DefaultStripeSize = 1024
	fs := pfs.New(k, pcfg)
	hfs := hdfs.New(k, bd, hdfs.Config{BlockSize: 4096, Replication: 1, NNOpsPerSec: 1e9})
	return &rig{k: k, pfs: fs, hdfs: hfs, bd: bd, il: cluster.NewInterlink(8e6, 0)}
}

// allOSTs takes every OST of the rig's storage down, or brings it back.
func (r *rig) allOSTs(down bool) {
	cfg := pfs.DefaultConfig()
	for i := 0; i < cfg.OSSCount*cfg.OSTsPerOSS; i++ {
		r.pfs.SetOSTDown(i, down)
	}
}

// mount returns a PFS client for a BD node across the interlink.
func (r *rig) mount(n *cluster.Node) *pfs.Client {
	return r.pfs.NewClient(r.il.Link, n.NIC)
}

// ncFile writes a netCDF file of the named variables (QR, T and P when
// none are named) to the PFS and returns the QR values.
func (r *rig) ncFile(t testing.TB, path string, nz, ny, nx int, vars ...string) []float32 {
	t.Helper()
	w := netcdf.NewWriter()
	w.AddDim("level", nz)
	w.AddDim("lat", ny)
	w.AddDim("lon", nx)
	if vars == nil {
		vars = []string{"QR", "T", "P"}
	}
	var qr []float32
	for _, name := range vars {
		if err := w.AddVar(name, netcdf.Float32, []string{"level", "lat", "lon"},
			netcdf.Chunking{Shape: []int{1, ny, nx}, Deflate: 1}); err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, nz*ny*nx)
		for i := range vals {
			vals[i] = float32(i%97) * 0.5
		}
		if name == "QR" {
			qr = vals
		}
		w.PutVarFloat32(name, vals)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r.pfs.Put(path, blob)
	return qr
}

// mapQR maps the QR variable of the PFS file at path, rowsPerBlock
// leading-dimension entries a dummy block (0: one block per chunk), and
// returns its blocks' sources.
func (r *rig) mapQR(t testing.TB, p *sim.Proc, path string, rowsPerBlock int) []*SlabSource {
	t.Helper()
	mf, err := NewMapper(r.hdfs, nil, "/scidp").MapFile(p, r.mount(r.bd.Node(0)), path,
		MapOptions{Vars: []string{"QR"}, RowsPerBlock: rowsPerBlock})
	if err != nil {
		t.Fatal(err)
	}
	var out []*SlabSource
	for _, b := range mf.Vars[0].INode.Blocks {
		out = append(out, b.Source.(*SlabSource))
	}
	return out
}

func (r *rig) run(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	r.k.Go("test", fn)
	r.k.Run()
}

func TestExplorerClassifiesFiles(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot_18_00_00.nc", 4, 8, 8)
	r.pfs.Put("/in/plot_19_00_00.csv", []byte("time,lat,lon,value\n0,1,2,3.5\n"))
	r.run(t, func(p *sim.Proc) {
		ex := NewExplorer(nil)
		files, err := ex.ExplorePath(p, r.mount(r.bd.Node(0)), "/in")
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Fatalf("files = %d", len(files))
		}
		nc, csv := files[0], files[1]
		if !nc.Sci() || nc.Format != "netcdf" || len(nc.Info.Vars) != 3 {
			t.Fatalf("nc class = %+v", nc)
		}
		if csv.Sci() {
			t.Fatalf("csv misclassified as %s", csv.Format)
		}
		if _, err := ex.ExplorePath(p, r.mount(r.bd.Node(0)), "/empty"); err == nil {
			t.Fatal("empty dir should fail")
		}
	})
}

// TestExplorerFailsOnProbeReadFault: a read fault during the magic probe
// fails the exploration; it does not classify a netCDF file as flat.
func TestExplorerFailsOnProbeReadFault(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot_18_00_00.nc", 4, 8, 8)
	r.pfs.Put("/in/ab", []byte("ab"))
	r.run(t, func(p *sim.Proc) {
		ex := NewExplorer(nil)
		if fc, err := ex.ExploreFile(p, r.mount(r.bd.Node(0)), "/in/ab"); err != nil || fc.Sci() {
			t.Fatalf("two-byte file: class %+v, err %v; want flat", fc, err)
		}
		r.pfs.SetReadFault(func(path string, off, n int64) fault.Outcome { return fault.Fail })
		fc, err := ex.ExploreFile(p, r.mount(r.bd.Node(0)), "/in/plot_18_00_00.nc")
		if err == nil || !fault.IsTransient(err) {
			t.Fatalf("probe under a read fault: class %+v, err %v; want a transient error", fc, err)
		}
	})
}

func TestMapperMirrorsNetCDF(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot.nc", 5, 8, 8)
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		mapping, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if mapping.Root != "/scidp/in" {
			t.Fatalf("root = %s", mapping.Root)
		}
		if len(mapping.Files) != 1 || len(mapping.Files[0].Vars) != 3 {
			t.Fatalf("mapping = %+v", mapping.Files)
		}
		// Directory mirrors the file name; virtual files mirror variables.
		if _, err := r.hdfs.Lookup("/scidp/in/plot.nc/QR"); err != nil {
			t.Fatal("missing virtual file for QR")
		}
		inode, _ := r.hdfs.Lookup("/scidp/in/plot.nc/QR")
		if !inode.Virtual || len(inode.Blocks) != 5 {
			t.Fatalf("QR inode: virtual=%v blocks=%d, want 5 chunk-aligned", inode.Virtual, len(inode.Blocks))
		}
		src := inode.Blocks[2].Source.(*SlabSource)
		if src.Start[0] != 2 || src.Count[0] != 1 || src.Count[1] != 8 {
			t.Fatalf("block 2 slab = %v+%v", src.Start, src.Count)
		}
		if r.hdfs.TotalUsed() != 0 {
			t.Fatal("mapping must not move data into HDFS")
		}
	})
}

func TestMapperVariableSubsetting(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot.nc", 4, 4, 4)
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		mapping, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{Vars: []string{"QR"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(mapping.Files[0].Vars) != 1 || mapping.Files[0].Vars[0].VarPath != "QR" {
			t.Fatalf("vars = %+v", mapping.Files[0].Vars)
		}
		if _, err := r.hdfs.Lookup("/scidp/in/plot.nc/T"); err == nil {
			t.Fatal("unrequested variable should not be mapped")
		}
		if _, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in2", MapOptions{Vars: []string{"ghost"}}); err == nil {
			// /in2 doesn't exist; set one up to test the var check below.
		}
	})
}

func TestMapperRejectsUnknownVars(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot.nc", 2, 4, 4)
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		if _, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{Vars: []string{"ghost"}}); err == nil {
			t.Fatal("mapping a nonexistent variable should fail")
		}
	})
}

func TestMapperRowsPerBlockGranularity(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot.nc", 6, 4, 4)
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/coarse")
		mp, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{Vars: []string{"QR"}, RowsPerBlock: 3})
		if err != nil {
			t.Fatal(err)
		}
		inode := mp.Files[0].Vars[0].INode
		if len(inode.Blocks) != 2 {
			t.Fatalf("coarse blocks = %d, want 2", len(inode.Blocks))
		}
		src := inode.Blocks[1].Source.(*SlabSource)
		if src.Start[0] != 3 || src.Count[0] != 3 {
			t.Fatalf("coarse block 1 = %v+%v", src.Start, src.Count)
		}
	})
}

func TestMapperFlatFiles(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 10000)
	r.pfs.Put("/in/log.csv", data)
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		mp, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{FlatBlockSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		f := mp.Files[0]
		if f.Flat == nil || len(f.Flat.Blocks) != 3 {
			t.Fatalf("flat blocks = %+v", f.Flat)
		}
		last := f.Flat.Blocks[2].Source.(*FlatSource)
		if last.Offset != 8192 || last.Length != 10000-8192 {
			t.Fatalf("last block = %+v", last)
		}
		if got := len(mp.VirtualPaths()); got != 1 {
			t.Fatalf("virtual paths = %d", got)
		}
	})
}

func TestMapperHierarchicalFormatMirrorsGroups(t *testing.T) {
	r := newRig(t)
	w := hdf5lite.NewWriter()
	g := w.Root().EnsureGroup("model/physics")
	vals := make([]float32, 4*4)
	g.AddFloat32("QC", []int{4, 4}, 2, 1, vals)
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r.pfs.Put("/in/out.h5", blob)
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		mp, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if mp.Files[0].Format != "hdf5" {
			t.Fatalf("format = %s", mp.Files[0].Format)
		}
		// Deeper directory structure mirrors the group tree.
		if _, err := r.hdfs.Lookup("/scidp/in/out.h5/model/physics/QC"); err != nil {
			t.Fatal("group path not mirrored into directories")
		}
	})
}

func TestPFSReaderFlatAndSlab(t *testing.T) {
	r := newRig(t)
	qr := r.ncFile(t, "/in/plot.nc", 4, 6, 6)
	flat := []byte("0123456789")
	r.pfs.Put("/in/notes.txt", flat)
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		mp, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reader := NewPFSReader(nil, r.mount(r.bd.Node(1)))
		// Flat block roundtrip.
		var flatFile *MappedFile
		var ncFile *MappedFile
		for i := range mp.Files {
			if mp.Files[i].Flat != nil {
				flatFile = &mp.Files[i]
			} else {
				ncFile = &mp.Files[i]
			}
		}
		got, err := reader.ReadBlock(p, flatFile.Flat.Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.([]byte), flat) {
			t.Fatalf("flat read = %q", got)
		}
		// Slab block roundtrip: block 2 of QR = level 2.
		var qrVar *MappedVar
		for i := range ncFile.Vars {
			if ncFile.Vars[i].VarPath == "QR" {
				qrVar = &ncFile.Vars[i]
			}
		}
		v, err := reader.ReadBlock(p, qrVar.INode.Blocks[2])
		if err != nil {
			t.Fatal(err)
		}
		slab := v.(*Slab)
		vals, err := slab.Float32s()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 36; i++ {
			if vals[i] != qr[2*36+i] {
				t.Fatalf("slab elem %d = %v, want %v", i, vals[i], qr[2*36+i])
			}
		}
		// Frame conversion with global coordinates.
		df, err := slab.Frame("QR")
		if err != nil {
			t.Fatal(err)
		}
		if df.NumRows() != 36 || df.Col("level").I[0] != 2 {
			t.Fatalf("frame rows=%d level0=%v", df.NumRows(), df.Col("level").I[0])
		}
	})
}

func TestPFSReaderErrors(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot.nc", 4, 6, 6)
	r.run(t, func(p *sim.Proc) {
		mapped := *r.mapQR(t, p, "/in/plot.nc", 0)[0]
		reader := NewPFSReader(nil, r.mount(r.bd.Node(0)))
		if _, err := reader.ReadBlock(p, &hdfs.Block{ID: 1}); err == nil {
			t.Error("non-virtual block should fail")
		}
		if _, err := reader.ReadBlock(p, &hdfs.Block{ID: 2, Virtual: true, Source: 42}); err == nil {
			t.Error("unknown source type should fail")
		}
		if _, err := reader.ReadFlat(p, &FlatSource{PFSPath: "/ghost", Length: 10}); err == nil {
			t.Error("missing flat file should fail")
		}
		ghost, grib, unmapped := mapped, mapped, mapped
		ghost.PFSPath, grib.Format, unmapped.Var = "/ghost", "grib", nil
		if _, err := reader.ReadSlab(p, &ghost); err == nil || !strings.Contains(err.Error(), "no such file") {
			t.Errorf("mapped block of a missing file: %v", err)
		}
		if _, err := reader.ReadSlab(p, &grib); err == nil || !strings.Contains(err.Error(), `format "grib" not installed`) {
			t.Errorf("block of an unknown format: %v", err)
		}
		if _, err := reader.ReadSlab(p, &unmapped); err == nil || !strings.Contains(err.Error(), "no chunk index") {
			t.Errorf("block with no chunk index: %v", err)
		}
	})
}

func TestInputFormatEndToEnd(t *testing.T) {
	// The headline path: map a netCDF directory, run a MapReduce job over
	// the virtual blocks, verify every level's data arrives exactly once.
	r := newRig(t)
	qr := r.ncFile(t, "/in/t0.nc", 4, 6, 6)
	r.ncFile(t, "/in/t1.nc", 4, 6, 6)
	seen := map[string]float64{}
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		mapping, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{Vars: []string{"QR"}})
		if err != nil {
			t.Fatal(err)
		}
		in := &InputFormat{
			HDFS:     r.hdfs,
			Dir:      mapping.Root,
			Registry: scifmt.Default(),
			MountFor: r.mount,
			Cost:     DefaultCostModel(),
		}
		job := &mapreduce.Job{
			Name: "sum-levels", Cluster: r.bd, Input: in, TaskStartup: 0.1,
			Map: func(tc *mapreduce.TaskContext, key string, value any) error {
				slab := value.(*Slab)
				vals, err := slab.Float32s()
				if err != nil {
					return err
				}
				var sum float64
				for _, v := range vals {
					sum += float64(v)
				}
				tc.Emit(key, sum)
				return nil
			},
		}
		res, err := job.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range res.Output {
			seen[kv.K] = kv.V.(float64)
		}
		if res.PhaseMean("Read") <= 0 {
			t.Error("Read phase should be charged")
		}
		if res.PhaseMean("Convert") <= 0 {
			t.Error("Convert phase should be charged")
		}
	})
	if len(seen) != 8 { // 2 files x 4 levels
		t.Fatalf("records = %d, want 8", len(seen))
	}
	// Check one level's sum against the source data.
	var want float64
	for i := 0; i < 36; i++ {
		want += float64(qr[36+i])
	}
	got, ok := seen["/scidp/in/t0.nc/QR#1"]
	if !ok {
		var keys []string
		for k := range seen {
			keys = append(keys, k)
		}
		t.Fatalf("missing level key; have %s", strings.Join(keys, ", "))
	}
	if got != want {
		t.Fatalf("level 1 sum = %v, want %v", got, want)
	}
}

func TestInputFormatSubsetReadsLessFromPFS(t *testing.T) {
	// Variable subsetting (23 vars, 1 analyzed) must shrink mapping time
	// relative to mapping everything — the Section IV-B claim.
	r := newRig(t)
	r.ncFile(t, "/in/t0.nc", 8, 16, 16)
	var allT, oneT float64
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/all")
		start := p.Now()
		if _, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{}); err != nil {
			t.Fatal(err)
		}
		allT = p.Now() - start
		m2 := NewMapper(r.hdfs, nil, "/one")
		start = p.Now()
		if _, err := m2.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{Vars: []string{"QR"}}); err != nil {
			t.Fatal(err)
		}
		oneT = p.Now() - start
	})
	if oneT > allT {
		t.Fatalf("subset mapping (%v) should not exceed full mapping (%v)", oneT, allT)
	}
}

func TestInputFormatErrors(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		in := &InputFormat{HDFS: r.hdfs, Dir: "/nope", Registry: scifmt.Default(), MountFor: r.mount}
		if _, err := in.Splits(p); err == nil {
			t.Error("walking a missing dir should fail")
		}
		r.hdfs.Mkdir(p, "/empty")
		in.Dir = "/empty"
		if _, err := in.Splits(p); err == nil {
			t.Error("no virtual blocks should fail")
		}
	})
}

func TestSlabValidation(t *testing.T) {
	s := &Slab{Var: &scifmt.VarEntry{TypeName: "double", Index: ioengine.ChunkIndex{Type: ioengine.Float64}}, Count: []int{2}}
	if _, err := s.Float32s(); err == nil {
		t.Error("non-float slab should fail Float32s")
	}
	s2 := &Slab{Var: &scifmt.VarEntry{TypeName: "float", Index: ioengine.ChunkIndex{Type: ioengine.Float32}}, Count: []int{2}, Raw: []byte{0}}
	if _, err := s2.Float32s(); err == nil {
		t.Error("short raw should fail")
	}
	if _, err := s2.Frame("v"); err == nil {
		t.Error("rank-1 slab should fail Frame")
	}
}

func TestPFSReaderShortReadFlat(t *testing.T) {
	r := newRig(t)
	r.pfs.Put("/in/data.bin", make([]byte, 100))
	r.run(t, func(p *sim.Proc) {
		reader := NewPFSReader(nil, r.mount(r.bd.Node(0)))
		_, err := reader.ReadFlat(p, &FlatSource{PFSPath: "/in/data.bin", Offset: 40, Length: 200})
		if err == nil || !strings.Contains(err.Error(), "short read") {
			t.Fatalf("want short-read error, got %v", err)
		}
	})
}

func TestMapperRejectsNegativeFlatBlockSize(t *testing.T) {
	r := newRig(t)
	r.pfs.Put("/in/log.csv", make([]byte, 100))
	r.run(t, func(p *sim.Proc) {
		m := NewMapper(r.hdfs, nil, "/scidp")
		_, err := m.MapPath(p, r.mount(r.bd.Node(0)), "/in", MapOptions{FlatBlockSize: -1})
		if err == nil || !strings.Contains(err.Error(), "negative FlatBlockSize") {
			t.Fatalf("want negative-FlatBlockSize error, got %v", err)
		}
	})
}

// TestPFSReaderSharedCache verifies the engine wiring end to end: a
// second slab read through the same cache decodes nothing and finishes
// strictly faster in virtual time.
func TestPFSReaderSharedCache(t *testing.T) {
	r := newRig(t)
	r.ncFile(t, "/in/plot.nc", 4, 6, 6)
	reg := obs.New()
	r.run(t, func(p *sim.Proc) {
		reader := NewPFSReader(nil, r.mount(r.bd.Node(0)))
		reader.Engine = ioengine.Options{Cache: ioengine.NewCache(0), Obs: reg}
		src := r.mapQR(t, p, "/in/plot.nc", 4)[0] // the whole variable, 4 chunks
		read := func() (*Slab, float64) {
			start := p.Now()
			slab, err := reader.ReadSlab(p, src)
			if err != nil {
				t.Fatal(err)
			}
			return slab, p.Now() - start
		}
		first, cold := read()
		second, warm := read()
		if !bytes.Equal(first.Raw, second.Raw) {
			t.Fatal("cached slab differs from cold read")
		}
		if warm >= cold {
			t.Fatalf("warm read took %v, cold %v; want strictly faster", warm, cold)
		}
	})
	hits := reg.Counter("ioengine/chunk_reads_total", obs.L("result", "hit")).Value()
	misses := reg.Counter("ioengine/chunk_reads_total", obs.L("result", "miss")).Value()
	if hits != 4 || misses != 4 {
		t.Fatalf("chunk reads: %v hits / %v misses, want 4 / 4 (one per chunk)", hits, misses)
	}
}

func TestPFSReaderRetriesTransientReadFaults(t *testing.T) {
	r := newRig(t)
	flat := []byte("0123456789")
	r.pfs.Put("/in/notes.txt", flat)
	reg := obs.New()
	fails := 0
	r.pfs.SetReadFault(func(path string, off, n int64) fault.Outcome {
		if fails < 2 {
			fails++
			return fault.Fail
		}
		return fault.OK
	})
	r.run(t, func(p *sim.Proc) {
		reader := NewPFSReader(nil, r.mount(r.bd.Node(0)))
		reader.Engine.Obs = reg
		reader.Retry = RetryPolicy{MaxRetries: 3, Backoff: 0.01}
		got, err := reader.ReadFlat(p, &FlatSource{PFSPath: "/in/notes.txt", Length: int64(len(flat))})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, flat) {
			t.Fatalf("retried read = %q", got)
		}
	})
	if v := reg.Counter("core/read_retries_total", obs.L("kind", "flaky-read")).Value(); v != 2 {
		t.Fatalf("read retries = %v, want 2", v)
	}
}

func TestPFSReaderFailsFastWithoutRetryPolicy(t *testing.T) {
	r := newRig(t)
	r.pfs.Put("/in/notes.txt", []byte("0123456789"))
	r.pfs.SetReadFault(func(path string, off, n int64) fault.Outcome { return fault.Fail })
	r.run(t, func(p *sim.Proc) {
		reader := NewPFSReader(nil, r.mount(r.bd.Node(0)))
		_, err := reader.ReadFlat(p, &FlatSource{PFSPath: "/in/notes.txt", Length: 10})
		if err == nil {
			t.Fatal("zero-value policy must fail fast")
		}
		if !fault.IsTransient(err) {
			t.Fatalf("want transient error, got %v", err)
		}
	})
}

func TestPFSReaderReadsAroundOSTOutage(t *testing.T) {
	// Every OST goes down before the read and comes back mid-backoff: the
	// first attempt returns all ranges missing (zero-filled), and the
	// read-around pass re-requests only the missing ranges after the
	// outage ends.
	r := newRig(t)
	flat := []byte("0123456789abcdef0123456789abcdef")
	r.pfs.Put("/in/notes.txt", flat)
	reg := obs.New()
	r.allOSTs(true)
	r.k.After(0.05, func() { r.allOSTs(false) })
	r.run(t, func(p *sim.Proc) {
		reader := NewPFSReader(nil, r.mount(r.bd.Node(0)))
		reader.Engine.Obs = reg
		reader.Retry = RetryPolicy{MaxRetries: 5, Backoff: 0.02}
		got, err := reader.ReadFlat(p, &FlatSource{PFSPath: "/in/notes.txt", Length: int64(len(flat))})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, flat) {
			t.Fatalf("read-around returned wrong bytes: %q", got)
		}
	})
	if v := reg.Counter("core/read_around_total").Value(); v == 0 {
		t.Fatal("expected nonzero read-arounds")
	}
}

func TestPFSReaderExhaustsRetriesOnPermanentOutage(t *testing.T) {
	r := newRig(t)
	r.pfs.Put("/in/notes.txt", []byte("0123456789"))
	r.allOSTs(true)
	r.run(t, func(p *sim.Proc) {
		reader := NewPFSReader(nil, r.mount(r.bd.Node(0)))
		reader.Retry = RetryPolicy{MaxRetries: 2, Backoff: 0.01}
		_, err := reader.ReadFlat(p, &FlatSource{PFSPath: "/in/notes.txt", Length: 10})
		if err == nil {
			t.Fatal("permanent outage must surface after retries")
		}
		if !fault.IsTransient(err) || fault.KindOf(err) != "ost-down" {
			t.Fatalf("want transient ost-down, got %v", err)
		}
	})
}
