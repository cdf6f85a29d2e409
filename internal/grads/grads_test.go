package grads

import (
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/netcdf"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
)

func sample(t testing.TB) []byte {
	t.Helper()
	u := make([]float32, 2*3*4)
	v := make([]float32, 1*3*4)
	for i := range u {
		u[i] = float32(i)
	}
	for i := range v {
		v[i] = float32(i) * 10
	}
	blob, err := Encode(
		[]VarSpec{{Name: "U", Levels: 2, Lat: 3, Lon: 4}, {Name: "V", Levels: 1, Lat: 3, Lon: 4}},
		[][]float32{u, v})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode([]VarSpec{{Name: "a", Levels: 1, Lat: 1, Lon: 1}}, nil); err == nil {
		t.Error("spec/payload mismatch should fail")
	}
	if _, err := Encode([]VarSpec{{Name: "a", Levels: 0, Lat: 1, Lon: 1}}, [][]float32{nil}); err == nil {
		t.Error("zero dims should fail")
	}
	if _, err := Encode([]VarSpec{{Name: "a", Levels: 1, Lat: 2, Lon: 2}}, [][]float32{{1}}); err == nil {
		t.Error("short payload should fail")
	}
}

func TestDetect(t *testing.T) {
	blob := sample(t)
	f := Format()
	if !f.Detect(netcdf.BytesReader(blob)) {
		t.Fatal("Detect should accept a grads file")
	}
	if f.Detect(netcdf.BytesReader([]byte("NCL1..."))) {
		t.Fatal("Detect should reject netCDF")
	}
}

func TestExplore(t *testing.T) {
	info, err := Format().Explore(netcdf.BytesReader(sample(t)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "grads" || len(info.Vars) != 2 {
		t.Fatalf("info = %+v", info)
	}
	u, err := info.Var("U")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Segments) != 2 || u.RawBytes != 2*3*4*4 || u.StoredBytes != u.RawBytes {
		t.Fatalf("U = %+v", u)
	}
	if u.Segments[1].Start[0] != 1 {
		t.Fatalf("segment 1 start = %v", u.Segments[1].Start)
	}
	// Records are laid out back to back: V starts right after U ends.
	v, _ := info.Var("V")
	if v.Segments[0].Offset != u.Segments[1].Offset+u.Segments[1].StoredSize {
		t.Fatal("V offset not contiguous after U")
	}
}

func TestReadSlab(t *testing.T) {
	blob := sample(t)
	raw, err := Format().ReadSlab(netcdf.BytesReader(blob), "U", []int{1, 0, 0}, []int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 3*4*4 {
		t.Fatalf("raw = %d bytes", len(raw))
	}
	// First value of level 1 is element 12.
	if raw[0] != 0 || raw[1] != 0 || raw[2] != 0x40 || raw[3] != 0x41 { // float32(12) LE
		t.Fatalf("level 1 first value bytes = %v", raw[:4])
	}
	if _, err := Format().ReadSlab(netcdf.BytesReader(blob), "W", []int{0, 0, 0}, []int{1, 3, 4}); err == nil {
		t.Error("missing var should fail")
	}
	if _, err := Format().ReadSlab(netcdf.BytesReader(blob), "U", []int{0, 1, 0}, []int{1, 2, 4}); err == nil {
		t.Error("partial-level slab should fail")
	}
	if _, err := Format().ReadSlab(netcdf.BytesReader(blob), "U", []int{2, 0, 0}, []int{1, 3, 4}); err == nil {
		t.Error("out-of-range level should fail")
	}
}

func TestCorruptHeaders(t *testing.T) {
	blob := sample(t)
	if _, err := Format().Explore(netcdf.BytesReader(blob[:6])); err == nil {
		t.Error("truncated prefix should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Format().Explore(netcdf.BytesReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	short := append([]byte(nil), blob[:len(blob)-8]...)
	if _, err := Format().Explore(netcdf.BytesReader(short)); err == nil {
		t.Error("declared data beyond EOF should fail")
	}
}

// TestPluginWorksThroughSciDPCore: registering the plugin is ALL that is
// needed — the File Explorer detects the file, the Data Mapper mirrors
// its variables per level, and the PFS Reader resolves slabs.
func TestPluginWorksThroughSciDPCore(t *testing.T) {
	k := sim.NewKernel()
	bd := cluster.New(k, "bd", cluster.Config{Nodes: 2, SlotsPerNode: 2, DiskBW: 1e6, NICBW: 1e6, FabricBW: 1e6})
	pcfg := pfs.DefaultConfig()
	pcfg.MDSLatency = 0
	fs := pfs.New(k, pcfg)
	hfs := hdfs.New(k, bd, hdfs.Config{BlockSize: 4096, Replication: 1, NNOpsPerSec: 1e9})
	fs.Put("/in/run.grd", sample(t))

	reg := scifmt.Default()
	reg.Register(Format())

	k.Go("driver", func(p *sim.Proc) {
		mount := fs.NewClient(bd.Node(0).NIC)
		m := core.NewMapper(hfs, reg, "/scidp")
		mapping, err := m.MapPath(p, mount, "/in", core.MapOptions{Vars: []string{"U"}})
		if err != nil {
			t.Error(err)
			return
		}
		if mapping.Files[0].Format != "grads" {
			t.Errorf("format = %s", mapping.Files[0].Format)
		}
		inode := mapping.Files[0].Vars[0].INode
		if len(inode.Blocks) != 2 {
			t.Errorf("blocks = %d, want one per level", len(inode.Blocks))
		}
		reader := core.NewPFSReader(reg, fs.NewClient(bd.Node(1).NIC))
		v, err := reader.ReadBlock(p, inode.Blocks[1])
		if err != nil {
			t.Error(err)
			return
		}
		vals, err := v.(*core.Slab).Float32s()
		if err != nil {
			t.Error(err)
			return
		}
		if vals[0] != 12 { // level 1 starts at element 12
			t.Errorf("slab[0] = %v, want 12", vals[0])
		}
	})
	k.Run()
}
