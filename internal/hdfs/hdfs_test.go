package hdfs

import (
	"bytes"
	"fmt"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/fault"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

func testCluster(k *sim.Kernel, nodes int) *cluster.Cluster {
	cfg := cluster.Config{
		Nodes: nodes, SlotsPerNode: 2,
		DiskBW: 100, NICBW: 1000, FabricBW: 1000,
	}
	return cluster.New(k, "bd", cfg)
}

func testConfig() Config {
	return Config{BlockSize: 128, Replication: 1, NNOpsPerSec: 1e9}
}

func run(k *sim.Kernel, fn func(p *sim.Proc)) {
	k.Go("test", fn)
	k.Run()
}

func TestWriteReadRoundtrip(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, testConfig())
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	run(k, func(p *sim.Proc) {
		if err := fs.WriteFile(p, cl.Node(0), "/d/f", data); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile(p, cl.Node(1), "/d/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("roundtrip mismatch")
		}
	})
}

func TestBlockSplitting(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(0), "/f", make([]byte, 300))
		n, _ := fs.Lookup("/f")
		if len(n.Blocks) != 3 {
			t.Fatalf("blocks = %d, want 3 (128+128+44)", len(n.Blocks))
		}
		if n.Blocks[0].Size != 128 || n.Blocks[2].Size != 44 {
			t.Fatalf("block sizes = %d,%d,%d", n.Blocks[0].Size, n.Blocks[1].Size, n.Blocks[2].Size)
		}
		if n.Size() != 300 {
			t.Fatalf("Size = %d", n.Size())
		}
	})
}

func TestFirstReplicaLocal(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(2), "/f", make([]byte, 100))
		n, _ := fs.Lookup("/f")
		if n.Blocks[0].Replicas[0].Node != cl.Node(2) {
			t.Fatal("first replica should land on the writer's node")
		}
	})
}

func TestReplicationPlacesDistinctNodes(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	cfg := testConfig()
	cfg.Replication = 3
	fs := New(k, cl, cfg)
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(0), "/f", make([]byte, 100))
		n, _ := fs.Lookup("/f")
		reps := n.Blocks[0].Replicas
		if len(reps) != 3 {
			t.Fatalf("replicas = %d, want 3", len(reps))
		}
		seen := map[*DataNode]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Fatal("duplicate replica node")
			}
			seen[r] = true
		}
	})
}

func TestLocalReadFasterThanRemote(t *testing.T) {
	elapsed := func(reader int) float64 {
		k := sim.NewKernel()
		// NIC slower than disk so the remote path's extra hops bite.
		cl := cluster.New(k, "bd", cluster.Config{
			Nodes: 4, SlotsPerNode: 2,
			DiskBW: 100, NICBW: 50, FabricBW: 1000,
		})
		fs := New(k, cl, testConfig())
		var out float64
		run(k, func(p *sim.Proc) {
			fs.WriteFile(p, cl.Node(0), "/f", make([]byte, 128))
			start := p.Now()
			fs.ReadFile(p, cl.Node(reader), "/f")
			out = p.Now() - start
		})
		return out
	}
	local, remote := elapsed(0), elapsed(1)
	if local <= 0 || remote <= local {
		t.Fatalf("local %v should beat remote %v", local, remote)
	}
}

func TestVirtualFile(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, testConfig())
	type src struct{ path string }
	run(k, func(p *sim.Proc) {
		specs := []VirtualBlockSpec{
			{Size: 1000, Source: src{"/pfs/a.nc#chunk0"}},
			{Size: 500, Source: src{"/pfs/a.nc#chunk1"}},
		}
		n, err := fs.CreateVirtualFile(p, "/mirror/a.nc/var", specs)
		if err != nil {
			t.Fatal(err)
		}
		if !n.Virtual || n.Size() != 1500 {
			t.Fatalf("virtual=%v size=%d", n.Virtual, n.Size())
		}
		if !fs.Exists("/mirror/a.nc") {
			t.Fatal("parent directories should be created")
		}
		if _, err := fs.ReadBlock(p, cl.Node(0), n.Blocks[0]); err == nil {
			t.Fatal("reading a virtual block via HDFS should fail")
		}
		if got := n.Blocks[1].Source.(src).path; got != "/pfs/a.nc#chunk1" {
			t.Fatalf("source payload = %q", got)
		}
		if fs.TotalUsed() != 0 {
			t.Fatalf("virtual files must store no bytes, used=%d", fs.TotalUsed())
		}
	})
}

func TestVirtualFileCostsOnlyMetadata(t *testing.T) {
	// Creating a virtual mirror of a large file must be metadata-cheap:
	// orders of magnitude faster than writing the same bytes.
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	cfg := testConfig()
	cfg.NNOpsPerSec = 1000
	fs := New(k, cl, cfg)
	var virtualT, writeT float64
	run(k, func(p *sim.Proc) {
		start := p.Now()
		specs := make([]VirtualBlockSpec, 100)
		for i := range specs {
			specs[i] = VirtualBlockSpec{Size: 128}
		}
		fs.CreateVirtualFile(p, "/v", specs)
		virtualT = p.Now() - start
		start = p.Now()
		fs.WriteFile(p, cl.Node(0), "/w", make([]byte, 100*128))
		writeT = p.Now() - start
	})
	if virtualT*10 > writeT {
		t.Fatalf("virtual create %v not much cheaper than write %v", virtualT, writeT)
	}
}

func TestWalk(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 2)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(0), "/a/x", []byte("1"))
		fs.WriteFile(p, cl.Node(0), "/a/y", []byte("2"))
		fs.WriteFile(p, cl.Node(0), "/a/sub/z", []byte("3"))
		files, err := fs.Walk(p, "/a")
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 3 {
			t.Fatalf("Walk /a = %d files, want 3", len(files))
		}
		for _, f := range files {
			if f.Dir {
				t.Fatal("Walk must omit directories")
			}
		}
	})
}

func TestDuplicateCreateFails(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 2)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(0), "/f", []byte("x"))
		if err := fs.WriteFile(p, cl.Node(0), "/f", []byte("y")); err == nil {
			t.Fatal("duplicate create should fail")
		}
		if _, err := fs.CreateVirtualFile(p, "/f", nil); err == nil {
			t.Fatal("virtual create over existing file should fail")
		}
	})
}

func TestMkdirOverFileFails(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 2)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(0), "/f", []byte("x"))
		if err := fs.Mkdir(p, "/f"); err == nil {
			t.Fatal("mkdir over a file should fail")
		}
		if err := fs.WriteFile(p, cl.Node(0), "/f/child", []byte("x")); err == nil {
			t.Fatal("creating a child under a file should fail")
		}
	})
}

func TestEmptyFile(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 2)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		if err := fs.WriteFile(p, cl.Node(0), "/empty", nil); err != nil {
			t.Fatal(err)
		}
		n, _ := fs.Lookup("/empty")
		if n.Size() != 0 || len(n.Blocks) != 0 {
			t.Fatalf("empty file: size=%d blocks=%d", n.Size(), len(n.Blocks))
		}
		got, err := fs.ReadFile(p, cl.Node(0), "/empty")
		if err != nil || len(got) != 0 {
			t.Fatalf("read empty = %v, %v", got, err)
		}
	})
}

func TestHostsOf(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 3)
	cfg := testConfig()
	cfg.Replication = 2
	fs := New(k, cl, cfg)
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(1), "/f", make([]byte, 10))
		n, _ := fs.Lookup("/f")
		hosts := HostsOf(n.Blocks[0])
		if len(hosts) != 2 || hosts[0] != "bd-1" {
			t.Fatalf("hosts = %v", hosts)
		}
	})
}

func TestManyFilesSpreadAcrossNodes(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, testConfig())
	// Writer outside the cluster: all replicas placed by cursor.
	outside := &cluster.Node{Name: "edge", Disk: sim.NewResource("edge/disk", 100), NIC: sim.NewResource("edge/nic", 1000)}
	run(k, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			fs.WriteFile(p, outside, fmt.Sprintf("/f%d", i), make([]byte, 10))
		}
	})
	for _, dn := range fs.DataNodes() {
		if dn.BlockCount != 2 {
			t.Fatalf("node %s holds %d blocks, want 2 (round-robin)", dn.Node.Name, dn.BlockCount)
		}
	}
}

func TestReadAtRangeAcrossBlocks(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 3)
	fs := New(k, cl, testConfig()) // 128-byte blocks
	data := make([]byte, 400)
	for i := range data {
		data[i] = byte(i)
	}
	run(k, func(p *sim.Proc) {
		fs.WriteFile(p, cl.Node(0), "/f", data)
		// Range spanning the block-1/block-2 boundary.
		got, err := fs.ReadAt(p, cl.Node(1), "/f", 120, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[120:140]) {
			t.Fatal("cross-block range mismatch")
		}
		// Short read at EOF.
		got, err = fs.ReadAt(p, cl.Node(1), "/f", 390, 100)
		if err != nil || len(got) != 10 {
			t.Fatalf("EOF read = %d bytes, %v", len(got), err)
		}
		// Past EOF.
		got, err = fs.ReadAt(p, cl.Node(1), "/f", 500, 10)
		if err != nil || got != nil {
			t.Fatalf("past-EOF = %v, %v", got, err)
		}
		if _, err := fs.ReadAt(p, cl.Node(1), "/f", -1, 10); err == nil {
			t.Fatal("negative offset should fail")
		}
		if _, err := fs.ReadAt(p, cl.Node(1), "/missing", 0, 10); err == nil {
			t.Fatal("missing file should fail")
		}
	})
}

func TestReadAtChargesOnlyTouchedBlocks(t *testing.T) {
	// Reading 10 bytes out of a 3-block file must be much cheaper than
	// reading the whole file — the SciHadoop selective-read property.
	elapsed := func(whole bool) float64 {
		k := sim.NewKernel()
		cl := testCluster(k, 2)
		fs := New(k, cl, testConfig())
		var out float64
		run(k, func(p *sim.Proc) {
			fs.WriteFile(p, cl.Node(0), "/f", make([]byte, 384))
			start := p.Now()
			if whole {
				fs.ReadFile(p, cl.Node(0), "/f")
			} else {
				fs.ReadAt(p, cl.Node(0), "/f", 130, 10)
			}
			out = p.Now() - start
		})
		return out
	}
	whole, partial := elapsed(true), elapsed(false)
	if partial*3 > whole {
		t.Fatalf("partial read (%v) should be far cheaper than whole (%v)", partial, whole)
	}
}

func TestReadAtVirtualBlockFails(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 2)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		fs.CreateVirtualFile(p, "/v", []VirtualBlockSpec{{Size: 100}})
		if _, err := fs.ReadAt(p, cl.Node(0), "/v", 0, 10); err == nil {
			t.Fatal("reading a virtual block range should fail")
		}
	})
}

func TestPutInstantPlacement(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 3)
	fs := New(k, cl, testConfig())
	if _, err := fs.Put("/p", make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Put("/p", nil); err == nil {
		t.Fatal("duplicate Put should fail")
	}
	n, err := fs.Lookup("/p")
	if err != nil || len(n.Blocks) != 3 {
		t.Fatalf("blocks = %v, %v", n, err)
	}
	if fs.TotalUsed() != 300 {
		t.Fatalf("used = %d", fs.TotalUsed())
	}
	if k.Now() != 0 {
		t.Fatal("Put must not advance virtual time")
	}
	run(k, func(p *sim.Proc) {
		got, err := fs.ReadFile(p, cl.Node(0), "/p")
		if err != nil || len(got) != 300 {
			t.Fatalf("read back = %d, %v", len(got), err)
		}
	})
}

func TestReplicaFailoverOnDeadDataNode(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	cfg := testConfig()
	cfg.Replication = 2
	fs := New(k, cl, cfg)
	reg := obs.New()
	fs.SetObs(reg)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 7)
	}
	run(k, func(p *sim.Proc) {
		// The writer holds each block's first replica, so killing it
		// forces every remote read through failover.
		if err := fs.WriteFile(p, cl.Node(1), "/f", data); err != nil {
			t.Fatal(err)
		}
		fs.SetDataNodeDown(1, true)
		got, err := fs.ReadFile(p, cl.Node(0), "/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("failover read returned wrong bytes")
		}
		// New placements must skip the dead DataNode.
		if err := fs.WriteFile(p, cl.Node(0), "/g", data); err != nil {
			t.Fatal(err)
		}
		n, _ := fs.Lookup("/g")
		for _, b := range n.Blocks {
			if len(b.Replicas) != 2 {
				t.Fatalf("replicas = %d, want 2", len(b.Replicas))
			}
			for _, dn := range b.Replicas {
				if dn.Node == cl.Node(1) {
					t.Fatal("placement used a dead DataNode")
				}
			}
		}
	})
	if v := reg.Counter("hdfs/replica_failovers_total").Value(); v == 0 {
		t.Fatal("expected nonzero replica failovers")
	}
}

func TestAllReplicasDeadIsTransient(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, testConfig())
	run(k, func(p *sim.Proc) {
		if err := fs.WriteFile(p, cl.Node(1), "/f", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		fs.SetDataNodeDown(1, true)
		_, err := fs.ReadFile(p, cl.Node(0), "/f")
		if err == nil {
			t.Fatal("read with no live replica must fail")
		}
		if !fault.IsTransient(err) || fault.KindOf(err) != "dn-down" {
			t.Fatalf("want transient dn-down, got %v", err)
		}
		// Recovery: the daemon comes back and the read succeeds.
		fs.SetDataNodeDown(1, false)
		if _, err := fs.ReadFile(p, cl.Node(0), "/f"); err != nil {
			t.Fatal(err)
		}
	})
}

// DataNodes returns the storage daemons in node order.
func (fs *FS) DataNodes() []*DataNode { return fs.dns }
