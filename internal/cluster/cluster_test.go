package cluster

import (
	"math"
	"testing"

	"scidp/internal/sim"
)

func TestNewClusterShape(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultHardware(8, 8)
	cl := New(k, "bd", cfg)
	if len(cl.Nodes) != 8 {
		t.Fatalf("nodes = %d, want 8", len(cl.Nodes))
	}
	for i, n := range cl.Nodes {
		if n.Slots != 8 {
			t.Errorf("node %d slots wrong", i)
		}
		if n.Disk.Capacity != 100e6 {
			t.Errorf("node %d disk bw = %v", i, n.Disk.Capacity)
		}
	}
	if cl.Lookup("bd-3") != cl.Node(3) {
		t.Error("Lookup(bd-3) != Node(3)")
	}
	if cl.Lookup("nope") != nil {
		t.Error("Lookup of missing node should be nil")
	}
	if cl.HasTopology() {
		t.Error("DefaultHardware cluster should be flat")
	}
	if p := cl.Place("bd-3"); p.Rack != "" || p.Zone != "" {
		t.Errorf("flat cluster placement = %+v, want empty", p)
	}
}

func TestTopologyPlacement(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultHardware(12, 2)
	cfg.NodesPerRack = 3
	cfg.RacksPerZone = 2
	cl := New(k, "bd", cfg)
	if !cl.HasTopology() {
		t.Fatal("cluster with NodesPerRack should report topology")
	}
	// 12 nodes / 3 per rack = 4 racks; 4 racks / 2 per zone = 2 zones.
	wants := []struct {
		host, rack, zone string
	}{
		{"bd-0", "bd-rack-0", "bd-zone-0"},
		{"bd-2", "bd-rack-0", "bd-zone-0"},
		{"bd-3", "bd-rack-1", "bd-zone-0"},
		{"bd-6", "bd-rack-2", "bd-zone-1"},
		{"bd-11", "bd-rack-3", "bd-zone-1"},
	}
	for _, w := range wants {
		p := cl.Place(w.host)
		if p.Rack != w.rack || p.Zone != w.zone {
			t.Errorf("Place(%s) = %+v, want rack %s zone %s", w.host, p, w.rack, w.zone)
		}
		n := cl.Lookup(w.host)
		if n.Rack != w.rack || n.Zone != w.zone {
			t.Errorf("node %s carries rack %q zone %q", w.host, n.Rack, n.Zone)
		}
	}
}

func TestPeerPathAndDistance(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultHardware(12, 2)
	cfg.NodesPerRack = 3
	cfg.RacksPerZone = 2
	cfg.BurstBufferBytes = 1 << 20
	cl := New(k, "bd", cfg)
	for _, n := range cl.Nodes {
		if n.BurstBufferBytes != 1<<20 {
			t.Fatalf("node %s burst buffer = %d, want %d", n.Name, n.BurstBufferBytes, 1<<20)
		}
	}
	// bd-0/bd-2 share rack-0; bd-0/bd-3 share zone-0 across racks;
	// bd-0/bd-6 are in different zones.
	wants := []struct {
		src, dst string
		dist     int
		hops     int
	}{
		{"bd-0", "bd-0", 0, 0},
		{"bd-0", "bd-2", 1, 3}, // NIC, rack switch, NIC
		{"bd-0", "bd-3", 2, 5}, // NIC, rack, zone, rack, NIC
		{"bd-0", "bd-6", 3, 5}, // NIC, rack, fabric, rack, NIC
	}
	for _, w := range wants {
		if d := cl.Distance(w.src, w.dst); d != w.dist {
			t.Errorf("Distance(%s,%s) = %d, want %d", w.src, w.dst, d, w.dist)
		}
		path := cl.PeerPathByName(w.src, w.dst)
		if len(path) != w.hops {
			t.Errorf("PeerPath(%s,%s) has %d hops, want %d", w.src, w.dst, len(path), w.hops)
		}
		for i, r := range path {
			if r == nil {
				t.Errorf("PeerPath(%s,%s) hop %d is nil", w.src, w.dst, i)
			}
		}
	}
	// Rack-local traffic must not cross the top fabric.
	for _, r := range cl.PeerPathByName("bd-0", "bd-2") {
		if r == cl.Fabric {
			t.Error("rack-local peer path must not use the fabric")
		}
	}
	// Cross-zone traffic must.
	cross := cl.PeerPathByName("bd-0", "bd-6")
	found := false
	for _, r := range cross {
		if r == cl.Fabric {
			found = true
		}
	}
	if !found {
		t.Error("cross-zone peer path must use the fabric")
	}
	if cl.PeerPathByName("bd-0", "nope") != nil {
		t.Error("unknown node must yield a nil peer path")
	}
}

func TestPeerPathFlatFallsBackToNetPath(t *testing.T) {
	k := sim.NewKernel()
	cl := New(k, "bd", DefaultHardware(4, 2))
	got := cl.PeerPath(cl.Node(0), cl.Node(1))
	want := cl.NetPath(cl.Node(0), cl.Node(1))
	if len(got) != len(want) {
		t.Fatalf("flat peer path %d hops, want NetPath's %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("flat peer path hop %d differs from NetPath", i)
		}
	}
}

func TestStorageOnlyNodesHaveNoSlots(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultHardware(3, 0)
	cl := New(k, "oss", cfg)
	for _, n := range cl.Nodes {
		if n.Slots != 0 {
			t.Errorf("storage node %s should have no slots", n.Name)
		}
	}
}

func TestScaledDividesBandwidthOnly(t *testing.T) {
	cfg := DefaultHardware(4, 8)
	s := cfg.Scaled(10)
	if s.DiskBW != cfg.DiskBW/10 || s.NICBW != cfg.NICBW/10 || s.FabricBW != cfg.FabricBW/10 {
		t.Error("Scaled must divide every bandwidth by the factor")
	}
	if s.DiskLatency != cfg.DiskLatency || s.NetLatency != cfg.NetLatency {
		t.Error("Scaled must not change latencies")
	}
	if s.SlotsPerNode != cfg.SlotsPerNode || s.Nodes != cfg.Nodes {
		t.Error("Scaled must not change counts")
	}
}

func TestScaledRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) should panic")
		}
	}()
	DefaultHardware(1, 1).Scaled(0)
}

func TestLocalVersusRemoteReadTime(t *testing.T) {
	k := sim.NewKernel()
	cfg := Config{Nodes: 2, SlotsPerNode: 1, DiskBW: 100, NICBW: 1000, FabricBW: 1000}
	cl := New(k, "bd", cfg)
	var local, remote float64
	k.Go("local", func(p *sim.Proc) {
		p.Transfer(100, LocalReadPath(cl.Node(0))...)
		local = p.Now()
	})
	k.Run()
	k2 := sim.NewKernel()
	cl2 := New(k2, "bd", cfg)
	k2.Go("remote", func(p *sim.Proc) {
		p.Transfer(100, cl2.RemoteReadPath(cl2.Node(1), cl2.Node(0))...)
		remote = p.Now()
	})
	k2.Run()
	if local <= 0 || remote < local {
		t.Fatalf("remote read (%v) should not beat local read (%v)", remote, local)
	}
}

func TestFabricContention(t *testing.T) {
	// Two cross-node transfers sharing a fabric slower than the NIC sum
	// must take longer than one alone.
	cfg := Config{Nodes: 4, SlotsPerNode: 1, DiskBW: 1e9, NICBW: 1000, FabricBW: 1000}
	solo := func(n int) float64 {
		k := sim.NewKernel()
		cl := New(k, "bd", cfg)
		var last float64
		for i := 0; i < n; i++ {
			src, dst := cl.Node(i*2), cl.Node(i*2+1)
			k.Go("t", func(p *sim.Proc) {
				p.Transfer(1000, cl.NetPath(src, dst)...)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		k.Run()
		return last
	}
	one, two := solo(1), solo(2)
	if two < 1.9*one {
		t.Fatalf("fabric contention missing: 1 flow %v, 2 flows %v", one, two)
	}
}

func TestInterlinkShared(t *testing.T) {
	k := sim.NewKernel()
	cfg := Config{Nodes: 2, SlotsPerNode: 1, DiskBW: 1e9, NICBW: 1e9, FabricBW: 1e9}
	hpc := New(k, "hpc", cfg)
	bd := New(k, "bd", cfg)
	il := NewInterlink(1000, 0)
	var ends []float64
	for i := 0; i < 2; i++ {
		src, dst := hpc.Node(i), bd.Node(i)
		k.Go("x", func(p *sim.Proc) {
			p.Transfer(1000, src.NIC, il.Link, dst.NIC)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	for _, e := range ends {
		if math.Abs(e-2.0) > 1e-6 {
			t.Fatalf("shared interlink: end %v, want 2.0", e)
		}
	}
}
