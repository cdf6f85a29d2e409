// Package cluster models the hardware the SciDP paper runs on: compute
// nodes with a local disk, a NIC, and a bounded number of task slots,
// joined by a switch fabric. Two builders produce the paper's two-cluster
// deployment (Figure 1(c)): an HPC cluster whose storage is a remote
// parallel file system, and a big-data (Hadoop) cluster whose storage is
// node-local disks, with a shared inter-cluster link between them.
package cluster

import (
	"fmt"

	"scidp/internal/sim"
)

// Node is one machine: local disk, network interface, and execution slots.
type Node struct {
	// Name identifies the node (e.g. "bd-3", "oss-1").
	Name string
	// Rack and Zone place the node in the cluster topology ("" on flat
	// clusters). Schedulers use them for host→rack→zone locality
	// escalation.
	Rack, Zone string
	// Disk is the node's local storage bandwidth resource.
	Disk *sim.Resource
	// NIC is the node's network interface resource.
	NIC *sim.Resource
	// Slots is how many tasks the node runs at once (YARN containers,
	// MPI ranks): the stage runner starts that many workers on it. Zero
	// for storage-only nodes.
	Slots int
	// BurstBufferBytes is the node-local burst-buffer capacity the
	// cooperative cache tier may occupy (0 = no buffer provisioned).
	BurstBufferBytes int64
}

// Place locates a host in the topology hierarchy.
type Place struct {
	// Rack and Zone name the host's enclosing domains ("" when the
	// cluster is flat at that level).
	Rack, Zone string
}

// Cluster is a named set of nodes connected by one switch fabric.
type Cluster struct {
	// Name identifies the cluster ("hpc", "bd").
	Name string
	// Nodes are the member machines in stable order.
	Nodes []*Node
	// Fabric is the shared intra-cluster switching capacity every
	// cross-node transfer traverses.
	Fabric *sim.Resource

	places map[string]Place
	// rackSw/zoneSw are the per-rack and per-zone switch resources peer
	// transfers traverse instead of the top fabric when both endpoints
	// share the domain (empty on flat clusters).
	rackSw map[string]*sim.Resource
	zoneSw map[string]*sim.Resource
}

// Config carries the hardware constants for building a cluster. The zero
// value is unusable; start from DefaultHardware and adjust.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// SlotsPerNode is the task-slot count per node (the paper runs 8
	// tasks per Hadoop node).
	SlotsPerNode int
	// DiskBW is per-node local disk bandwidth, bytes/second.
	DiskBW float64
	// DiskLatency is the per-operation seek/setup delay, seconds.
	DiskLatency float64
	// NICBW is per-node network interface bandwidth, bytes/second.
	NICBW float64
	// NetLatency is the per-operation network round-trip charge, seconds.
	NetLatency float64
	// FabricBW is the cluster switch's aggregate capacity, bytes/second.
	FabricBW float64
	// NodesPerRack, when positive, groups consecutive nodes into racks
	// ("<name>-rack-<i>"). Zero leaves the cluster flat — the paper's
	// 8-node testbed shape.
	NodesPerRack int
	// RacksPerZone, when positive (and NodesPerRack is set), groups
	// consecutive racks into zones ("<name>-zone-<i>") — the third
	// locality tier for O(100k)-node sweeps.
	RacksPerZone int
	// BurstBufferBytes provisions each node's burst buffer for the
	// cooperative cache tier (0 = none).
	BurstBufferBytes int64
}

// DefaultHardware mirrors the paper's Chameleon testbed: 250 GB 7200 RPM
// SATA disks (~100 MB/s), 10 GbE NICs, and a fabric provisioned at half of
// the sum of NIC bandwidth for eight nodes.
func DefaultHardware(nodes, slotsPerNode int) Config {
	return Config{
		Nodes:        nodes,
		SlotsPerNode: slotsPerNode,
		DiskBW:       100e6,
		DiskLatency:  0.004,
		NICBW:        1.25e9,
		NetLatency:   0.0002,
		FabricBW:     float64(nodes) * 1.25e9 / 2,
	}
}

// Scaled returns a copy of c with every bandwidth divided by factor.
// Latencies and slot counts are untouched. Experiments run on data scaled
// down by the same factor, so virtual times stay at paper scale while the
// working set fits in memory.
func (c Config) Scaled(factor float64) Config {
	if factor <= 0 {
		panic("cluster: scale factor must be positive")
	}
	c.DiskBW /= factor
	c.NICBW /= factor
	c.FabricBW /= factor
	return c
}

// New builds a cluster from the config. Nothing in a cluster is bound to
// a kernel since slots became a count; the parameter stays because
// benchmark/, which a change outside it may not edit, passes one.
func New(_ *sim.Kernel, name string, c Config) *Cluster {
	if c.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	cl := &Cluster{
		Name:   name,
		Fabric: sim.NewResource(name+"/fabric", c.FabricBW),
		places: map[string]Place{},
		rackSw: map[string]*sim.Resource{},
		zoneSw: map[string]*sim.Resource{},
	}
	// Peer transfers cross per-rack and per-zone switches provisioned at
	// half the aggregate bandwidth below them.
	rackBW := c.NICBW * float64(c.NodesPerRack) / 2
	zoneBW := rackBW * float64(c.RacksPerZone) / 2
	for i := 0; i < c.Nodes; i++ {
		n := &Node{Name: fmt.Sprintf("%s-%d", name, i), Slots: c.SlotsPerNode, BurstBufferBytes: c.BurstBufferBytes}
		if c.NodesPerRack > 0 {
			rack := i / c.NodesPerRack
			n.Rack = fmt.Sprintf("%s-rack-%d", name, rack)
			if _, ok := cl.rackSw[n.Rack]; !ok {
				sw := sim.NewResource(n.Rack+"/switch", rackBW)
				sw.Latency = c.NetLatency
				cl.rackSw[n.Rack] = sw
			}
			if c.RacksPerZone > 0 {
				n.Zone = fmt.Sprintf("%s-zone-%d", name, rack/c.RacksPerZone)
				if _, ok := cl.zoneSw[n.Zone]; !ok {
					sw := sim.NewResource(n.Zone+"/switch", zoneBW)
					sw.Latency = c.NetLatency
					cl.zoneSw[n.Zone] = sw
				}
			}
		}
		n.Disk = sim.NewResource(n.Name+"/disk", c.DiskBW)
		n.Disk.Latency = c.DiskLatency
		n.NIC = sim.NewResource(n.Name+"/nic", c.NICBW)
		n.NIC.Latency = c.NetLatency
		cl.Nodes = append(cl.Nodes, n)
		cl.places[n.Name] = Place{Rack: n.Rack, Zone: n.Zone}
	}
	return cl
}

// Place returns the topology placement of the named host (zero Place for
// unknown hosts or flat clusters).
func (c *Cluster) Place(host string) Place { return c.places[host] }

// HasTopology reports whether the cluster carries rack (and possibly
// zone) structure.
func (c *Cluster) HasTopology() bool {
	return len(c.Nodes) > 0 && c.Nodes[0].Rack != ""
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// Lookup returns the node with the given name, or nil.
func (c *Cluster) Lookup(name string) *Node {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// LocalReadPath is the resource chain for reading a node's own disk.
func LocalReadPath(n *Node) []*sim.Resource { return []*sim.Resource{n.Disk} }

// RemoteReadPath is the chain for dst pulling bytes off src's disk across
// the fabric: source disk, source NIC, fabric, destination NIC.
func (c *Cluster) RemoteReadPath(src, dst *Node) []*sim.Resource {
	return []*sim.Resource{src.Disk, src.NIC, c.Fabric, dst.NIC}
}

// NetPath is the chain for a memory-to-memory transfer between two nodes
// of this cluster (no disk on either end).
func (c *Cluster) NetPath(src, dst *Node) []*sim.Resource {
	return c.AppendNetPath(nil, src, dst)
}

// AppendNetPath appends NetPath(src, dst) to chain and returns the
// extended chain, for a caller that packs several chains into one array.
func (c *Cluster) AppendNetPath(chain []*sim.Resource, src, dst *Node) []*sim.Resource {
	return append(chain, src.NIC, c.Fabric, dst.NIC)
}

// PeerPath is the locality-aware chain for a memory-to-memory peer
// transfer: rack-local traffic crosses only the rack switch, zone-local
// traffic climbs through both rack switches and the zone switch, and
// cross-zone traffic takes the top fabric between the rack switches.
// Flat clusters fall back to NetPath; src == dst transfers nothing.
func (c *Cluster) PeerPath(src, dst *Node) []*sim.Resource {
	if src == dst {
		return nil
	}
	if src.Rack == "" || dst.Rack == "" {
		return c.NetPath(src, dst)
	}
	if src.Rack == dst.Rack {
		return []*sim.Resource{src.NIC, c.rackSw[src.Rack], dst.NIC}
	}
	if src.Zone != "" && src.Zone == dst.Zone {
		return []*sim.Resource{src.NIC, c.rackSw[src.Rack], c.zoneSw[src.Zone], c.rackSw[dst.Rack], dst.NIC}
	}
	return []*sim.Resource{src.NIC, c.rackSw[src.Rack], c.Fabric, c.rackSw[dst.Rack], dst.NIC}
}

// PeerPathByName resolves node names and returns their PeerPath (nil
// when either name is unknown — the transfer is then free). Together
// with Distance this satisfies ioengine.TierTopology.
func (c *Cluster) PeerPathByName(src, dst string) []*sim.Resource {
	s, d := c.Lookup(src), c.Lookup(dst)
	if s == nil || d == nil {
		return nil
	}
	return c.PeerPath(s, d)
}

// Distance ranks the locality of two hosts: 0 same host, 1 same rack,
// 2 same zone, 3 beyond (which includes every pair on a flat cluster).
func (c *Cluster) Distance(src, dst string) int {
	if src == dst {
		return 0
	}
	a, b := c.places[src], c.places[dst]
	if a.Rack != "" && a.Rack == b.Rack {
		return 1
	}
	if a.Zone != "" && a.Zone == b.Zone {
		return 2
	}
	return 3
}

// Interlink joins two clusters with a shared cross-cluster link of the
// given bandwidth — the paper's path between the Lustre storage nodes and
// the Hadoop nodes.
type Interlink struct {
	// Link is the shared cross-cluster capacity.
	Link *sim.Resource
}

// NewInterlink creates a cross-cluster link.
func NewInterlink(bw float64, latency float64) *Interlink {
	r := sim.NewResource("interlink", bw)
	r.Latency = latency
	return &Interlink{Link: r}
}
