// Package hdfs implements a Hadoop Distributed File System substrate: a
// NameNode holding the namespace and block map, DataNodes co-located with
// the big-data cluster's compute nodes, fixed-size blocks with replication,
// and locality-aware reads (a task reading a block that has a replica on
// its own node pays local-disk cost only; otherwise the bytes cross the
// cluster fabric).
//
// Two extensions carry SciDP (Section III of the paper):
//
//   - Virtual inodes and dummy blocks. A virtual file's blocks hold no
//     bytes and no replica locations — only a Size and an opaque Source
//     payload that SciDP's Data Mapper fills with the PFS file segment or
//     netCDF hyperslab the block stands for. The MapReduce layer schedules
//     over them exactly like real blocks (the paper: "The dummy HDFS block
//     works as a placeholder").
//
//   - A pluggable placement cursor, so tests can pin block layouts.
//
// Bytes of real blocks are stored once and shared by replicas; replication
// affects placement, fault surface, and write cost, not storage in this
// simulation.
package hdfs

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"scidp/internal/cluster"
	"scidp/internal/fault"
	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// Config sizes the file system. DefaultConfig matches the paper's
// deployment: 128 MB blocks (Cloudera default) and replication 1 (as the
// paper sets for its experiments).
type Config struct {
	// BlockSize is the split size for real files, bytes.
	BlockSize int64
	// Replication is the number of replicas per real block.
	Replication int
	// NNOpsPerSec bounds NameNode RPC throughput.
	NNOpsPerSec float64
	// NNLatency is one NameNode RPC round trip, seconds.
	NNLatency float64
}

// DefaultConfig returns the paper's HDFS settings.
func DefaultConfig() Config {
	return Config{BlockSize: 128 << 20, Replication: 1, NNOpsPerSec: 50000, NNLatency: 0.0005}
}

// Block is one unit of a file. Real blocks carry bytes and replica
// locations; virtual (dummy) blocks carry a Source payload instead.
type Block struct {
	// ID is the cluster-unique block id.
	ID int64
	// Size is the block length in bytes (for virtual blocks, the length
	// the mapper advertises to the scheduler).
	Size int64
	// Replicas lists the DataNodes holding the block; empty for virtual
	// blocks.
	Replicas []*DataNode
	// Virtual marks a dummy block whose bytes live on the PFS.
	Virtual bool
	// Source is the opaque mapping payload of a virtual block (a PFS
	// segment or hyperslab reference installed by SciDP's Data Mapper).
	Source any

	data []byte
}

// Data returns a real block's bytes (nil for virtual blocks): the slice its
// writer handed over, cap == len, shared by every reader. Never mutate it.
func (b *Block) Data() []byte { return b.data }

// INode is a file or directory in the namespace.
type INode struct {
	// Path is the absolute HDFS path.
	Path string
	// Dir marks directories.
	Dir bool
	// Blocks are the file's blocks in order; nil for directories.
	Blocks []*Block
	// Virtual marks files consisting of dummy blocks.
	Virtual bool
}

// Size returns the file length (sum of block sizes).
func (n *INode) Size() int64 {
	var s int64
	for _, b := range n.Blocks {
		s += b.Size
	}
	return s
}

// DataNode is the storage daemon on one cluster node.
type DataNode struct {
	// Node is the machine the daemon runs on.
	Node *cluster.Node
	// Used is the total bytes of real blocks stored here.
	Used int64
	// BlockCount is the number of real block replicas stored here.
	BlockCount int

	// down marks a crashed/decommissioned daemon: replica selection and
	// placement skip it until it comes back.
	down bool
}

// FS is one HDFS instance over a cluster.
type FS struct {
	cfg     Config
	cluster *cluster.Cluster
	dns     []*DataNode
	byNode  map[*cluster.Node]*DataNode
	nn      *sim.Resource
	inodes  map[string]*INode
	nextID  int64
	cursor  int

	// baseNNLatency is the healthy RPC round trip; latency spikes scale
	// from it.
	baseNNLatency float64
	// readFault, when installed, is consulted once per block-replica
	// read — the chaos injector's flaky-read hook.
	readFault func(blockID, bytes int64) fault.Outcome

	obs             *obs.Registry
	nnOps           *obs.Counter
	localReads      *obs.Counter
	remoteReads     *obs.Counter
	localReadBytes  *obs.Counter
	remoteReadBytes *obs.Counter
	writeBytes      *obs.Counter
	pipelineHops    *obs.Counter
	failovers       *obs.Counter
}

// SetObs attaches an observability registry: NameNode op counts,
// local-versus-remote block read counts and bytes, write bytes, and
// replication-pipeline hop counts. Detached (the default), every site
// costs one nil check.
func (fs *FS) SetObs(r *obs.Registry) {
	fs.obs = r
	fs.nnOps = r.Counter("hdfs/namenode_ops_total")
	fs.localReads = r.Counter("hdfs/block_reads_total", obs.L("locality", "local"))
	fs.remoteReads = r.Counter("hdfs/block_reads_total", obs.L("locality", "remote"))
	fs.localReadBytes = r.Counter("hdfs/read_bytes_total", obs.L("locality", "local"))
	fs.remoteReadBytes = r.Counter("hdfs/read_bytes_total", obs.L("locality", "remote"))
	fs.writeBytes = r.Counter("hdfs/write_bytes_total")
	fs.pipelineHops = r.Counter("hdfs/replication_hops_total")
	fs.failovers = r.Counter("hdfs/replica_failovers_total")
}

// New builds an HDFS whose DataNodes are every node of cl. Nothing in it
// is bound to a kernel; the parameter stays while benchmark/ passes one.
func New(_ *sim.Kernel, cl *cluster.Cluster, cfg Config) *FS {
	if cfg.BlockSize <= 0 {
		panic("hdfs: block size must be positive")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	fs := &FS{
		cfg:     cfg,
		cluster: cl,
		byNode:  make(map[*cluster.Node]*DataNode),
		inodes:  map[string]*INode{"/": {Path: "/", Dir: true}},
	}
	fs.nn = sim.NewResource("hdfs/namenode", cfg.NNOpsPerSec)
	fs.nn.Latency = cfg.NNLatency
	fs.baseNNLatency = cfg.NNLatency
	for _, n := range cl.Nodes {
		dn := &DataNode{Node: n}
		fs.dns = append(fs.dns, dn)
		fs.byNode[n] = dn
	}
	return fs
}

// ---- Fault state (flipped by the chaos injector from kernel events).

// SetDataNodeDown crashes (or revives) the i-th DataNode: replica
// selection fails over around it and placement skips it.
func (fs *FS) SetDataNodeDown(i int, down bool) {
	fs.dns[i].down = down
	if fs.obs != nil {
		v := 0.0
		if down {
			v = 1
		}
		fs.obs.Gauge("hdfs/datanode_down", obs.L("node", fs.dns[i].Node.Name)).Set(v)
	}
}

// SetNNLatencyFactor multiplies the NameNode RPC round trip (an op
// latency spike); factor <= 1 restores the configured value.
func (fs *FS) SetNNLatencyFactor(factor float64) {
	if factor <= 1 {
		fs.nn.Latency = fs.baseNNLatency
		return
	}
	fs.nn.Latency = fs.baseNNLatency * factor
}

// SetReadFault installs (or removes, with nil) the per-read fault hook.
func (fs *FS) SetReadFault(fn func(blockID, bytes int64) fault.Outcome) {
	fs.readFault = fn
}

// Config returns the configuration the FS was built with.
func (fs *FS) Config() Config { return fs.cfg }

// nnOp charges one NameNode RPC.
func (fs *FS) nnOp(p *sim.Proc) {
	fs.nnOps.Inc()
	p.Transfer(1, fs.nn)
}

// readReplica charges the transfer for reading `bytes` of block b from
// reader's best LIVE replica — the local disk when a live replica lives
// on the reader's node, otherwise the fabric from the first live replica
// — and accounts the read in the locality counters. Replica selection
// routes through DataNode health: dead replicas are skipped (each skip
// that forces a different source counts as a failover), and a block
// whose replicas are all down returns a transient error for the task
// layer to retry. The corrupt return asks the caller to checksum the
// bytes it hands out (an injected corrupt read).
func (fs *FS) readReplica(p *sim.Proc, reader *cluster.Node, b *Block, bytes float64) (corrupt bool, err error) {
	var src *DataNode
	local := false
	for _, dn := range b.Replicas {
		if dn.Node == reader && !dn.down {
			src, local = dn, true
			break
		}
	}
	if src == nil {
		for _, dn := range b.Replicas {
			if !dn.down {
				src = dn
				break
			}
		}
	}
	if src == nil {
		if fs.obs != nil {
			fs.obs.Counter("hdfs/read_faults_total", obs.L("kind", "no-live-replica")).Inc()
		}
		return false, fault.Transient("dn-down", "hdfs: block %d: all %d replica(s) on dead DataNodes", b.ID, len(b.Replicas))
	}
	// A failover is any read that had to pass over a dead replica it
	// would otherwise have used: the preferred (first) replica, or a
	// local one.
	failover := b.Replicas[0].down
	for _, dn := range b.Replicas {
		if dn.Node == reader && dn.down {
			failover = true
		}
	}
	if failover {
		fs.failovers.Inc()
	}
	if fs.readFault != nil {
		switch fs.readFault(b.ID, int64(bytes)) {
		case fault.Fail:
			if fs.obs != nil {
				fs.obs.Counter("hdfs/read_faults_total", obs.L("kind", "flaky-read")).Inc()
			}
			return false, fault.Transient("flaky-read", "hdfs: block %d: transient read error from %s", b.ID, src.Node.Name)
		case fault.Corrupt:
			corrupt = true
		}
	}
	if local {
		fs.localReads.Inc()
		fs.localReadBytes.Add(bytes)
		p.Transfer(bytes, cluster.LocalReadPath(src.Node)...)
	} else {
		fs.remoteReads.Inc()
		fs.remoteReadBytes.Add(bytes)
		p.Transfer(bytes, fs.cluster.RemoteReadPath(src.Node, reader)...)
	}
	return corrupt, nil
}

// checksumCopy models a corrupt-on-the-wire read of data: the returned
// copy is damaged, the block checksum detects it, and a transient error
// surfaces instead of bad bytes. The copy + double crc32 is pure byte
// work and runs on the data plane; the fault counter and the error stay
// on the kernel thread so injection accounting remains deterministic.
func (fs *FS) checksumCopy(p *sim.Proc, b *Block, data []byte) error {
	var mismatch bool
	p.Await(p.Compute(func() {
		out := append([]byte(nil), data...)
		if len(out) > 0 {
			out[len(out)/2] ^= 0xFF
		}
		mismatch = crc32.ChecksumIEEE(out) != crc32.ChecksumIEEE(data)
	}))
	if mismatch {
		if fs.obs != nil {
			fs.obs.Counter("hdfs/read_faults_total", obs.L("kind", "corrupt")).Inc()
		}
		return fault.Transient("corrupt", "hdfs: block %d: checksum mismatch", b.ID)
	}
	return nil
}

// mkdirAll creates path and its ancestors as directories (no time charge;
// callers charge RPCs).
func (fs *FS) mkdirAll(path string) error {
	path = clean(path)
	if n, ok := fs.inodes[path]; ok {
		if !n.Dir {
			return fmt.Errorf("hdfs: mkdir %s: file exists", path)
		}
		return nil
	}
	// Each ancestor is a substring: path up to one of its slashes, or all.
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		cur := path[:i]
		if n, ok := fs.inodes[cur]; ok {
			if !n.Dir {
				return fmt.Errorf("hdfs: mkdir %s: %s is a file", path, cur)
			}
			continue
		}
		fs.inodes[cur] = &INode{Path: cur, Dir: true}
	}
	return nil
}

// clean roots p and trims its trailing slashes: "/" + strings.Trim(p, "/").
// A path that already reads so is returned as it is.
func clean(p string) string {
	if len(p) > 1 && p[0] == '/' && p[1] != '/' && p[len(p)-1] != '/' {
		return p
	}
	if p == "" || p == "/" {
		return "/"
	}
	return "/" + strings.Trim(p, "/")
}

func parent(p string) string {
	i := strings.LastIndex(p, "/")
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// placeReplicas picks Replication distinct LIVE DataNodes, preferring
// the writer's own node for the first replica (standard HDFS policy).
// Dead daemons are skipped; fewer replicas than configured come back
// when not enough daemons are alive (nil when none are).
func (fs *FS) placeReplicas(writer *cluster.Node) []*DataNode {
	reps := make([]*DataNode, 0, fs.cfg.Replication)
	seen := map[*DataNode]bool{}
	live := 0
	for _, dn := range fs.dns {
		if !dn.down {
			live++
		}
	}
	if dn, ok := fs.byNode[writer]; ok && !dn.down {
		reps = append(reps, dn)
		seen[dn] = true
	}
	for len(reps) < fs.cfg.Replication && len(reps) < live {
		dn := fs.dns[fs.cursor%len(fs.dns)]
		fs.cursor++
		if !seen[dn] && !dn.down {
			reps = append(reps, dn)
			seen[dn] = true
		}
	}
	return reps
}

// create cleans path for a new file and makes its parent directories;
// op names the call in the error when path exists.
func (fs *FS) create(op, path string) (string, error) {
	path = clean(path)
	if _, exists := fs.inodes[path]; exists {
		return path, fmt.Errorf("hdfs: %s %s: file exists", op, path)
	}
	return path, fs.mkdirAll(parent(path))
}

// Mkdir creates a directory (and parents), charging one NameNode RPC.
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	fs.nnOp(p)
	return fs.mkdirAll(path)
}

// WriteFile stores data as a new real file written by client, charging a
// NameNode RPC per block plus the replication pipeline transfers. The
// first replica lands on the client's node when the client is a DataNode.
// The file system keeps data — blocks are views of it, not copies — so the
// caller must not write to it afterwards.
func (fs *FS) WriteFile(p *sim.Proc, client *cluster.Node, path string, data []byte) error {
	path, err := fs.create("create", path)
	if err != nil {
		return err
	}
	fs.nnOp(p)
	node := &INode{Path: path}
	for off := int64(0); off < int64(len(data)); off += fs.cfg.BlockSize {
		end := off + fs.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		chunk := data[off:end:end]
		fs.nnOp(p)
		reps := fs.placeReplicas(client)
		if len(reps) == 0 {
			return fault.Transient("dn-down", "hdfs: create %s: no live DataNodes", path)
		}
		fs.nextID++
		b := &Block{ID: fs.nextID, Size: int64(len(chunk)), Replicas: reps, data: chunk}
		// Replication pipeline: client -> r1 -> r2 -> ... Each hop is a
		// leg of the parallel transfer (pipelining overlaps hops). Every
		// hop's chain, the network path (if any) then the replica's disk,
		// is a piece of one array; only a first replica on the client's
		// own node has no network path.
		parts := make([]sim.Part, 0, 4) // on the stack up to four replicas
		size := 4 * len(reps)
		if reps[0].Node == client {
			size -= 3
		}
		chains := make([]*sim.Resource, 0, size)
		prev := client
		for _, dn := range reps {
			from := len(chains)
			if dn.Node != prev {
				chains = fs.cluster.AppendNetPath(chains, prev, dn.Node)
			}
			chains = append(chains, dn.Node.Disk)
			parts = append(parts, sim.Part{Bytes: float64(len(chunk)), Res: chains[from:len(chains):len(chains)]})
			dn.Used += int64(len(chunk))
			dn.BlockCount++
			prev = dn.Node
		}
		fs.writeBytes.Add(float64(len(chunk)))
		fs.pipelineHops.Add(float64(len(parts)))
		p.TransferAll(parts...)
		node.Blocks = append(node.Blocks, b)
	}
	fs.inodes[path] = node
	return nil
}

// Put installs a real file instantly (no virtual time) with round-robin
// replica placement — the workload-setup back door, mirroring pfs.Put.
// Like WriteFile it keeps data; the caller must not write to it afterwards.
func (fs *FS) Put(path string, data []byte) (*INode, error) {
	path, err := fs.create("put", path)
	if err != nil {
		return nil, err
	}
	node := &INode{Path: path}
	for off := int64(0); off < int64(len(data)); off += fs.cfg.BlockSize {
		end := off + fs.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		chunk := data[off:end:end]
		reps := fs.placeReplicas(nil)
		if len(reps) == 0 {
			return nil, fault.Transient("dn-down", "hdfs: put %s: no live DataNodes", path)
		}
		fs.nextID++
		b := &Block{ID: fs.nextID, Size: int64(len(chunk)), Replicas: reps, data: chunk}
		for _, dn := range reps {
			dn.Used += b.Size
			dn.BlockCount++
		}
		node.Blocks = append(node.Blocks, b)
	}
	fs.inodes[path] = node
	return node, nil
}

// VirtualBlockSpec describes one dummy block of a virtual file.
type VirtualBlockSpec struct {
	// Size is the advertised block length in bytes.
	Size int64
	// Source is the opaque PFS mapping payload.
	Source any
}

// CreateVirtualFile installs a virtual inode whose dummy blocks map to PFS
// data. Only NameNode metadata is touched: no bytes move (the core of
// SciDP's Data Mapper). One RPC is charged for the file plus one per 100
// blocks of mapping-table upload.
func (fs *FS) CreateVirtualFile(p *sim.Proc, path string, blocks []VirtualBlockSpec) (*INode, error) {
	path, err := fs.create("create", path)
	if err != nil {
		return nil, err
	}
	fs.nnOp(p)
	for i := 0; i < len(blocks); i += 100 {
		fs.nnOp(p)
	}
	node := &INode{Path: path, Virtual: true}
	for _, spec := range blocks {
		fs.nextID++
		node.Blocks = append(node.Blocks, &Block{
			ID:      fs.nextID,
			Size:    spec.Size,
			Virtual: true,
			Source:  spec.Source,
		})
	}
	fs.inodes[path] = node
	return node, nil
}

// Stat returns the inode after one NameNode RPC.
func (fs *FS) Stat(p *sim.Proc, path string) (*INode, error) {
	fs.nnOp(p)
	return fs.Lookup(path)
}

// Lookup returns the inode without charging time, or an error.
func (fs *FS) Lookup(path string) (*INode, error) {
	n, ok := fs.inodes[clean(path)]
	if !ok {
		return nil, fmt.Errorf("hdfs: %s: no such file or directory", path)
	}
	return n, nil
}

// Walk returns every file inode under dir (recursively), sorted by path,
// after one RPC. Directories themselves are omitted.
func (fs *FS) Walk(p *sim.Proc, dir string) ([]*INode, error) {
	fs.nnOp(p)
	dir = clean(dir)
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	var out []*INode
	for path, in := range fs.inodes {
		if in.Dir {
			continue
		}
		if path == dir || strings.HasPrefix(path, prefix) {
			out = append(out, in)
		}
	}
	slices.SortFunc(out, func(a, b *INode) int { return strings.Compare(a.Path, b.Path) })
	return out, nil
}

// ReadBlock reads one real block from the reader's best live replica:
// the local disk when a live replica lives on reader's node, otherwise a
// remote read over the fabric from the first live replica (failing over
// past dead DataNodes). Virtual blocks return an error — the caller
// (SciDP's PFS Reader) must resolve those against the PFS.
func (fs *FS) ReadBlock(p *sim.Proc, reader *cluster.Node, b *Block) ([]byte, error) {
	if b.Virtual {
		return nil, fmt.Errorf("hdfs: block %d is virtual; resolve via its Source", b.ID)
	}
	if len(b.Replicas) == 0 {
		return nil, fmt.Errorf("hdfs: block %d has no replicas", b.ID)
	}
	corrupt, err := fs.readReplica(p, reader, b, float64(b.Size))
	if err != nil {
		return nil, err
	}
	if corrupt {
		if err := fs.checksumCopy(p, b, b.data); err != nil {
			return nil, err
		}
	}
	return b.data, nil
}

// ReadAt reads the byte range [off, off+n) of a real file, touching only
// the blocks that overlap the range — what a netCDF-aware reader
// (SciHadoop) uses to pull just one variable's chunks out of an
// HDFS-resident file. Short reads at EOF return what exists.
func (fs *FS) ReadAt(p *sim.Proc, reader *cluster.Node, path string, off, n int64) ([]byte, error) {
	node, err := fs.Lookup(path)
	if err != nil {
		return nil, err
	}
	if node.Dir {
		return nil, fmt.Errorf("hdfs: read %s: is a directory", path)
	}
	if off < 0 {
		return nil, fmt.Errorf("hdfs: read %s: negative offset", path)
	}
	size := node.Size()
	if off >= size {
		return nil, nil
	}
	if off+n > size {
		n = size - off
	}
	// Decompose the request against each block's extent with the shared
	// range helper; only the intersecting slice of each block transfers.
	want := ioengine.Range{Off: off, Len: n}
	out := make([]byte, 0, n)
	var blockStart int64
	for _, b := range node.Blocks {
		ext := ioengine.Range{Off: blockStart, Len: b.Size}
		blockStart = ext.End()
		piece, ok := want.Intersect(ext)
		if !ok {
			continue
		}
		if b.Virtual {
			return nil, fmt.Errorf("hdfs: block %d is virtual; resolve via its Source", b.ID)
		}
		corrupt, err := fs.readReplica(p, reader, b, float64(piece.Len))
		if err != nil {
			return nil, err
		}
		slice := b.data[piece.Off-ext.Off : piece.End()-ext.Off]
		if corrupt {
			if err := fs.checksumCopy(p, b, slice); err != nil {
				return nil, err
			}
		}
		out = append(out, slice...)
	}
	return out, nil
}

// ReadFile reads every block of a real file in order from reader's
// perspective and returns the concatenated bytes — for a one-block file
// the block itself, which the caller must not mutate.
func (fs *FS) ReadFile(p *sim.Proc, reader *cluster.Node, path string) ([]byte, error) {
	n, err := fs.Stat(p, path)
	if err != nil {
		return nil, err
	}
	if n.Dir {
		return nil, fmt.Errorf("hdfs: read %s: is a directory", path)
	}
	if len(n.Blocks) == 1 {
		return fs.ReadBlock(p, reader, n.Blocks[0])
	}
	out := make([]byte, 0, n.Size())
	for _, b := range n.Blocks {
		data, err := fs.ReadBlock(p, reader, b)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

// ReadFileRetry is ReadFile with client-side recovery of transient block
// faults — what a DFS client does when a read returns a checksum mismatch
// or a flaky replica: back off (exponentially, starting at backoff
// seconds) and re-read, up to attempts tries. Non-transient errors
// surface immediately.
func (fs *FS) ReadFileRetry(p *sim.Proc, reader *cluster.Node, path string, attempts int, backoff float64) ([]byte, error) {
	if attempts < 1 {
		attempts = 1
	}
	var data []byte
	var err error
	for i := 0; i < attempts; i++ {
		if data, err = fs.ReadFile(p, reader, path); err == nil || !fault.IsTransient(err) {
			return data, err
		}
		p.Sleep(backoff * float64(int64(1)<<i))
	}
	return nil, err
}

// HostsOf returns the node names holding replicas of b (empty for virtual
// blocks) — what the MapReduce scheduler feeds its locality preference.
func HostsOf(b *Block) []string {
	hosts := make([]string, 0, len(b.Replicas))
	for _, dn := range b.Replicas {
		hosts = append(hosts, dn.Node.Name)
	}
	return hosts
}

// TotalUsed returns the bytes stored across all DataNodes.
func (fs *FS) TotalUsed() int64 {
	var t int64
	for _, dn := range fs.dns {
		t += dn.Used
	}
	return t
}
