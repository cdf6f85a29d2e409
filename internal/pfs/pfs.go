// Package pfs implements a Lustre-like parallel file system: a metadata
// server (MDS), object storage servers (OSS) each fronting several object
// storage targets (OST), and files striped round-robin across a set of
// OSTs. File bytes are held for real (so formats, compression, and
// checksums are exact) while every access charges virtual time on the OST
// disks, OSS NICs, the storage fabric, and whatever client-side path the
// caller attaches (an HPC fabric, or the cross-cluster interlink the
// Hadoop nodes use).
//
// The decomposition of a byte range into per-OST segments is the property
// the SciDP paper leans on: many concurrent readers aggregate bandwidth
// from many OSTs, which is why direct PFS reads from every map task beat a
// staged copy.
package pfs

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"

	"scidp/internal/fault"
	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// Config sizes the storage cluster. DefaultConfig mirrors the paper's
// testbed: 24 OSTs behind two OSS nodes plus one MDS.
type Config struct {
	// OSSCount is the number of object storage servers.
	OSSCount int
	// OSTsPerOSS is how many targets each server fronts.
	OSTsPerOSS int
	// OSTBW is per-OST disk bandwidth, bytes/second.
	OSTBW float64
	// OSTLatency is the per-request seek charge on a target, seconds.
	OSTLatency float64
	// OSSNICBW is each server's network interface bandwidth, bytes/second.
	OSSNICBW float64
	// FabricBW is the storage network's aggregate capacity, bytes/second.
	FabricBW float64
	// MDSOpsPerSec bounds metadata operation throughput.
	MDSOpsPerSec float64
	// MDSLatency is the fixed round-trip of one metadata op, seconds.
	MDSLatency float64
	// DefaultStripeSize is the stripe width used when Create is not given
	// an explicit one. Lustre's default is 1 MiB.
	DefaultStripeSize int64
	// DefaultStripeCount is the number of OSTs a new file stripes over.
	DefaultStripeCount int
}

// DefaultConfig returns the paper-scale storage cluster: two OSS nodes,
// twelve 2 TB 7200 RPM SAS targets each (~120 MB/s), 10 GbE server NICs.
func DefaultConfig() Config {
	return Config{
		OSSCount:           2,
		OSTsPerOSS:         12,
		OSTBW:              120e6,
		OSTLatency:         0.004,
		OSSNICBW:           1.25e9,
		FabricBW:           2 * 1.25e9,
		MDSOpsPerSec:       20000,
		MDSLatency:         0.0005,
		DefaultStripeSize:  1 << 20,
		DefaultStripeCount: 8,
	}
}

// Scaled divides every bandwidth by factor, leaving latencies, op rates,
// and layout constants alone. Stripe size is divided too so that scaled
// files still spread across the same number of OSTs.
func (c Config) Scaled(factor float64) Config {
	if factor <= 0 {
		panic("pfs: scale factor must be positive")
	}
	c.OSTBW /= factor
	c.OSSNICBW /= factor
	c.FabricBW /= factor
	ss := float64(c.DefaultStripeSize) / factor
	if ss < 1 {
		ss = 1
	}
	c.DefaultStripeSize = int64(ss)
	return c
}

// ost is one object storage target. The obs handles are nil until
// FS.SetObs and therefore free to touch (nil-check fast path).
type ost struct {
	idx  int // position in FS.osts
	disk *sim.Resource
	oss  *ossNode

	// baseBW is the healthy disk capacity; slowdowns scale from it.
	baseBW float64
	// down marks an outage window: reads covering this target's stripes
	// are returned as missing ranges for the reader to read around.
	down bool

	// depth tracks in-flight striped transfers touching this target. It
	// is maintained unconditionally (unlike the obs gauge below, which
	// exists only when a registry is attached) so congestion-sensitive
	// policies see the same signal with and without observability.
	depth int

	readBytes  *obs.Counter
	writeBytes *obs.Counter
	requests   *obs.Counter
	queueDepth *obs.Gauge
}

// ossNode is one object storage server.
type ossNode struct {
	nic *sim.Resource
}

// File is a stored file with its stripe layout.
type File struct {
	// Path is the absolute file name ("/nuwrf/plot_18_00_00.nc").
	Path string
	// StripeSize is the width of each stripe in bytes.
	StripeSize int64
	// StripeCount is how many OSTs the file stripes across.
	StripeCount int
	startOST    int
	data        []byte
	shared      bool // data is still the slice Put was handed: WriteAt clones first
}

// Size returns the file's current length in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// FS is the parallel file system instance.
type FS struct {
	k      *sim.Kernel
	cfg    Config
	fabric *sim.Resource
	mds    *sim.Resource
	osts   []*ost
	files  map[string]*File
	next   int // round-robin OST allocation cursor

	// baseMDSLatency is the healthy metadata round trip; latency spikes
	// scale from it.
	baseMDSLatency float64
	// readFault, when installed, is consulted once per simulated read —
	// the chaos injector's flaky-read hook.
	readFault func(path string, off, n int64) fault.Outcome

	obs    *obs.Registry
	mdsOps *obs.Counter
}

// SetObs attaches an observability registry: per-OST byte/request
// counters and queue-depth gauges (labeled ost="ost-N", matching the
// sim resource "pfs/ost-N"), an MDS op counter, and read/write spans on
// every simulated access. Detached (the default), instrumentation costs
// one nil check per site.
func (fs *FS) SetObs(r *obs.Registry) {
	fs.obs = r
	fs.mdsOps = r.Counter("pfs/mds_ops_total")
	for i, o := range fs.osts {
		l := obs.L("ost", fmt.Sprintf("ost-%d", i))
		o.readBytes = r.Counter("pfs/ost_read_bytes_total", l)
		o.writeBytes = r.Counter("pfs/ost_write_bytes_total", l)
		o.requests = r.Counter("pfs/ost_requests_total", l)
		o.queueDepth = r.Gauge("pfs/ost_queue_depth", l)
	}
}

// New builds a PFS on the kernel from the given config.
func New(k *sim.Kernel, cfg Config) *FS {
	if cfg.OSSCount <= 0 || cfg.OSTsPerOSS <= 0 {
		panic("pfs: need at least one OSS and one OST")
	}
	fs := &FS{
		k:      k,
		cfg:    cfg,
		fabric: sim.NewResource("pfs/fabric", cfg.FabricBW),
		files:  make(map[string]*File),
	}
	fs.mds = sim.NewResource("pfs/mds", cfg.MDSOpsPerSec)
	fs.mds.Latency = cfg.MDSLatency
	fs.baseMDSLatency = cfg.MDSLatency
	for i := 0; i < cfg.OSSCount; i++ {
		oss := &ossNode{nic: sim.NewResource(fmt.Sprintf("pfs/oss-%d/nic", i), cfg.OSSNICBW)}
		for j := 0; j < cfg.OSTsPerOSS; j++ {
			d := sim.NewResource(fmt.Sprintf("pfs/ost-%d", i*cfg.OSTsPerOSS+j), cfg.OSTBW)
			d.Latency = cfg.OSTLatency
			fs.osts = append(fs.osts, &ost{idx: len(fs.osts), disk: d, oss: oss, baseBW: cfg.OSTBW})
		}
	}
	return fs
}

// ---- Fault state (flipped by the chaos injector from kernel events).

// SetReadFault installs (or removes, with nil) the per-read fault hook.
func (fs *FS) SetReadFault(fn func(path string, off, n int64) fault.Outcome) {
	fs.readFault = fn
}

// SetOSTDown marks target i offline (reads covering its stripes come
// back as missing ranges) or back online.
func (fs *FS) SetOSTDown(i int, down bool) {
	o := fs.osts[i]
	o.down = down
	if fs.obs != nil {
		v := 0.0
		if down {
			v = 1
		}
		fs.obs.Gauge("pfs/ost_down", obs.L("ost", fmt.Sprintf("ost-%d", i))).Set(v)
	}
}

// SetOSTSlowdown divides target i's bandwidth by factor (a degraded
// disk); factor <= 1 restores full speed. In-flight flows re-share the
// new capacity immediately.
func (fs *FS) SetOSTSlowdown(i int, factor float64) {
	o := fs.osts[i]
	if factor <= 1 {
		o.disk.Capacity = o.baseBW
	} else {
		o.disk.Capacity = o.baseBW / factor
	}
	fs.k.RefreshRates()
}

// SetMDSLatencyFactor multiplies the metadata round-trip latency (an MDS
// op-latency spike); factor <= 1 restores the configured value.
func (fs *FS) SetMDSLatencyFactor(factor float64) {
	if factor <= 1 {
		fs.mds.Latency = fs.baseMDSLatency
		return
	}
	fs.mds.Latency = fs.baseMDSLatency * factor
}

// countReadFault lands one observed read fault in the metrics (cold
// path: only runs when a fault actually fires).
func (fs *FS) countReadFault(kind string) {
	if fs.obs != nil {
		fs.obs.Counter("pfs/read_faults_total", obs.L("kind", kind)).Inc()
	}
}

// ---- Instant (non-simulated) access, for dataset setup and verification.

// Put stores data at path with the default stripe layout, charging no
// virtual time. It is the generator/test back door; data is kept as in
// PutStriped.
func (fs *FS) Put(path string, data []byte) *File {
	return fs.PutStriped(path, data, fs.cfg.DefaultStripeSize, fs.cfg.DefaultStripeCount)
}

// PutStriped stores data with an explicit stripe layout, charging no
// virtual time. The file shares data until its first WriteAt, which
// clones it: the caller must not write to data afterwards, and the file
// system never will.
func (fs *FS) PutStriped(path string, data []byte, stripeSize int64, stripeCount int) *File {
	f := fs.allocate(path, stripeSize, stripeCount)
	f.data, f.shared = data, true
	return f
}

// Get returns the raw stored bytes, or nil if the file does not exist. No
// virtual time is charged.
func (fs *FS) Get(path string) []byte {
	if f, ok := fs.files[path]; ok {
		return f.data
	}
	return nil
}

// Paths returns every stored path in sorted order.
func (fs *FS) Paths() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (fs *FS) allocate(path string, stripeSize int64, stripeCount int) *File {
	if stripeSize <= 0 {
		stripeSize = fs.cfg.DefaultStripeSize
	}
	if stripeCount <= 0 || stripeCount > len(fs.osts) {
		stripeCount = fs.cfg.DefaultStripeCount
		if stripeCount > len(fs.osts) {
			stripeCount = len(fs.osts)
		}
	}
	f := &File{Path: path, StripeSize: stripeSize, StripeCount: stripeCount, startOST: fs.next}
	fs.next = (fs.next + stripeCount) % len(fs.osts)
	fs.files[path] = f
	return f
}

// ostFor maps a stripe index of f to its target.
func (fs *FS) ostFor(f *File, stripeIdx int64) *ost {
	return fs.osts[(int64(f.startOST)+stripeIdx%int64(f.StripeCount))%int64(len(fs.osts))]
}

// segments decomposes the byte range [off, off+n) of f into per-OST byte
// totals, in the order each OST is first reached, each part crossing the
// client's chain for that OST. The returned targets parallel the parts,
// so callers can attribute each leg to its OST. With live (the read
// path), stripe pieces landing on offline OSTs are returned as merged
// missing byte ranges (file-absolute) instead of transfer legs, so the
// caller can zero-fill and read around them; writes ignore OST state.
func (c *Client) segments(f *File, off, n int64, live bool) ([]sim.Part, []*ost, []ioengine.Range) {
	var parts []sim.Part
	var order []*ost
	var missing []ioengine.Range
	end := off + n
	for cur := off; cur < end; {
		idx := cur / f.StripeSize
		stripeEnd := (idx + 1) * f.StripeSize
		if stripeEnd > end {
			stripeEnd = end
		}
		o := c.fs.ostFor(f, idx)
		if live && o.down {
			missing = append(missing, ioengine.Range{Off: cur, Len: stripeEnd - cur})
		} else if i := slices.Index(order, o); i >= 0 {
			parts[i].Bytes += float64(stripeEnd - cur)
		} else {
			if order == nil {
				// Consecutive stripes land on distinct targets until the
				// stripe count wraps.
				targets := min((end-1)/f.StripeSize-idx+1, int64(f.StripeCount))
				order = make([]*ost, 0, targets)
				parts = make([]sim.Part, 0, targets)
			}
			order = append(order, o)
			parts = append(parts, sim.Part{Bytes: float64(stripeEnd - cur), Res: c.chain(o)})
		}
		cur = stripeEnd
	}
	return parts, order, ioengine.Merge(missing)
}

// chain is the resource chain of a transfer between the client and one
// OST: the target's disk, its server's NIC, the storage fabric, then the
// client path. It is built on the client's first transfer to the target
// and shared by every later one.
func (c *Client) chain(o *ost) []*sim.Resource {
	if c.chains == nil {
		c.chains = make([][]*sim.Resource, len(c.fs.osts))
	}
	ch := c.chains[o.idx]
	if ch == nil {
		ch = slices.Concat([]*sim.Resource{o.disk, o.oss.nic, c.fs.fabric}, c.path)
		c.chains[o.idx] = ch
	}
	return ch
}

// transferStriped runs the striped parallel transfer for parts while
// charging the per-OST observability counters around it.
func (fs *FS) transferStriped(p *sim.Proc, parts []sim.Part, osts []*ost, write bool) {
	for i, o := range osts {
		o.depth++
		if fs.obs != nil {
			o.requests.Inc()
			if write {
				o.writeBytes.Add(parts[i].Bytes)
			} else {
				o.readBytes.Add(parts[i].Bytes)
			}
			o.queueDepth.Add(1)
		}
	}
	p.TransferAll(parts...)
	for _, o := range osts {
		o.depth--
		if fs.obs != nil {
			o.queueDepth.Add(-1)
		}
	}
}

// MeanQueueDepth returns the current average in-flight striped-transfer
// count across all OSTs — the congestion signal cost-aware cache
// policies weigh. Identical with and without an attached registry, and
// deterministic because it is only sampled from kernel context.
func (fs *FS) MeanQueueDepth() float64 {
	if len(fs.osts) == 0 {
		return 0
	}
	total := 0
	for _, o := range fs.osts {
		total += o.depth
	}
	return float64(total) / float64(len(fs.osts))
}

// accessSpan opens a span for one simulated file access under the
// process's current span and installs it as current, so the stripe
// flows nest beneath it. It returns a restore func (never nil).
func (fs *FS) accessSpan(p *sim.Proc, name, path string, off, n int64) func() {
	if fs.obs == nil {
		return func() {}
	}
	sp := fs.obs.StartSpan(name, "pfs", p.Span())
	sp.Arg("path", path)
	sp.Arg("off", off)
	sp.Arg("bytes", n)
	prev := p.SetSpan(sp)
	return func() {
		p.SetSpan(prev)
		sp.End()
	}
}

// ---- Simulated client API.

// Client is a mount point: a PFS handle plus the client-side resource path
// (fabric hops and the client NIC) appended to every data transfer.
type Client struct {
	fs   *FS
	path []*sim.Resource
	// chains holds each OST's transfer chain by OST index, built on first
	// use (see chain).
	chains [][]*sim.Resource
}

// NewClient returns a client whose transfers additionally traverse
// clientPath (outermost first, e.g. interlink then node NIC).
func (fs *FS) NewClient(clientPath ...*sim.Resource) *Client {
	return &Client{fs: fs, path: clientPath}
}

// metaOp charges one metadata round trip on the MDS.
func (c *Client) metaOp(p *sim.Proc) {
	c.fs.mdsOps.Inc()
	p.Transfer(1, c.fs.mds)
}

// Stat returns the file's size after one MDS round trip.
func (c *Client) Stat(p *sim.Proc, path string) (int64, error) {
	c.metaOp(p)
	f, ok := c.fs.files[path]
	if !ok {
		return 0, fmt.Errorf("pfs: stat %s: no such file", path)
	}
	return f.Size(), nil
}

// List returns the sorted paths directly under dir (one MDS op per
// directory page of 1000 entries).
func (c *Client) List(p *sim.Proc, dir string) ([]string, error) {
	c.metaOp(p)
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var out []string
	for path := range c.fs.files {
		if strings.HasPrefix(path, prefix) && !strings.Contains(path[len(prefix):], "/") {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	for i := 1000; i < len(out); i += 1000 {
		c.metaOp(p)
	}
	return out, nil
}

// Create allocates an empty file (one MDS op). Stripe parameters <= 0 take
// the FS defaults.
func (c *Client) Create(p *sim.Proc, path string, stripeSize int64, stripeCount int) (*File, error) {
	c.metaOp(p)
	if _, exists := c.fs.files[path]; exists {
		return nil, fmt.Errorf("pfs: create %s: file exists", path)
	}
	return c.fs.allocate(path, stripeSize, stripeCount), nil
}

// ReadAt reads n bytes at offset off, blocking in virtual time while the
// per-OST segments stream in parallel over the storage fabric and the
// client path. Short reads at EOF return what is available. A range
// touching an offline OST, an injected flaky read, or detected
// corruption returns a transient fault error (see ReadAtParts for the
// degraded-read variant that returns partial data instead).
func (c *Client) ReadAt(p *sim.Proc, path string, off, n int64) ([]byte, error) {
	out, missing, err := c.ReadAtParts(p, path, off, n)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, fault.Transient("ost-down",
			"pfs: read %s [%d,+%d): %d byte range(s) on offline OSTs", path, off, n, len(missing))
	}
	return out, nil
}

// ReadAtParts is the degraded-read primitive behind ReadAt: it streams
// every live per-OST segment and returns the assembled buffer plus the
// file-absolute byte ranges that could not be served because their OSTs
// are offline (those bytes are zero-filled in the buffer). Injected
// flaky reads and detected corruption still fail the whole call with a
// transient error. The PFS Reader's recovery loop re-requests only the
// missing ranges after a backoff — the read-around path.
func (c *Client) ReadAtParts(p *sim.Proc, path string, off, n int64) ([]byte, []ioengine.Range, error) {
	f, ok := c.fs.files[path]
	if !ok {
		return nil, nil, fmt.Errorf("pfs: read %s: no such file", path)
	}
	if off < 0 {
		return nil, nil, fmt.Errorf("pfs: read %s: negative offset", path)
	}
	if off >= f.Size() {
		return nil, nil, nil
	}
	if off+n > f.Size() {
		n = f.Size() - off
	}
	corrupt := false
	if c.fs.readFault != nil {
		switch c.fs.readFault(path, off, n) {
		case fault.Fail:
			c.fs.countReadFault("flaky-read")
			return nil, nil, fault.Transient("flaky-read",
				"pfs: read %s [%d,+%d): transient I/O error", path, off, n)
		case fault.Corrupt:
			corrupt = true
		}
	}
	done := c.fs.accessSpan(p, "pfs.ReadAt", path, off, n)
	parts, osts, missing := c.segments(f, off, n, true)
	c.fs.transferStriped(p, parts, osts, false)
	done()
	out := make([]byte, n)
	copy(out, f.data[off:off+n])
	if corrupt && len(out) > 0 {
		// Model on-the-wire corruption: damage the returned copy, then
		// verify it against the stored bytes the way a block checksum
		// would. The damaged copy never escapes — callers see a
		// transient error and retry.
		out[len(out)/2] ^= 0xFF
		if crc32.ChecksumIEEE(out) != crc32.ChecksumIEEE(f.data[off:off+n]) {
			c.fs.countReadFault("corrupt")
			return nil, nil, fault.Transient("corrupt",
				"pfs: read %s [%d,+%d): checksum mismatch", path, off, n)
		}
	}
	for _, m := range missing {
		for i := m.Off; i < m.End(); i++ {
			out[i-off] = 0
		}
	}
	if len(missing) > 0 {
		c.fs.countReadFault("ost-down")
	}
	return out, missing, nil
}

// WriteAt writes data at offset off, extending the file with zeros if the
// offset is past EOF, charging the same striped parallel path as ReadAt.
func (c *Client) WriteAt(p *sim.Proc, path string, data []byte, off int64) error {
	f, ok := c.fs.files[path]
	if !ok {
		return fmt.Errorf("pfs: write %s: no such file", path)
	}
	if off < 0 {
		return fmt.Errorf("pfs: write %s: negative offset", path)
	}
	if f.shared {
		f.data, f.shared = slices.Clone(f.data), false
	}
	end := off + int64(len(data))
	if end > f.Size() {
		f.data = append(f.data, make([]byte, end-f.Size())...)
	}
	done := c.fs.accessSpan(p, "pfs.WriteAt", path, off, int64(len(data)))
	parts, osts, _ := c.segments(f, off, int64(len(data)), false)
	c.fs.transferStriped(p, parts, osts, true)
	done()
	copy(f.data[off:end], data)
	return nil
}

// fileEngine exposes one PFS file as an ioengine.ReaderAt: any process
// can read through it, each call charging the striped parallel path.
type fileEngine struct {
	c    *Client
	path string
	size int64
}

// ReadAt implements ioengine.ReaderAt.
func (e *fileEngine) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	return e.c.ReadAt(p, e.path, off, n)
}

// Size implements ioengine.ReaderAt.
func (e *fileEngine) Size() int64 { return e.size }

// Name namespaces the engine's cache keys with the file path.
func (e *fileEngine) Name() string { return e.path }

// Engine stats the file (one MDS op) and returns its engine-level reader.
func (c *Client) Engine(p *sim.Proc, path string) (ioengine.ReaderAt, error) {
	size, err := c.Stat(p, path)
	if err != nil {
		return nil, err
	}
	return &fileEngine{c: c, path: path, size: size}, nil
}

// Reader adapts a file to the random-access interface scientific-format
// readers consume, charging virtual time on every call. It is an
// engine-backed ioengine.Bound, so callers can layer a chunk cache or
// readahead via Client.Engine + ioengine.Bind instead when they need to.
type Reader = ioengine.Bound

// OpenReader stats the file (one MDS op) and returns a positioned reader
// with no cache or readahead configured.
func (c *Client) OpenReader(p *sim.Proc, path string) (*Reader, error) {
	eng, err := c.Engine(p, path)
	if err != nil {
		return nil, err
	}
	return ioengine.Bind(p, eng, ioengine.Options{}), nil
}
