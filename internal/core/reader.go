package core

import (
	"fmt"

	"scidp/internal/fault"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
)

// RetryPolicy bounds the PFS Reader's recovery loop for transient read
// faults (flaky reads, corruption, OST outage windows). The zero value
// disables retries — the first transient failure surfaces to the task,
// where MapReduce-level re-execution takes over.
type RetryPolicy struct {
	// MaxRetries is how many extra attempts follow the first failure.
	MaxRetries int
	// Backoff is the virtual-seconds sleep before retry i (0-based),
	// doubled each attempt: Backoff, 2*Backoff, 4*Backoff, ...
	// The sleeps advance virtual time, so a retry loop naturally rides
	// out a chaos outage window instead of spinning inside it.
	Backoff float64
}

// PFSReader resolves dummy blocks against the parallel file system from
// inside a task — the paper's PFS Reader. Each task constructs (or is
// handed) one, bound to the task's own PFS mount so the transfer crosses
// that node's NIC. Slab reads go through a per-task I/O engine: an
// optional shared chunk cache (typically one per node, holding
// decompressed chunks across tasks) and optional readahead.
type PFSReader struct {
	// Registry holds the formats whose mappings the reader accepts.
	Registry *scifmt.Registry
	// Client is the PFS mount of the node the task runs on.
	Client *pfs.Client
	// Cache, when non-nil, serves decompressed chunks across slab reads.
	Cache *ioengine.Cache
	// Tier, when non-nil, is the cluster-wide cooperative cache chunk
	// reads consult after the per-job cache; Node names the burst buffer
	// local to the task (the node the task was scheduled on).
	Tier *ioengine.Tier
	Node string
	// Prefetch is the readahead depth for announced chunk plans (0 off).
	Prefetch int
	// Obs, when non-nil, wraps each block read in a span and feeds the
	// I/O-engine counters.
	Obs *obs.Registry
	// Retry governs recovery from transient PFS faults: full-request
	// retry-with-backoff for flaky/corrupt reads, and read-around (re-
	// requesting only the byte ranges on offline OSTs) for degraded
	// stripes. Zero value = fail fast.
	Retry RetryPolicy
}

// readRange is every PFS byte range's path through the reader: one
// ReadAtParts, then — while transient faults or offline ranges remain and
// the retry budget lasts — exponential-backoff retries. A flaky or
// corrupt read re-requests the whole range; a degraded stripe re-requests
// only the missing ranges (read-around), patching them into the buffer
// already in hand. Backoff sleeps advance virtual time, so an OST outage
// window scheduled on the kernel clock can end mid-loop.
func (r *PFSReader) readRange(p *sim.Proc, path string, off, n int64) ([]byte, error) {
	out, missing, err := r.Client.ReadAtParts(p, path, off, n)
	if err == nil && len(missing) == 0 {
		return out, nil
	}
	for attempt := 0; attempt < r.Retry.MaxRetries; attempt++ {
		if err != nil && !fault.IsTransient(err) {
			return nil, err
		}
		p.Sleep(r.Retry.Backoff * float64(int64(1)<<attempt))
		if err != nil {
			r.Obs.Counter("core/read_retries_total", obs.L("kind", fault.KindOf(err))).Inc()
			out, missing, err = r.Client.ReadAtParts(p, path, off, n)
		} else {
			r.Obs.Counter("core/read_around_total").Inc()
			var still []ioengine.Range
			for _, m := range missing {
				data, miss, rerr := r.Client.ReadAtParts(p, path, m.Off, m.Len)
				if rerr != nil {
					err = rerr
					still = nil
					break
				}
				copy(out[m.Off-off:m.Off-off+int64(len(data))], data)
				still = append(still, miss...)
			}
			if err == nil {
				missing = still
			}
		}
		if err == nil && len(missing) == 0 {
			return out, nil
		}
	}
	if err != nil {
		return nil, err
	}
	return nil, fault.Transient("ost-down",
		"core: read %s [%d,+%d): %d range(s) still offline after %d retries",
		path, off, n, len(missing), r.Retry.MaxRetries)
}

// retryEngine routes engine-level chunk reads (the ReadSlab path) through
// the reader's recovery loop, so cached/prefetched scientific reads get
// the same retry and read-around behavior as flat block reads.
type retryEngine struct {
	r    *PFSReader
	path string
	size int64
}

func (e *retryEngine) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	return e.r.readRange(p, e.path, off, n)
}

func (e *retryEngine) Size() int64 { return e.size }

// Name namespaces cache keys with the file path, matching pfs.fileEngine.
func (e *retryEngine) Name() string { return e.path }

// readSpan opens a child span of p's current span, installs it as the
// current span for the duration of the read (so PFS access spans nest
// under it), and returns the restore-and-end closure. No-op when no
// registry is attached.
func (r *PFSReader) readSpan(p *sim.Proc, name, path string) func() {
	if r.Obs == nil {
		return func() {}
	}
	sp := r.Obs.StartSpan(name, "core", p.Span())
	sp.Arg("path", path)
	prev := p.SetSpan(sp)
	return func() {
		p.SetSpan(prev)
		sp.End()
	}
}

// NewPFSReader returns a reader over the given mount.
func NewPFSReader(reg *scifmt.Registry, client *pfs.Client) *PFSReader {
	if reg == nil {
		reg = scifmt.Default()
	}
	return &PFSReader{Registry: reg, Client: client}
}

// ReadBlock resolves any dummy block: flat sources return raw bytes,
// slab sources return a decoded *Slab.
func (r *PFSReader) ReadBlock(p *sim.Proc, b *hdfs.Block) (any, error) {
	if !b.Virtual {
		return nil, fmt.Errorf("core: block %d is not virtual; read it via HDFS", b.ID)
	}
	switch src := b.Source.(type) {
	case *FlatSource:
		return r.ReadFlat(p, src)
	case *SlabSource:
		return r.ReadSlab(p, src)
	default:
		return nil, fmt.Errorf("core: block %d has unknown source %T", b.ID, b.Source)
	}
}

// ReadFlat reads a flat byte range with a single whole-block request
// (SciDP "reads the entire block in a single I/O request to maximize the
// bandwidth", unlike Hadoop's 64 KB streaming reads).
func (r *PFSReader) ReadFlat(p *sim.Proc, src *FlatSource) ([]byte, error) {
	defer r.readSpan(p, "PFSReader.ReadFlat", src.PFSPath)()
	data, err := r.readRange(p, src.PFSPath, src.Offset, src.Length)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != src.Length {
		return nil, fmt.Errorf("core: %s: short read %d of %d at %d", src.PFSPath, len(data), src.Length, src.Offset)
	}
	return data, nil
}

// ReadSlab pulls the block's hyperslab through the chunk index the
// mapping carries. It re-reads the file's header, charged as the nc_open
// the paper's map tasks perform, but decodes none of it: a header whose
// length or CRC differs from the explored one means the file changed
// since it was mapped, and no offset from the old index is followed.
func (r *PFSReader) ReadSlab(p *sim.Proc, src *SlabSource) (*Slab, error) {
	v := src.Var
	if v == nil || src.Header == nil {
		return nil, fmt.Errorf("core: %s: slab block carries no chunk index", src.PFSPath)
	}
	defer r.readSpan(p, "PFSReader.ReadSlab", src.PFSPath+"/"+v.Path)()
	if _, ok := r.Registry.Lookup(src.Format); !ok {
		return nil, fmt.Errorf("core: format %q not installed", src.Format)
	}
	eng, err := r.Client.Engine(p, src.PFSPath)
	if err != nil {
		return nil, err
	}
	if r.Retry.MaxRetries > 0 {
		eng = &retryEngine{r: r, path: src.PFSPath, size: eng.Size()}
	}
	reader := ioengine.Bind(p, eng, ioengine.Options{Cache: r.Cache, Prefetch: r.Prefetch,
		Obs: r.Obs, Tier: r.Tier, TierNode: r.Node})
	_, h, err := src.Header.Dialect.ReadHeader(reader)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", src.PFSPath, v.Path, err)
	}
	if h != *src.Header {
		return nil, fmt.Errorf("core: %s changed since it was mapped: its header is %d bytes with CRC-32 %08x, was %d bytes with %08x",
			src.PFSPath, h.Bytes, h.CRC, src.Header.Bytes, src.Header.CRC)
	}
	x := v.Index
	x.Src = reader
	raw, err := x.ReadBox(src.Start, src.Count)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", src.PFSPath, v.Path, err)
	}
	return &Slab{PFSPath: src.PFSPath, Var: v, Start: src.Start, Count: src.Count, Raw: raw}, nil
}
