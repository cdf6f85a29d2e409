// Package mpiio models MPI-IO over the parallel file system: independent
// reads (each rank issues its own requests, MPI_File_read_at) and
// two-phase collective reads (requests are merged into large contiguous
// regions, a subset of ranks acts as aggregators that read those regions,
// then pieces are redistributed to their owners over the compute fabric —
// MPI_File_read_at_all). Figure 6 of the SciDP paper contrasts exactly
// these modes against SciDP's per-task readers.
package mpiio

import (
	"fmt"

	"scidp/internal/cluster"
	"scidp/internal/ioengine"
	"scidp/internal/pfs"
	"scidp/internal/sim"
)

// Rank is one MPI process: where it runs and how it mounts the PFS.
type Rank struct {
	// Node is the machine the rank runs on.
	Node *cluster.Node
	// Client is the rank's PFS mount.
	Client *pfs.Client
}

// Comm is a communicator: the ranks plus the compute cluster whose fabric
// carries the redistribution phase of collective I/O.
type Comm struct {
	k       *sim.Kernel
	cluster *cluster.Cluster
	ranks   []Rank
}

// NewComm builds a communicator over the given ranks.
func NewComm(k *sim.Kernel, cl *cluster.Cluster, ranks []Rank) *Comm {
	if len(ranks) == 0 {
		panic("mpiio: communicator needs at least one rank")
	}
	return &Comm{k: k, cluster: cl, ranks: ranks}
}

// Size returns the rank count.
func (c *Comm) Size() int { return len(c.ranks) }

// Ranks returns the communicator's ranks in order.
func (c *Comm) Ranks() []Rank { return c.ranks }

// Range is one rank's byte request against the shared file — the
// ioengine byte range, so file views, HDFS stitching, and chunk plans
// share one type.
type Range = ioengine.Range

// Result collects a collective operation's outcome. Fields are valid
// after the kernel has drained (sim.Kernel.Run) or after Await returns.
type Result struct {
	done *sim.WaitGroup

	// Data holds each rank's bytes, indexed by rank.
	Data [][]byte
	// Start is the virtual time the operation began.
	Start float64
	// End is the virtual time the last rank finished.
	End float64
	// Err is the first error any rank hit.
	Err error
}

// Await blocks the calling process until the operation completes —
// the collective's implicit barrier, usable from a driver that issued
// the operation mid-simulation.
func (r *Result) Await(p *sim.Proc) { p.Wait(r.done) }

func (r *Result) fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

// IndependentRead starts one process per rank, each issuing its own
// ReadAt for its request (reqs is indexed by rank; a zero-length Range
// makes that rank a no-op). Returns immediately; run the kernel to
// completion before reading the Result.
func (c *Comm) IndependentRead(path string, reqs []Range) *Result {
	if len(reqs) != len(c.ranks) {
		panic(fmt.Sprintf("mpiio: %d requests for %d ranks", len(reqs), len(c.ranks)))
	}
	res := &Result{Data: make([][]byte, len(reqs)), Start: c.k.Now(), done: c.k.NewWaitGroup()}
	res.done.Add(len(c.ranks))
	for i := range c.ranks {
		i := i
		c.k.Go(fmt.Sprintf("mpiio/ind-%d", i), func(p *sim.Proc) {
			defer res.done.Done()
			req := reqs[i]
			if req.Len > 0 {
				data, err := c.ranks[i].Client.ReadAt(p, path, req.Off, req.Len)
				if err != nil {
					res.fail(err)
					return
				}
				res.Data[i] = data
			}
			if p.Now() > res.End {
				res.End = p.Now()
			}
		})
	}
	return res
}

// region is a merged contiguous area owned by one aggregator.
type region struct {
	off, length int64
	agg         int // rank index of the aggregator
}

// fileDomains is two-phase I/O's file-domain split: the span covering
// every non-empty request, carved into equal contiguous regions, one per
// aggregator (the last may be short, and trailing aggregators get none
// when the span is small). Nil means nothing was requested.
func fileDomains(reqs []Range, aggregators int) []region {
	lo, hi := int64(-1), int64(-1)
	for _, r := range reqs {
		if r.Len <= 0 {
			continue
		}
		if lo < 0 || r.Off < lo {
			lo = r.Off
		}
		hi = max(hi, r.Off+r.Len)
	}
	if lo < 0 {
		return nil
	}
	per := (hi - lo + int64(aggregators) - 1) / int64(aggregators)
	var regions []region
	for a := 0; a < aggregators; a++ {
		off := lo + int64(a)*per
		if off >= hi {
			break
		}
		regions = append(regions, region{off: off, length: min(per, hi-off), agg: a})
	}
	return regions
}

// CollectiveRead performs a two-phase collective read: the union of all
// requests is split into contiguous regions across the first `aggregators`
// ranks (0 = every rank aggregates); each aggregator reads its region in
// one large PFS request; then each rank receives its pieces over the
// compute fabric. Returns immediately; run the kernel before reading the
// Result.
func (c *Comm) CollectiveRead(path string, reqs []Range, aggregators int) *Result {
	if len(reqs) != len(c.ranks) {
		panic(fmt.Sprintf("mpiio: %d requests for %d ranks", len(reqs), len(c.ranks)))
	}
	if aggregators <= 0 || aggregators > len(c.ranks) {
		aggregators = len(c.ranks)
	}
	res := &Result{Data: make([][]byte, len(reqs)), Start: c.k.Now(), done: c.k.NewWaitGroup()}
	res.done.Add(len(c.ranks))

	regions := fileDomains(reqs, aggregators)
	if regions == nil {
		res.End = c.k.Now()
		res.done.Add(-len(c.ranks))
		return res // nothing requested
	}

	phase1 := c.k.NewWaitGroup()
	phase1.Add(len(regions))
	buffers := make([][]byte, len(regions))

	for ri := range regions {
		ri := ri
		rg := regions[ri]
		c.k.Go(fmt.Sprintf("mpiio/agg-%d", rg.agg), func(p *sim.Proc) {
			data, err := c.ranks[rg.agg].Client.ReadAt(p, path, rg.off, rg.length)
			if err != nil {
				res.fail(err)
			}
			buffers[ri] = data
			phase1.Done()
		})
	}

	// Phase 2: each rank waits for phase 1 then pulls its pieces from the
	// aggregators that hold them.
	for i := range c.ranks {
		i := i
		c.k.Go(fmt.Sprintf("mpiio/recv-%d", i), func(p *sim.Proc) {
			defer res.done.Done()
			p.Wait(phase1)
			if res.Err != nil {
				return
			}
			req := reqs[i]
			if req.Len > 0 {
				out := make([]byte, req.Len)
				var parts []sim.Part
				for ri, rg := range regions {
					piece, ok := req.Intersect(Range{Off: rg.off, Len: rg.length})
					if !ok {
						continue
					}
					s, e := piece.Off, piece.End()
					copy(out[s-req.Off:e-req.Off], buffers[ri][s-rg.off:e-rg.off])
					src := c.ranks[rg.agg].Node
					if src != c.ranks[i].Node {
						parts = append(parts, sim.Part{
							Bytes: float64(e - s),
							Res:   c.cluster.NetPath(src, c.ranks[i].Node),
						})
					}
				}
				p.TransferAll(parts...)
				res.Data[i] = out
			}
			if p.Now() > res.End {
				res.End = p.Now()
			}
		})
	}
	return res
}

// CollectiveWrite performs a two-phase collective write: each rank's
// piece is gathered to aggregators over the compute fabric, and each
// aggregator issues one large contiguous write to the PFS —
// MPI_File_write_at_all, the pattern a simulation's I/O phase uses. reqs
// and data are indexed by rank; the file must already exist (Create it
// first). Returns immediately; run the kernel before reading the Result.
func (c *Comm) CollectiveWrite(path string, reqs []Range, data [][]byte, aggregators int) *Result {
	if len(reqs) != len(c.ranks) || len(data) != len(c.ranks) {
		panic(fmt.Sprintf("mpiio: %d requests / %d buffers for %d ranks", len(reqs), len(data), len(c.ranks)))
	}
	if aggregators <= 0 || aggregators > len(c.ranks) {
		aggregators = len(c.ranks)
	}
	res := &Result{Start: c.k.Now(), done: c.k.NewWaitGroup()}

	for i, r := range reqs {
		if r.Len > 0 && int64(len(data[i])) != r.Len {
			res.fail(fmt.Errorf("mpiio: rank %d buffer %d bytes, request %d", i, len(data[i]), r.Len))
			return res
		}
	}
	regions := fileDomains(reqs, aggregators)
	if regions == nil {
		res.End = c.k.Now()
		return res
	}
	res.done.Add(len(regions))

	// Phase 1: every rank pushes its overlapping pieces to the owning
	// aggregators; buffers assemble in aggregator memory.
	buffers := make([][]byte, len(regions))
	for ri, rg := range regions {
		buffers[ri] = make([]byte, rg.length)
	}
	gather := c.k.NewWaitGroup()
	gather.Add(len(c.ranks))
	for i := range c.ranks {
		i := i
		c.k.Go(fmt.Sprintf("mpiio/send-%d", i), func(p *sim.Proc) {
			defer gather.Done()
			req := reqs[i]
			if req.Len <= 0 {
				return
			}
			var parts []sim.Part
			for ri, rg := range regions {
				piece, ok := req.Intersect(Range{Off: rg.off, Len: rg.length})
				if !ok {
					continue
				}
				s, e := piece.Off, piece.End()
				copy(buffers[ri][s-rg.off:e-rg.off], data[i][s-req.Off:e-req.Off])
				dst := c.ranks[rg.agg].Node
				if dst != c.ranks[i].Node {
					parts = append(parts, sim.Part{
						Bytes: float64(e - s),
						Res:   c.cluster.NetPath(c.ranks[i].Node, dst),
					})
				}
			}
			p.TransferAll(parts...)
		})
	}
	// Phase 2: aggregators write their regions after the gather.
	for ri := range regions {
		ri := ri
		rg := regions[ri]
		c.k.Go(fmt.Sprintf("mpiio/agg-write-%d", rg.agg), func(p *sim.Proc) {
			defer res.done.Done()
			p.Wait(gather)
			if res.Err != nil {
				return
			}
			if err := c.ranks[rg.agg].Client.WriteAt(p, path, buffers[ri], rg.off); err != nil {
				res.fail(err)
			}
			if p.Now() > res.End {
				res.End = p.Now()
			}
		})
	}
	return res
}

// ContiguousSplit carves [0, size) into count near-equal rank requests —
// the flat-file decomposition used for the "MPI Coll I/O" ideal-bandwidth
// series.
func ContiguousSplit(size int64, count int) []Range {
	out := make([]Range, count)
	per := (size + int64(count) - 1) / int64(count)
	var off int64
	for i := 0; i < count; i++ {
		l := per
		if off+l > size {
			l = size - off
		}
		if l < 0 {
			l = 0
		}
		out[i] = Range{Off: off, Len: l}
		off += l
	}
	return out
}
