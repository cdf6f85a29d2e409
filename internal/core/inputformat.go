package core

import (
	"fmt"

	"scidp/internal/cluster"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/obs"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
)

// CostModel carries the modeled CPU costs of the read path.
type CostModel struct {
	// DecompressPerRawMB is seconds of CPU charged per decompressed MB.
	DecompressPerRawMB float64
	// ConvertPerRawMB is seconds charged per MB of binary-to-R-structure
	// conversion (the paper: "The binary data fetched from the PFS can be
	// converted to R structure in a very short time").
	ConvertPerRawMB float64
}

// DefaultCostModel returns constants calibrated to the paper's Figure 7:
// SciDP reads+converts a 50-level variable in well under 2 s of task time.
func DefaultCostModel() CostModel {
	return CostModel{DecompressPerRawMB: 0.004, ConvertPerRawMB: 0.002}
}

// InputFormat plugs SciDP into the MapReduce engine: splits are the dummy
// blocks of a virtual mapping, and reading a split spawns a PFS Reader on
// the task's node. Records are delivered as (label, *Slab) for scientific
// blocks and (label, []byte) for flat blocks.
type InputFormat struct {
	// HDFS holds the virtual inodes.
	HDFS *hdfs.FS
	// Dir is the HDFS mirror directory to walk (a Mapping.Root).
	Dir string
	// Registry resolves formats for slab reads.
	Registry *scifmt.Registry
	// MountFor returns the PFS mount for a task's node (the mount's
	// resource path should traverse the cross-cluster link and the
	// node's NIC).
	MountFor func(node *cluster.Node) *pfs.Client
	// Cost is the CPU cost model (zero value charges nothing).
	Cost CostModel
	// Engine configures each task's PFS Reader I/O engine (zero value:
	// no cache, no readahead — the pre-engine behavior).
	Engine EngineOptions
	// Caches holds the per-node chunk caches when Engine.CacheBytes > 0.
	// Leave nil to have ForEach create one lazily; set it to share (or
	// inspect) the caches across jobs.
	Caches *ioengine.CacheSet
	// Tier, when non-nil, is the cluster-wide cooperative cache every
	// task's reader consults between the job cache and the PFS.
	Tier *ioengine.Tier
	// Obs, when non-nil, is handed to each task's PFS Reader so block
	// reads produce spans and I/O-engine counters.
	Obs *obs.Registry
	// Retry is each task's PFS Reader recovery policy (zero = fail fast;
	// a transient fault then surfaces to MapReduce task re-execution).
	Retry RetryPolicy
}

// EngineOptions configures the per-task I/O engine of an InputFormat.
type EngineOptions struct {
	// CacheBytes is the per-node decompressed-chunk cache budget
	// (0 disables caching, < 0 means unbounded).
	CacheBytes int64
	// Prefetch is the chunk readahead depth per slab read (0 disables).
	Prefetch int
}

// Splits walks the mirror directory: one split per dummy block, with no
// location constraint (data lives on the PFS, so any node is equally
// close — the scheduler spreads the tasks).
func (in *InputFormat) Splits(p *sim.Proc) ([]*mapreduce.Split, error) {
	files, err := in.HDFS.Walk(p, in.Dir)
	if err != nil {
		return nil, err
	}
	var out []*mapreduce.Split
	for _, f := range files {
		if f.Virtual {
			out = AppendBlockSplits(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no virtual blocks under %s", in.Dir)
	}
	return out, nil
}

// AppendBlockSplits appends one split per dummy block of the virtual file
// f, in block order — what Splits yields for it, for a caller that mapped
// the file itself (the in-situ feed) and has no directory to walk yet.
func AppendBlockSplits(dst []*mapreduce.Split, f *hdfs.INode) []*mapreduce.Split {
	for i, b := range f.Blocks {
		dst = append(dst, &mapreduce.Split{Label: fmt.Sprintf("%s#%d", f.Path, i), Payload: b, Length: b.Size})
	}
	return dst
}

// ForEach resolves the split's dummy block through a PFS Reader bound to
// the task's node and delivers a single record. The transfer and
// decompression/conversion costs land in the task's "Read" and "Convert"
// phases (the paper's Figure 7 decomposition).
func (in *InputFormat) ForEach(tc *mapreduce.TaskContext, s *mapreduce.Split, fn func(key string, value any) error) error {
	if in.MountFor == nil {
		return fmt.Errorf("core: InputFormat needs MountFor")
	}
	reader := NewPFSReader(in.Registry, in.MountFor(tc.Node()))
	if in.Engine.CacheBytes != 0 {
		if in.Caches == nil {
			in.Caches = ioengine.NewCacheSet(in.Engine.CacheBytes)
		}
		reader.Cache = in.Caches.For(tc.Node().Name)
	}
	reader.Tier = in.Tier
	reader.Node = tc.Node().Name
	reader.Prefetch = in.Engine.Prefetch
	reader.Obs = in.Obs
	reader.Retry = in.Retry
	block := s.Payload.(*hdfs.Block)
	var value any
	var err error
	tc.Phase("Read", func() {
		value, err = reader.ReadBlock(tc.Proc(), block)
	})
	if err != nil {
		return err
	}
	var rawMB float64
	switch v := value.(type) {
	case *Slab:
		rawMB = float64(len(v.Raw)) / 1e6
	case []byte:
		rawMB = float64(len(v)) / 1e6
	}
	if in.Cost.DecompressPerRawMB > 0 {
		tc.Charge("Read", in.Cost.DecompressPerRawMB*rawMB)
	}
	if in.Cost.ConvertPerRawMB > 0 {
		tc.Charge("Convert", in.Cost.ConvertPerRawMB*rawMB)
	}
	return fn(s.Label, value)
}
