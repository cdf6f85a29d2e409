package workloads

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"scidp/internal/cluster"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/pfs"
	"scidp/internal/sim"
)

// Backend abstracts the storage under the Figure 2 comparison: native
// HDFS (locality-aware local reads) versus a Lustre connector (every read
// crosses the storage network, the unified-file-system architecture of
// Figure 1(b)).
type Backend interface {
	// Name labels the backend ("hdfs", "lustre").
	Name() string
	// Put installs input data instantly (setup, not measured). The
	// backend keeps data; the caller must not write to it afterwards.
	Put(path string, data []byte)
	// Input builds an input format over the given files; records are
	// ([]byte) chunks.
	Input(paths []string, splitSize int64) mapreduce.InputFormat
	// Write stores a file from the task's node, charging virtual time.
	// The backend keeps data; the caller must not write to it afterwards.
	Write(p *sim.Proc, node *cluster.Node, path string, data []byte) error
	// Read loads a whole file from the task's node, charging time.
	Read(p *sim.Proc, node *cluster.Node, path string) ([]byte, error)
}

// ---- HDFS backend.

// HDFSBackend runs workloads against native HDFS.
type HDFSBackend struct {
	// FS is the file system.
	FS *hdfs.FS
	// Tier, when non-nil, is the cooperative cache tier block reads
	// consult before HDFS — the cross-job/cross-tenant reuse path.
	Tier *ioengine.Tier
}

// Name implements Backend.
func (b *HDFSBackend) Name() string { return "hdfs" }

// Put implements Backend.
func (b *HDFSBackend) Put(path string, data []byte) {
	if _, err := b.FS.Put(path, data); err != nil {
		panic(err)
	}
}

// Write implements Backend.
func (b *HDFSBackend) Write(p *sim.Proc, node *cluster.Node, path string, data []byte) error {
	return b.FS.WriteFile(p, node, path, data)
}

// Read implements Backend.
func (b *HDFSBackend) Read(p *sim.Proc, node *cluster.Node, path string) ([]byte, error) {
	return b.FS.ReadFile(p, node, path)
}

// Input implements Backend: one split per HDFS block, located at its
// replicas so the scheduler reads locally.
func (b *HDFSBackend) Input(paths []string, splitSize int64) mapreduce.InputFormat {
	return &hdfsBlockInput{fs: b.FS, tier: b.Tier, paths: paths}
}

type hdfsBlockInput struct {
	fs    *hdfs.FS
	tier  *ioengine.Tier
	paths []string
}

func (in *hdfsBlockInput) Splits(p *sim.Proc) ([]*mapreduce.Split, error) {
	var out []*mapreduce.Split
	for _, path := range paths(in.paths) {
		n, err := in.fs.Stat(p, path)
		if err != nil {
			return nil, err
		}
		for i, b := range n.Blocks {
			out = append(out, &mapreduce.Split{
				Label:     fmt.Sprintf("%s#%d", path, i),
				Payload:   b,
				Length:    b.Size,
				Locations: hdfs.HostsOf(b),
			})
		}
	}
	return out, nil
}

func (in *hdfsBlockInput) ForEach(tc *mapreduce.TaskContext, s *mapreduce.Split, fn func(key string, value any) error) error {
	var data []byte
	var err error
	key := "hdfs#" + s.Label
	tc.Phase("Read", func() {
		// Blocks are write-once, so the tier shares their bytes like any
		// reader. The nil check keeps Admit's arguments from being built.
		if v, ok := in.tier.Read(tc.Proc(), tc.Node().Name, key); ok {
			data = v
			return
		}
		data, err = in.fs.ReadBlock(tc.Proc(), tc.Node(), s.Payload.(*hdfs.Block))
		if err == nil && in.tier != nil {
			in.tier.MissOST(int64(len(data)))
			in.tier.Admit(tc.Proc(), tc.Node().Name, key, data, int64(len(data)))
		}
	})
	if err != nil {
		return err
	}
	return fn(s.Label, data)
}

// ---- Lustre connector backend.

// LustreBackend runs workloads against a PFS mounted by every Hadoop node
// (the HDFS-connector architecture). MountFor supplies each node's client,
// whose resource path crosses the storage fabric.
type LustreBackend struct {
	// FS is the parallel file system.
	FS *pfs.FS
	// MountFor returns a node's PFS mount.
	MountFor func(node *cluster.Node) *pfs.Client
	// SetupClient is any mount, used for metadata during split planning.
	SetupClient *pfs.Client
}

// Name implements Backend.
func (b *LustreBackend) Name() string { return "lustre" }

// Put implements Backend.
func (b *LustreBackend) Put(path string, data []byte) { b.FS.Put(path, data) }

// Write implements Backend.
func (b *LustreBackend) Write(p *sim.Proc, node *cluster.Node, path string, data []byte) error {
	c := b.MountFor(node)
	if _, err := c.Create(p, path, 0, 0); err != nil {
		return err
	}
	return c.WriteAt(p, path, data, 0)
}

// Read implements Backend.
func (b *LustreBackend) Read(p *sim.Proc, node *cluster.Node, path string) ([]byte, error) {
	c := b.MountFor(node)
	size, err := c.Stat(p, path)
	if err != nil {
		return nil, err
	}
	return c.ReadAt(p, path, 0, size)
}

// Input implements Backend: splits are byte ranges with no locality (all
// data is remote).
func (b *LustreBackend) Input(paths []string, splitSize int64) mapreduce.InputFormat {
	return &lustreRangeInput{be: b, paths: paths, splitSize: splitSize}
}

type lustreRangeInput struct {
	be        *LustreBackend
	paths     []string
	splitSize int64
}

type lustreRange struct {
	path string
	off  int64
	n    int64
}

func (in *lustreRangeInput) Splits(p *sim.Proc) ([]*mapreduce.Split, error) {
	ss := in.splitSize
	if ss <= 0 {
		ss = 128 << 20
	}
	var out []*mapreduce.Split
	for _, path := range paths(in.paths) {
		size, err := in.be.SetupClient.Stat(p, path)
		if err != nil {
			return nil, err
		}
		for off := int64(0); off < size; off += ss {
			n := ss
			if off+n > size {
				n = size - off
			}
			out = append(out, &mapreduce.Split{
				Label:   fmt.Sprintf("%s@%d", path, off),
				Payload: lustreRange{path: path, off: off, n: n},
				Length:  n,
			})
		}
	}
	return out, nil
}

func (in *lustreRangeInput) ForEach(tc *mapreduce.TaskContext, s *mapreduce.Split, fn func(key string, value any) error) error {
	rg := s.Payload.(lustreRange)
	var data []byte
	var err error
	tc.Phase("Read", func() {
		data, err = in.be.MountFor(tc.Node()).ReadAt(tc.Proc(), rg.path, rg.off, rg.n)
	})
	if err != nil {
		return err
	}
	return fn(s.Label, data)
}

func paths(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// ---- The three Figure 2 workloads.

// MiniConfig sizes a mini workload run.
type MiniConfig struct {
	// Files is the input/output file count.
	Files int
	// FileBytes is the size of each file.
	FileBytes int64
	// SplitSize carves inputs into map splits.
	SplitSize int64
	// TaskStartup is the per-task launch cost.
	TaskStartup float64
	// ScanPerMB charges map CPU per MB scanned (grep/terasort parse).
	ScanPerMB float64
}

// MiniResult reports one mini run.
type MiniResult struct {
	// Seconds is the job's virtual duration.
	Seconds float64
	// Bytes is the payload moved (for throughput reporting).
	Bytes int64
	// Output is workload-specific (match count, checksum).
	Output int64
}

// synthPeriod is the word count after which synthText repeats: the
// marker every 37th word, nine filler words in rotation, a newline every
// twelfth.
const synthPeriod = 37 * 36

// synthText builds deterministic text with the marker word scattered in:
// one period written word by word, then copied forward to n bytes.
func synthText(n int64, seed int, marker string) []byte {
	words := [...]string{"the", "rain", "falls", "on", "grid", "cells", "while", "model", "steps"}
	// Room for the word that crosses n, so append never regrows.
	out := make([]byte, 0, int(n)+max(len(marker), 5)+1)
	for i := seed; i < seed+synthPeriod && int64(len(out)) < n; i++ {
		if i%37 == 0 {
			out = append(out, marker...)
		} else {
			out = append(out, words[i%len(words)]...)
		}
		if i%12 == 11 {
			out = append(out, '\n')
		} else {
			out = append(out, ' ')
		}
	}
	filled := min(len(out), int(n))
	out = out[:n]
	for filled < len(out) {
		filled += copy(out[filled:], out[:filled])
	}
	return out
}

// CountWord counts the non-overlapping occurrences of word in data, as
// bytes.Count does, by searching for one byte of the word — the one
// rarest in the block's first KiB — and comparing the word around each
// hit. bytes.Count anchors on the first byte, which for a word starting
// with a common letter stops IndexByte every few bytes.
func CountWord(data []byte, word string) int {
	if len(word) < 2 {
		return bytes.Count(data, []byte(word))
	}
	var freq [256]int
	for _, b := range data[:min(len(data), 1024)] {
		freq[b]++
	}
	anchor := 0
	for j := 1; j < len(word); j++ {
		if freq[word[j]] < freq[word[anchor]] {
			anchor = j
		}
	}
	n := 0
	// The anchor of an occurrence that fits lies before end; pos is the
	// earliest start a further occurrence may have.
	end := len(data) - (len(word) - 1 - anchor)
	for pos := 0; pos+anchor < end; {
		i := bytes.IndexByte(data[pos+anchor:end], word[anchor])
		if i < 0 {
			break
		}
		pos += i
		if string(data[pos:pos+len(word)]) == word {
			n++
			pos += len(word)
		} else {
			pos++
		}
	}
	return n
}

// InstallTextInputs puts Files input text files on the backend and
// returns their paths.
func InstallTextInputs(be Backend, cfg MiniConfig, marker string) []string {
	var out []string
	for i := 0; i < cfg.Files; i++ {
		path := fmt.Sprintf("/mini/in/part-%04d", i)
		be.Put(path, synthText(cfg.FileBytes, i*131, marker))
		out = append(out, path)
	}
	return out
}

// RunTestDFSIOWrite measures aggregate write throughput: one map task per
// file, each writing FileBytes from its node.
func RunTestDFSIOWrite(p *sim.Proc, cl *cluster.Cluster, be Backend, cfg MiniConfig) (MiniResult, error) {
	job := &mapreduce.Job{Name: "dfsio-write-" + be.Name(), Cluster: cl, TaskStartup: cfg.TaskStartup, Obs: p.Kernel().Obs()}
	Write(job, be, cfg.Files, func(i int) string {
		return fmt.Sprintf("/mini/io-%s/out-%04d", be.Name(), i)
	}, bytes.Repeat([]byte{0xA5}, int(cfg.FileBytes)), 0)
	res, err := job.Run(p)
	if err != nil {
		return MiniResult{}, err
	}
	return MiniResult{Seconds: res.Elapsed(), Bytes: int64(cfg.Files) * cfg.FileBytes}, nil
}

// Write fills job with a TestDFSIO write: one location-free map task per
// file i < files, each writing data to path(i) from its node and emitting
// the bytes it wrote. A positive charge is modeled format CPU booked
// before the write: preemption kills land only inside Charge, so a
// preempted (or fault-failed) attempt has never written its file and the
// retry's create cannot collide.
func Write(job *mapreduce.Job, be Backend, files int, path func(i int) string, data []byte, charge float64) {
	splits := make(mapreduce.StaticInput, files)
	for i := range splits {
		splits[i] = &mapreduce.Split{Label: fmt.Sprintf("w#%d", i), Payload: i, Length: int64(len(data))}
	}
	job.Input = splits
	job.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		out := path(value.(int))
		if charge > 0 {
			tc.Charge("Format", charge)
		}
		var err error
		tc.Phase("Write", func() {
			err = be.Write(tc.Proc(), tc.Node(), out, data)
		})
		if err != nil {
			return err
		}
		tc.Emit("bytes", int64(len(data)))
		return nil
	}
}

// RunTestDFSIORead measures aggregate read throughput over the files
// written by RunTestDFSIOWrite.
func RunTestDFSIORead(p *sim.Proc, cl *cluster.Cluster, be Backend, cfg MiniConfig) (MiniResult, error) {
	splits := make([]*mapreduce.Split, cfg.Files)
	for i := range splits {
		splits[i] = &mapreduce.Split{Label: fmt.Sprintf("r%d", i), Payload: i, Length: cfg.FileBytes}
	}
	var total int64
	job := &mapreduce.Job{
		Name: "dfsio-read-" + be.Name(), Cluster: cl, TaskStartup: cfg.TaskStartup, Obs: p.Kernel().Obs(),
		Input: mapreduce.StaticInput(splits),
		Map: func(tc *mapreduce.TaskContext, key string, value any) error {
			i := value.(int)
			path := fmt.Sprintf("/mini/io-%s/out-%04d", be.Name(), i)
			var data []byte
			var err error
			tc.Phase("Read", func() {
				data, err = be.Read(tc.Proc(), tc.Node(), path)
			})
			total += int64(len(data))
			return err
		},
	}
	res, err := job.Run(p)
	if err != nil {
		return MiniResult{}, err
	}
	return MiniResult{Seconds: res.Elapsed(), Bytes: total}, nil
}

// RunGrep counts marker occurrences across the input files.
func RunGrep(p *sim.Proc, cl *cluster.Cluster, be Backend, cfg MiniConfig, inputs []string, marker string) (MiniResult, error) {
	job := &mapreduce.Job{Name: "grep-" + be.Name(), Cluster: cl, TaskStartup: cfg.TaskStartup, Obs: p.Kernel().Obs()}
	Grep(job, be.Input(inputs, cfg.SplitSize), cfg.ScanPerMB, marker)
	res, err := job.Run(p)
	if err != nil {
		return MiniResult{}, err
	}
	return MiniResult{Seconds: res.Elapsed(), Bytes: int64(cfg.Files) * cfg.FileBytes, Output: Matches(res)}, nil
}

// Grep fills job with a marker count over in: each map charges its scan
// (when scanPerMB > 0) and counts the block on the data plane, and one
// reducer sums the counts.
func Grep(job *mapreduce.Job, in mapreduce.InputFormat, scanPerMB float64, marker string) {
	job.Input = in
	job.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		data := value.([]byte)
		if scanPerMB > 0 {
			tc.Charge("Scan", scanPerMB*float64(len(data))/1e6)
		}
		// The real scan is pure byte work — run it on the data plane
		// (its modeled cost is the Charge above).
		var n int64
		tc.Compute(func() { n = int64(CountWord(data, marker)) })
		tc.Emit("count", n)
		return nil
	}
	job.Reduce = func(tc *mapreduce.TaskContext, key string, values []any) error {
		var sum int64
		for _, v := range values {
			sum += v.(int64)
		}
		tc.Emit(key, sum)
		return nil
	}
}

// Matches is the count a Grep job committed.
func Matches(res *mapreduce.Result) int64 {
	var n int64
	for _, kv := range res.Output {
		n += kv.V.(int64)
	}
	return n
}

// EmitRecords emits one pair per whole stride-byte record of data, keyed by
// the record's first keyLen bytes, from two per-split slabs, not two heap
// objects per record: keys are substrings of one string (alive as long as
// any key, so as long as the job); with a nil value each pair carries its
// record as a *[]byte into one [][]byte (pointers need no boxing), and a
// non-nil value is emitted with every key as is.
func EmitRecords(tc *mapreduce.TaskContext, data []byte, stride, keyLen int, value any) {
	n := len(data) / stride
	var kb strings.Builder
	kb.Grow(n * keyLen)
	for i := 0; i < n; i++ {
		kb.Write(data[i*stride : i*stride+keyLen])
	}
	keys := kb.String()
	var recs [][]byte
	if value == nil {
		recs = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		v := value
		if recs != nil {
			recs[i] = data[i*stride : (i+1)*stride]
			v = &recs[i]
		}
		tc.Emit(keys[i*keyLen:(i+1)*keyLen], v)
	}
}

// zeros backs Zeros: it only grows and is never written after make.
var zeros atomic.Pointer[[]byte]

// Zeros returns n zero bytes for a synthetic payload, shared by every caller
// and every write-once block made from them: read-only.
func Zeros(n int64) []byte {
	z := zeros.Load()
	if z == nil || int64(len(*z)) < n {
		buf := make([]byte, n)
		z = &buf
		zeros.Store(z)
	}
	return (*z)[:n:n]
}

// teraRecord is the fixed record width Sort reads and the shuffle charges.
const teraRecord = 100

// RunTeraSort sorts fixed-width records by 10-byte key: map emits every
// record (the full payload crosses the shuffle), reducers write sorted
// runs back to the backend.
func RunTeraSort(p *sim.Proc, cl *cluster.Cluster, be Backend, cfg MiniConfig, inputs []string, reducers int) (MiniResult, error) {
	job := &mapreduce.Job{Name: "terasort-" + be.Name(), Cluster: cl, TaskStartup: cfg.TaskStartup, Obs: p.Kernel().Obs()}
	Sort(job, be.Input(inputs, cfg.SplitSize), cfg.ScanPerMB, reducers, nil)
	res, err := job.Run(p)
	if err != nil {
		return MiniResult{}, err
	}
	outBytes := Sorted(res)
	// Reducers write their sorted runs back.
	wg := p.Kernel().NewWaitGroup()
	perRed := outBytes / int64(reducers)
	for r := 0; r < reducers; r++ {
		r := r
		wg.Add(1)
		node := cl.Nodes[r%len(cl.Nodes)]
		p.Kernel().Go(fmt.Sprintf("terasort-out-%d", r), func(wp *sim.Proc) {
			defer wg.Done()
			be.Write(wp, node, fmt.Sprintf("/mini/sorted-%s/part-%05d", be.Name(), r), Zeros(perRed))
		})
	}
	p.Wait(wg)
	return MiniResult{Seconds: p.Now() - res.Start, Bytes: int64(cfg.Files) * cfg.FileBytes, Output: outBytes}, nil
}

// Sort fills job with a TeraSort over in: map cuts each block into
// 100-byte records keyed by their first 10 bytes (charging its scan when
// scanPerMB > 0), the first key byte range-partitions them over reducers,
// and each reducer counts its records. Every pair is charged 100 shuffle
// bytes; with a nil value it carries its record (see EmitRecords), else
// value itself.
func Sort(job *mapreduce.Job, in mapreduce.InputFormat, scanPerMB float64, reducers int, value any) {
	job.Input = in
	job.NumReducers = reducers
	job.PairBytes = func(kv mapreduce.KV) int64 { return teraRecord }
	job.Partition = func(key string, n int) int {
		if len(key) == 0 {
			return 0
		}
		return int(key[0]) * n / 256
	}
	job.Map = func(tc *mapreduce.TaskContext, _ string, block any) error {
		data := block.([]byte)
		if scanPerMB > 0 {
			tc.Charge("Scan", scanPerMB*float64(len(data))/1e6)
		}
		// Record extraction (key slicing + emit into the partition
		// buckets) is pure byte work: offload it whole.
		tc.Compute(func() { EmitRecords(tc, data, teraRecord, 10, value) })
		return nil
	}
	job.Reduce = func(tc *mapreduce.TaskContext, key string, values []any) error {
		tc.Emit(key, len(values))
		return nil
	}
}

// Sorted is the byte count a Sort job committed, read from the committed
// reduce output so a retried or speculative attempt can never
// double-count.
func Sorted(res *mapreduce.Result) int64 {
	var n int64
	for _, kv := range res.Output {
		n += teraRecord * int64(kv.V.(int))
	}
	return n
}
