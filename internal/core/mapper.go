package core

import (
	"fmt"
	"path"
	"strings"

	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
)

// FlatSource is a dummy block's payload for flat files: a raw byte range
// of the PFS file, read back with one whole-block request.
type FlatSource struct {
	// PFSPath is the source file.
	PFSPath string
	// Offset is the byte range start.
	Offset int64
	// Length is the byte range length.
	Length int64
}

// SlabSource is a dummy block's payload for scientific files: a hyperslab
// of one variable, read back through its explored chunk index.
type SlabSource struct {
	// PFSPath is the source file.
	PFSPath string
	// Format names the scientific format plugin that explored the file.
	Format string
	// Header is what the File Explorer read of the file's header.
	Header *ioengine.Header
	// Var is the mapped variable: its path, type, dimension names and
	// chunk index.
	Var *scifmt.VarEntry
	// Start is the hyperslab origin.
	Start []int
	// Count is the hyperslab extent.
	Count []int
}

// MapOptions tunes the Data Mapper.
type MapOptions struct {
	// Vars restricts mapping to the named variable paths (SciDP's
	// variable-level subsetting: "SciDP will ignore the unrelated
	// variables"). Nil maps every variable.
	Vars []string
	// RowsPerBlock overrides dummy-block granularity for scientific
	// variables: each block covers this many leading-dimension entries.
	// Zero keeps the default chunk-aligned blocks (one block per storage
	// chunk, avoiding reads of extra compressed chunks); smaller values
	// split chunks across tasks, larger values merge them.
	RowsPerBlock int
	// FlatBlockSize overrides the dummy-block size for flat files
	// (zero: the HDFS block size, 128 MB in the paper). Negative values
	// are rejected.
	FlatBlockSize int64
	// Paths restricts MapPath to the named source files (nil maps every
	// file under the directory) — for jobs that consume a window of a
	// dataset rather than the whole of it.
	Paths []string
}

// MappedVar records one variable's virtual file.
type MappedVar struct {
	// HDFSPath is the virtual file mirroring the variable.
	HDFSPath string
	// VarPath is the variable within the source file.
	VarPath string
	// INode is the created virtual inode.
	INode *hdfs.INode
}

// MappedFile records one input file's mirror.
type MappedFile struct {
	// PFSPath is the source file.
	PFSPath string
	// HDFSPath is the mirror root (a directory for scientific files, the
	// virtual file itself for flat files).
	HDFSPath string
	// Format names the scientific format ("" for flat).
	Format string
	// Vars lists the mapped variables (flat files have none).
	Vars []MappedVar
	// Flat is the virtual inode for a flat file (nil for scientific).
	Flat *hdfs.INode
}

// Mapping is the result of mapping one PFS input path.
type Mapping struct {
	// Root is the HDFS directory holding the mirrors.
	Root string
	// Files lists the mapped inputs in sorted order.
	Files []MappedFile
}

// VirtualPaths returns every virtual HDFS file path in the mapping.
func (m *Mapping) VirtualPaths() []string {
	var out []string
	for _, f := range m.Files {
		if f.Flat != nil {
			out = append(out, f.HDFSPath)
			continue
		}
		for _, v := range f.Vars {
			out = append(out, v.HDFSPath)
		}
	}
	return out
}

// Mapper is SciDP's Data Mapper: it turns File Explorer verdicts into
// virtual HDFS inodes whose dummy blocks carry PFS mapping payloads.
type Mapper struct {
	// HDFS is the target namespace.
	HDFS *hdfs.FS
	// Explorer classifies inputs.
	Explorer *Explorer
	// MirrorRoot is the HDFS directory mirrors are created under
	// (default "/scidp").
	MirrorRoot string
}

// NewMapper returns a mapper writing mirrors under mirrorRoot.
func NewMapper(fs *hdfs.FS, reg *scifmt.Registry, mirrorRoot string) *Mapper {
	if mirrorRoot == "" {
		mirrorRoot = "/scidp"
	}
	return &Mapper{HDFS: fs, Explorer: NewExplorer(reg), MirrorRoot: mirrorRoot}
}

// MapPath explores the PFS directory and creates the virtual mirror on
// HDFS. Only metadata moves: the PFS is read for file headers, the HDFS
// NameNode records virtual inodes and dummy blocks.
func (m *Mapper) MapPath(p *sim.Proc, client *pfs.Client, pfsDir string, opts MapOptions) (*Mapping, error) {
	files, err := m.Explorer.ExplorePath(p, client, pfsDir)
	if err != nil {
		return nil, err
	}
	root := path.Join(m.MirrorRoot, strings.Trim(pfsDir, "/"))
	mapping := &Mapping{Root: root}
	var want map[string]bool
	if opts.Paths != nil {
		want = make(map[string]bool, len(opts.Paths))
		for _, pth := range opts.Paths {
			want[pth] = true
		}
	}
	for _, fc := range files {
		if want != nil && !want[fc.Path] {
			continue
		}
		mf, err := m.mapOne(p, fc, root, opts)
		if err != nil {
			return nil, err
		}
		mapping.Files = append(mapping.Files, *mf)
	}
	return mapping, nil
}

// MapFile explores and mirrors a single PFS file — the in-situ path,
// where each output is mapped the moment the simulation finishes writing
// it ("Users can launch data analysis ... immediately after data is
// generated", Section I).
func (m *Mapper) MapFile(p *sim.Proc, client *pfs.Client, pfsPath string, opts MapOptions) (*MappedFile, error) {
	fc, err := m.Explorer.ExploreFile(p, client, pfsPath)
	if err != nil {
		return nil, err
	}
	root := path.Join(m.MirrorRoot, strings.Trim(path.Dir(pfsPath), "/"))
	return m.mapOne(p, fc, root, opts)
}

func (m *Mapper) mapOne(p *sim.Proc, fc *FileClass, root string, opts MapOptions) (*MappedFile, error) {
	base := path.Base(fc.Path)
	if !fc.Sci() {
		return m.mapFlat(p, fc, path.Join(root, base), opts)
	}
	mf := &MappedFile{PFSPath: fc.Path, HDFSPath: path.Join(root, base), Format: fc.Format}
	if err := m.HDFS.Mkdir(p, mf.HDFSPath); err != nil {
		return nil, err
	}
	wanted := map[string]bool{}
	for _, v := range opts.Vars {
		wanted[v] = true
	}
	matched := 0
	for i := range fc.Info.Vars {
		v := &fc.Info.Vars[i]
		if len(wanted) > 0 && !wanted[v.Path] {
			continue
		}
		matched++
		hdfsPath := path.Join(mf.HDFSPath, v.Path)
		inode, err := m.HDFS.CreateVirtualFile(p, hdfsPath, slabBlocks(fc, v, opts.RowsPerBlock))
		if err != nil {
			return nil, err
		}
		mf.Vars = append(mf.Vars, MappedVar{HDFSPath: hdfsPath, VarPath: v.Path, INode: inode})
	}
	if len(wanted) > 0 && matched == 0 {
		return nil, fmt.Errorf("core: %s: none of the requested variables %v exist", fc.Path, opts.Vars)
	}
	return mf, nil
}

func (m *Mapper) mapFlat(p *sim.Proc, fc *FileClass, hdfsPath string, opts MapOptions) (*MappedFile, error) {
	if opts.FlatBlockSize < 0 {
		return nil, fmt.Errorf("core: negative FlatBlockSize %d", opts.FlatBlockSize)
	}
	blockSize := opts.FlatBlockSize
	if blockSize == 0 {
		blockSize = m.HDFS.Config().BlockSize
	}
	var blocks []hdfs.VirtualBlockSpec
	for off := int64(0); off < fc.Size; off += blockSize {
		l := blockSize
		if off+l > fc.Size {
			l = fc.Size - off
		}
		blocks = append(blocks, hdfs.VirtualBlockSpec{
			Size:   l,
			Source: &FlatSource{PFSPath: fc.Path, Offset: off, Length: l},
		})
	}
	inode, err := m.HDFS.CreateVirtualFile(p, hdfsPath, blocks)
	if err != nil {
		return nil, err
	}
	return &MappedFile{PFSPath: fc.Path, HDFSPath: hdfsPath, Flat: inode}, nil
}

// slabBlocks partitions a variable along its leading dimension into dummy
// blocks of rowsPerBlock entries. With rowsPerBlock <= 0 the blocks follow
// the storage chunks' leading extent (one block per chunk when chunks are
// whole in the other dimensions, the paper's default: "the first dummy
// block is created with the same size as the original chunk size").
func slabBlocks(fc *FileClass, v *scifmt.VarEntry, rowsPerBlock int) []hdfs.VirtualBlockSpec {
	shape := v.Index.Grid.Shape
	rows := shape[0]
	// Bytes stored per leading-dimension row, for block-size estimates.
	storedPerRow := float64(v.StoredBytes) / float64(rows)
	if rowsPerBlock <= 0 {
		rowsPerBlock = v.Index.Grid.Chunk[0]
	}
	blocks := make([]hdfs.VirtualBlockSpec, 0, (rows+rowsPerBlock-1)/rowsPerBlock)
	for r := 0; r < rows; r += rowsPerBlock {
		start := make([]int, len(shape))
		count := append([]int(nil), shape...)
		start[0], count[0] = r, min(rowsPerBlock, rows-r)
		size := int64(storedPerRow * float64(count[0]))
		blocks = append(blocks, hdfs.VirtualBlockSpec{
			Size: size,
			Source: &SlabSource{
				PFSPath: fc.Path,
				Format:  fc.Format,
				Header:  &fc.Info.Header,
				Var:     v,
				Start:   start,
				Count:   count,
			},
		})
	}
	return blocks
}
