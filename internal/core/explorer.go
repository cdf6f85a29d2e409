package core

import (
	"cmp"
	"fmt"

	"scidp/internal/ioengine"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
)

// FileClass is the File Explorer's verdict on one input file.
type FileClass struct {
	// Path is the PFS file path.
	Path string
	// Size is the file length in bytes.
	Size int64
	// Format names the detecting scientific format ("" for flat files).
	Format string
	// Info is the explored structure (nil for flat files).
	Info *scifmt.Info
}

// Sci reports whether the file was recognized as scientific.
func (fc *FileClass) Sci() bool { return fc.Info != nil }

// Explorer is SciDP's File Explorer: the Path Reader walks the input path
// and the Sci-format Head Reader probes each file against the installed
// format plugins.
type Explorer struct {
	// Registry holds the installed scientific formats.
	Registry *scifmt.Registry
}

// NewExplorer returns an explorer over the given format registry.
func NewExplorer(reg *scifmt.Registry) *Explorer {
	if reg == nil {
		reg = scifmt.Default()
	}
	return &Explorer{Registry: reg}
}

// ExploreFile classifies a single PFS file, charging the magic probe and
// (for scientific files) the header read in virtual time.
func (e *Explorer) ExploreFile(p *sim.Proc, client *pfs.Client, path string) (*FileClass, error) {
	r, err := client.OpenReader(p, path)
	if err != nil {
		return nil, err
	}
	fc := &FileClass{Path: path, Size: r.Size()}
	pr := &probe{Source: r}
	format, ok := e.Registry.Detect(pr)
	if pr.err != nil {
		return nil, fmt.Errorf("core: explore %s: %w", path, pr.err)
	}
	if !ok {
		return fc, nil // flat file
	}
	info, err := format.Explore(r)
	if err != nil {
		return nil, fmt.Errorf("core: explore %s: %w", path, err)
	}
	fc.Format = format.Name()
	fc.Info = info
	return fc, nil
}

// probe is the Head Reader's view of a file during format detection. A
// format's Detect reads a failed read as "not this format"; probe keeps
// the error, so a read fault fails the exploration instead of mapping a
// scientific file as flat.
type probe struct {
	ioengine.Source
	err error
}

// ReadAt implements ioengine.Source.
func (pr *probe) ReadAt(off, n int64) ([]byte, error) {
	b, err := pr.Source.ReadAt(off, n)
	pr.err = cmp.Or(pr.err, err)
	return b, err
}

// ExplorePath lists the PFS directory and classifies every file in it, in
// sorted path order. An empty directory is an error (nothing to map).
func (e *Explorer) ExplorePath(p *sim.Proc, client *pfs.Client, dir string) ([]*FileClass, error) {
	paths, err := client.List(p, dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: input path %s is empty", dir)
	}
	out := make([]*FileClass, 0, len(paths))
	for _, path := range paths {
		fc, err := e.ExploreFile(p, client, path)
		if err != nil {
			return nil, err
		}
		out = append(out, fc)
	}
	return out, nil
}
