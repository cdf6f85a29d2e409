// Package core implements SciDP itself — the paper's contribution
// (Section III). Three components cooperate to let a Hadoop-style engine
// process scientific data in place on a parallel file system:
//
//   - File Explorer (explorer.go): scans a PFS input path, probes each
//     file with the installed scientific-format plugins (the Sci-format
//     Head Reader), and classifies files as scientific or flat.
//
//   - Data Mapper (mapper.go): mirrors each input on HDFS as virtual
//     inodes. A flat file becomes one virtual file of fixed-size dummy
//     blocks; a scientific file becomes a directory whose virtual files
//     correspond to variables (group paths mirror as deeper directories),
//     with dummy blocks aligned to storage chunks by default and tunable
//     to coarser or finer granularity. Dummy blocks carry only a Source
//     payload — no bytes move at mapping time.
//
//   - PFS Reader (reader.go): inside each map task, resolves the task's
//     dummy block back to a PFS read — a single whole-block request for
//     flat data, a hyperslab read through the mapped chunk index for
//     scientific data — and converts the result to R-ready structures.
//
// InputFormat (inputformat.go) packages the three as a mapreduce input
// format, which is how user jobs consume SciDP.
package core

import (
	"fmt"

	"scidp/internal/ioengine"
	"scidp/internal/rframe"
	"scidp/internal/scifmt"
)

// Slab is the value delivered to map tasks for scientific dummy blocks:
// one decoded hyperslab of one variable.
type Slab struct {
	// PFSPath is the source file on the PFS.
	PFSPath string
	// Var is the variable as mapped: its path within the file, its element
	// type and its dimension names.
	Var *scifmt.VarEntry
	// Start is the hyperslab origin in global variable coordinates.
	Start []int
	// Count is the hyperslab extent.
	Count []int
	// Raw is the decoded little-endian row-major payload.
	Raw []byte
}

// NumElems returns the slab's element count.
func (s *Slab) NumElems() int { return ioengine.Volume(s.Count) }

// Float32s decodes the payload (valid for 4-byte float data).
func (s *Slab) Float32s() ([]float32, error) {
	if s.Var.Index.Type != ioengine.Float32 {
		return nil, fmt.Errorf("core: slab %s/%s is %s, not float", s.PFSPath, s.Var.Path, s.Var.TypeName)
	}
	if len(s.Raw) != s.NumElems()*4 {
		return nil, fmt.Errorf("core: slab %s/%s has %d bytes for %d float32s", s.PFSPath, s.Var.Path, len(s.Raw), s.NumElems())
	}
	return ioengine.Float32s(s.Raw), nil
}

// Frame converts a rank-3 float slab into a tidy R data frame with global
// coordinate columns — the paper's "Multi-dimensional array will be
// prepared as R data frame".
func (s *Slab) Frame(valueName string) (*rframe.Frame, error) {
	if len(s.Count) != 3 {
		return nil, fmt.Errorf("core: Frame needs a rank-3 slab, got rank %d", len(s.Count))
	}
	vals, err := s.Float32s()
	if err != nil {
		return nil, err
	}
	names := [3]string{"dim0", "dim1", "dim2"}
	for i, name := range s.Var.DimNames[:min(3, len(s.Var.DimNames))] {
		if name != "" {
			names[i] = name
		}
	}
	return rframe.FromArray3D(names,
		[3]int{s.Start[0], s.Start[1], s.Start[2]},
		[3]int{s.Count[0], s.Count[1], s.Count[2]},
		vals, valueName)
}
