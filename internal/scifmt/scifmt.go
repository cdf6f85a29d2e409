// Package scifmt is the pluggable format layer behind SciDP's Sci-format
// Head Reader. The paper makes input-format support modular: "Users only
// need to provide a file structure explorer and a corresponding reader to
// add support of arbitrary file formats" (Section III-B). A Format is the
// explorer, Detect and Explore. The corresponding reader is shared by
// every format: Explore hands each variable's ioengine.ChunkIndex to the
// Data Mapper, and the PFS Reader reads a hyperslab with that index's
// ReadBox, so no header is decoded a second time. A Registry holds the
// installed formats so the File Explorer can classify each input file as
// scientific (some format detects it) or flat (none does).
package scifmt

import (
	"strings"

	"scidp/internal/ioengine"
)

// ReaderAt is the random-access source formats parse — the shared
// ioengine view, so every plugin automatically reads through whatever
// cache/prefetch wrappers the caller bound.
type ReaderAt = ioengine.Source

// VarEntry describes one mappable variable of a scientific file.
type VarEntry struct {
	// Path is the variable's slash-separated location within the file —
	// a bare name for flat formats ("QR"), a group path for hierarchical
	// ones ("model/physics/QR"). It becomes the virtual file's path
	// under the mirrored HDFS directory.
	Path string
	// TypeName names the element type in the format's terms ("float",
	// "float32", ...).
	TypeName string
	// DimNames names the dimensions, parallel to Index.Grid.Shape (may be
	// empty for formats without named dimensions).
	DimNames []string
	// Index is the variable's chunk index, with Src nil: its element type,
	// its Grid (chunk i, the unit SciDP's Data Mapper turns into a dummy
	// HDFS block, holds the box Grid.Box(i)) and every chunk's record. A
	// reader sets Src to its own source and reads with ReadBox.
	Index ioengine.ChunkIndex
	// StoredBytes is the on-disk payload size.
	StoredBytes int64
}

// Info is the explored structure of one scientific file.
type Info struct {
	// Format is the detecting format's name ("netcdf", "hdf5").
	Format string
	// Attrs are the file's global attributes, stringified.
	Attrs map[string]string
	// Vars lists every variable in file order.
	Vars []VarEntry
	// Header is what exploring read of the file's header. A later reader
	// reads the header again and compares, to tell whether the file still
	// has the header the Vars' indexes were decoded from.
	Header ioengine.Header
}

// Format is one scientific data format plugin: the file structure
// explorer.
type Format interface {
	// Name identifies the format.
	Name() string
	// Detect reports whether r is in this format (a cheap magic probe —
	// the nc_open / H5Fis_hdf5 check the paper describes).
	Detect(r ReaderAt) bool
	// Explore parses metadata only and returns the file structure.
	Explore(r ReaderAt) (*Info, error)
}

// Registry holds installed formats in registration order.
type Registry struct {
	formats []Format
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a format. Registering a duplicate name panics — format
// names key mapping metadata, so a collision is a programming error.
func (r *Registry) Register(f Format) {
	for _, g := range r.formats {
		if g.Name() == f.Name() {
			panic("scifmt: duplicate format " + f.Name())
		}
	}
	r.formats = append(r.formats, f)
}

// Lookup returns the named format, or false.
func (r *Registry) Lookup(name string) (Format, bool) {
	for _, f := range r.formats {
		if f.Name() == name {
			return f, true
		}
	}
	return nil, false
}

// Detect probes installed formats in order and returns the first match —
// the Sci-format Head Reader's decision. ok is false for flat files.
func (r *Registry) Detect(src ReaderAt) (Format, bool) {
	for _, f := range r.formats {
		if f.Detect(src) {
			return f, true
		}
	}
	return nil, false
}

// JoinPath joins group components into a variable path.
func JoinPath(parts ...string) string {
	var nonEmpty []string
	for _, p := range parts {
		if p != "" {
			nonEmpty = append(nonEmpty, p)
		}
	}
	return strings.Join(nonEmpty, "/")
}
