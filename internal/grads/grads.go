// Package grads implements a third scientific format — a GrADS-style raw
// gridded binary: uncompressed float32 records, one per (variable, level)
// pair, with a compact self-describing header. It exists to demonstrate
// the SciDP paper's modularity claim end to end: "Users only need to
// provide a file structure explorer and a corresponding reader to add
// support of arbitrary file formats" (Section III-B). Format implements
// scifmt.Format, so registering it makes the File Explorer, Data Mapper,
// and PFS Reader handle these files with no other change.
//
// Layout (little-endian):
//
//	magic "GRD1" | headerLen u64 | header | records
//
// header: nvars u32, then per var: name, nlevels u32, lat u32, lon u32.
// Records follow in declared variable order; each record is one level
// (lat*lon float32s), so a variable occupies nlevels consecutive records
// and every offset is implicit in the header — no per-chunk index needed.
package grads

import (
	"fmt"

	"scidp/internal/ioengine"
	"scidp/internal/scifmt"
)

// Magic is the 4-byte signature.
const Magic = "GRD1"

// dialect is this format's name and signature on the shared container,
// which owns the preamble, the header codec and the bounds on what a
// header may declare.
var dialect = ioengine.Dialect{Name: "grads", Magic: Magic}

// VarSpec declares one variable of a writer.
type VarSpec struct {
	// Name is the variable name.
	Name string
	// Levels, Lat, Lon are the grid dimensions.
	Levels, Lat, Lon int
}

// Encode builds a file from variable specs and their full payloads
// (parallel slices). Values are stored raw (uncompressed), the GrADS
// convention.
func Encode(specs []VarSpec, payloads [][]float32) ([]byte, error) {
	if len(specs) != len(payloads) {
		return nil, fmt.Errorf("grads: %d specs, %d payloads", len(specs), len(payloads))
	}
	e := &ioengine.Encoder{NoStats: true} // raw records, no chunk index, no zone maps
	for i, sp := range specs {
		if sp.Levels <= 0 || sp.Lat <= 0 || sp.Lon <= 0 {
			return nil, fmt.Errorf("grads: var %s: bad dims %dx%dx%d", sp.Name, sp.Levels, sp.Lat, sp.Lon)
		}
		if len(payloads[i]) != sp.Levels*sp.Lat*sp.Lon {
			return nil, fmt.Errorf("grads: var %s: %d values for %dx%dx%d", sp.Name, len(payloads[i]), sp.Levels, sp.Lat, sp.Lon)
		}
		if _, err := e.Pack(ioengine.Float32, 0, ioengine.PutFloat32s(payloads[i])); err != nil {
			return nil, err
		}
	}
	return dialect.Encode(e, func() error {
		e.U32(uint32(len(specs)))
		for _, sp := range specs {
			e.Str(sp.Name)
			e.U32(uint32(sp.Levels))
			e.U32(uint32(sp.Lat))
			e.U32(uint32(sp.Lon))
		}
		return nil
	})
}

// Format returns the scifmt plugin.
func Format() scifmt.Format { return gradsFormat{} }

type gradsFormat struct{}

func (gradsFormat) Name() string { return "grads" }

func (gradsFormat) Detect(r scifmt.ReaderAt) bool { return dialect.Detect(r) }

// parseHeader reads the variable table and returns each variable with the
// absolute offset of its first record. Offsets are implicit — a variable's
// records follow the previous one's — so the container checks every grid as
// it is declared: dims above zero, a size that does not overflow, and
// records that lie inside the file.
func parseHeader(r scifmt.ReaderAt) (vars []VarSpec, offsets []int64, err error) {
	d, err := dialect.Open(r)
	if err != nil {
		return nil, nil, err
	}
	for i, nv := 0, d.Count(16); i < nv && d.Err() == nil; i++ {
		sp := VarSpec{Name: d.Str(), Levels: int(d.U32()), Lat: int(d.U32()), Lon: int(d.U32())}
		vars = append(vars, sp)
		offsets = append(offsets, d.Payload(sp.Name, ioengine.Float32, []int{sp.Levels, sp.Lat, sp.Lon}))
	}
	return vars, offsets, d.Err()
}

func (gradsFormat) Explore(r scifmt.ReaderAt) (*scifmt.Info, error) {
	vars, offsets, err := parseHeader(r)
	if err != nil {
		return nil, err
	}
	info := &scifmt.Info{Format: "grads", Attrs: map[string]string{}}
	for i, sp := range vars {
		recBytes := int64(sp.Lat*sp.Lon) * 4
		entry := scifmt.VarEntry{
			Path:        sp.Name,
			TypeName:    "float",
			ElemSize:    4,
			Shape:       []int{sp.Levels, sp.Lat, sp.Lon},
			DimNames:    []string{"level", "lat", "lon"},
			RawBytes:    int64(sp.Levels) * recBytes,
			StoredBytes: int64(sp.Levels) * recBytes, // uncompressed
		}
		for l := 0; l < sp.Levels; l++ {
			entry.Segments = append(entry.Segments, scifmt.Segment{
				Offset:     offsets[i] + int64(l)*recBytes,
				StoredSize: recBytes,
				RawSize:    recBytes,
				Start:      []int{l, 0, 0},
				Extent:     []int{1, sp.Lat, sp.Lon},
			})
		}
		info.Vars = append(info.Vars, entry)
	}
	return info, nil
}

func (gradsFormat) ReadSlab(r scifmt.ReaderAt, varPath string, start, count []int) ([]byte, error) {
	vars, offsets, err := parseHeader(r)
	if err != nil {
		return nil, err
	}
	for i, sp := range vars {
		if sp.Name != varPath {
			continue
		}
		if len(start) != 3 || len(count) != 3 {
			return nil, fmt.Errorf("grads: slab rank must be 3")
		}
		if start[1] != 0 || start[2] != 0 || count[1] != sp.Lat || count[2] != sp.Lon {
			return nil, fmt.Errorf("grads: only whole-level slabs supported")
		}
		if start[0] < 0 || count[0] <= 0 || start[0]+count[0] > sp.Levels {
			return nil, fmt.Errorf("grads: levels [%d,+%d) outside [0,%d)", start[0], count[0], sp.Levels)
		}
		recBytes := int64(sp.Lat*sp.Lon) * 4
		off := offsets[i] + int64(start[0])*recBytes
		n := int64(count[0]) * recBytes
		// One contiguous uncompressed slab, read through the engine's
		// chunk path so a caching source serves repeats without the PFS
		// transfer.
		slab := ioengine.Chunk{Offset: off, StoredSize: n, RawSize: n}
		chunks := ioengine.ChunkIndex{Src: r, Pkg: dialect.Name, Name: varPath, Len: 1, At: func(int) *ioengine.Chunk { return &slab }}
		chunks.Announce([]int{0})
		return chunks.Read(0)
	}
	return nil, fmt.Errorf("grads: no variable %q", varPath)
}
