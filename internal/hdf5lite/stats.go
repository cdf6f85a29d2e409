package hdf5lite

import (
	"encoding/binary"
	"math"

	"scidp/internal/ioengine"
)

// ChunkStats is the write-time zone map of one stored chunk; the record,
// its fold and its header trailer are ioengine's, shared with netcdf.
type ChunkStats = ioengine.ChunkStats

// Float64At returns element i of a raw little-endian payload as float64.
func Float64At(t Type, raw []byte, i int) float64 {
	switch t {
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
	case Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(raw[i*4:])))
	}
	panic("hdf5lite: unknown type")
}

// datasetsDF lists every dataset under g in depth-first encoding order —
// the order the statistics trailer uses.
func datasetsDF(g *Group) []*Dataset {
	out := append([]*Dataset(nil), g.Datasets...)
	for _, c := range g.Children {
		out = append(out, datasetsDF(c)...)
	}
	return out
}
