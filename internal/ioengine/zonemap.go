package ioengine

import (
	"encoding/binary"
	"math"
)

// The zone map: the one per-chunk summary the chunk container records at
// write time (Encoder.Pack) and a query planner consults to prove a chunk
// irrelevant without reading it. It rides in a tagged trailer after the
// dialect's schema (Encoder.pass) that every header carries: a file
// without it is refused at Open (Decoder.ZoneMaps).

// ZoneMapTag opens the statistics trailer of a header.
const ZoneMapTag uint32 = 0x50414D5A // "ZMAP" little-endian

// ChunkStatsSize is the encoded size of one record: fixed, so a writer's
// probe and offset passes agree on the header size.
const ChunkStatsSize = 32

// ChunkStats is the write-time zone map of one stored chunk. Min/Max
// cover the non-fill elements; Count is the total element count; Fill
// counts fill elements (NaN for floating-point arrays — integer arrays
// have no fill representation, so Fill is 0).
type ChunkStats struct {
	// Min is the smallest non-fill value (+Inf when the chunk is all fill,
	// an empty interval that every range predicate excludes).
	Min float64
	// Max is the largest non-fill value (-Inf when the chunk is all fill).
	Max float64
	// Count is the total number of elements in the chunk.
	Count int64
	// Fill is the number of fill (NaN) elements.
	Fill int64
}

// SummarizeChunk folds the n elements of one raw chunk, read through at,
// into its zone map.
func SummarizeChunk(n int, at func(i int) float64) ChunkStats {
	st := ChunkStats{Min: math.Inf(1), Max: math.Inf(-1), Count: int64(n)}
	for i := 0; i < n; i++ {
		v := at(i)
		if v != v { // NaN is the fill value
			st.Fill++
			continue
		}
		st.Min = min(st.Min, v)
		st.Max = max(st.Max, v)
	}
	return st
}

// Append appends the record: Min, Max, Count, Fill, eight little-endian
// bytes each.
func (s ChunkStats) Append(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Max))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Count))
	return binary.LittleEndian.AppendUint64(buf, uint64(s.Fill))
}

// DecodeChunkStats decodes a record of ChunkStatsSize bytes.
func DecodeChunkStats(rec []byte) ChunkStats {
	u64 := binary.LittleEndian.Uint64
	return ChunkStats{
		Min:   math.Float64frombits(u64(rec)),
		Max:   math.Float64frombits(u64(rec[8:])),
		Count: int64(u64(rec[16:])),
		Fill:  int64(u64(rec[24:])),
	}
}
