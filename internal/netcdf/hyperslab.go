package netcdf

import "scidp/internal/ioengine"

// n-dimensional index and box-copy helpers shared by the chunk writer and
// the hyperslab reader.

// zeros returns an n-length zero index.
func zeros(n int) []int { return make([]int, n) }

// incIndex advances idx row-major within grid; it returns false when idx
// wraps past the last cell.
func incIndex(idx, grid []int) bool {
	for d := len(idx) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < grid[d] {
			return true
		}
		idx[d] = 0
	}
	return false
}

// dot returns the offset of coordinate idx under the given strides.
func dot(idx, strides []int) int {
	off := 0
	for i, v := range idx {
		off += v * strides[i]
	}
	return off
}

// copyBox copies a box of the given extent from src (shape srcShape,
// starting at srcStart) into dst (shape dstShape, starting at dstStart).
// Both arrays are row-major with es bytes per element; the innermost run
// is a single copy.
func copyBox(dst []byte, dstShape, dstStart []int, src []byte, srcShape, srcStart, extent []int, es int) {
	rank := len(extent)
	if rank == 0 {
		return
	}
	dstStr := ioengine.Strides(dstShape)
	srcStr := ioengine.Strides(srcShape)
	runElems := extent[rank-1]
	runBytes := runElems * es
	idx := zeros(rank - 1)
	for {
		srcOff := dot(srcStart[:rank-1], srcStr[:rank-1]) + dot(idx, srcStr[:rank-1]) + srcStart[rank-1]*srcStr[rank-1]
		dstOff := dot(dstStart[:rank-1], dstStr[:rank-1]) + dot(idx, dstStr[:rank-1]) + dstStart[rank-1]*dstStr[rank-1]
		copy(dst[dstOff*es:dstOff*es+runBytes], src[srcOff*es:srcOff*es+runBytes])
		if rank == 1 || !incIndex(idx, extent[:rank-1]) {
			break
		}
	}
}

// boxIntersect intersects [aStart, aStart+aExtent) with [bStart,
// bStart+bExtent) per dimension, returning the intersection start and
// extent and whether it is non-empty.
func boxIntersect(aStart, aExtent, bStart, bExtent []int) (start, extent []int, ok bool) {
	rank := len(aStart)
	start = make([]int, rank)
	extent = make([]int, rank)
	for i := 0; i < rank; i++ {
		lo := max(aStart[i], bStart[i])
		hi := min(aStart[i]+aExtent[i], bStart[i]+bExtent[i])
		if hi <= lo {
			return nil, nil, false
		}
		start[i] = lo
		extent[i] = hi - lo
	}
	return start, extent, true
}
