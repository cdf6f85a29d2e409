package ioengine

import "fmt"

// Grid is an array's chunk geometry: its extent and its chunks' extent per
// dimension. Chunks are numbered row-major over the grid of chunk
// positions and clamped at the array's far edge, so chunk i holds the box
// Box(i) and the chunks partition the array. A contiguous array is one
// chunk: Chunk equals Shape. Where each chunk lies is the one fact the
// Explorer, the Mapper and the PFS Reader share, and a dialect states it
// only by returning its header's Grid.
type Grid struct {
	Shape, Chunk []int
}

// cells returns how many chunks dimension d is cut into.
func (g Grid) cells(d int) int { return (g.Shape[d] + g.Chunk[d] - 1) / g.Chunk[d] }

// Len returns the number of chunks.
func (g Grid) Len() int {
	n := 1
	for d := range g.Shape {
		n *= g.cells(d)
	}
	return n
}

// Box returns where chunk i lies in the array: its start coordinate and
// its clamped extent.
func (g Grid) Box(i int) (start, extent []int) {
	rank := len(g.Shape)
	b := make([]int, 2*rank)
	start, extent = b[:rank:rank], b[rank:]
	g.box(i, func(d, s, n int) { start[d], extent[d] = s, n })
	return start, extent
}

// box calls fn(d, start, extent) with chunk i's place along each
// dimension d, the last first.
func (g Grid) box(i int, fn func(d, start, extent int)) {
	for d := len(g.Shape) - 1; d >= 0; d-- {
		n := g.cells(d)
		s := i % n * g.Chunk[d]
		fn(d, s, min(g.Chunk[d], g.Shape[d]-s))
		i /= n
	}
}

// check holds the box [start, start+count) to the array: its rank, and in
// every dimension a start inside and an extent of one or more that ends
// inside.
func (g Grid) check(start, count []int) error {
	if len(start) != len(g.Shape) || len(count) != len(g.Shape) {
		return fmt.Errorf("box rank %d/%d, array rank %d", len(start), len(count), len(g.Shape))
	}
	for d, n := range g.Shape {
		if start[d] < 0 || count[d] < 1 || start[d] >= n || count[d] > n-start[d] {
			return fmt.Errorf("box [%d,+%d) outside dimension %d of length %d", start[d], count[d], d, n)
		}
	}
	return nil
}

// overlapping lists the chunks the box [start, start+count) overlaps in
// row-major order: the sub-grid from the chunk holding start to the one
// holding the box's far corner.
func (g Grid) overlapping(start, count []int) []int {
	rank := len(g.Shape)
	b := make([]int, 4*rank)
	cells, lo, span, idx := b[:rank], b[rank:2*rank], b[2*rank:3*rank], b[3*rank:]
	n := 1
	for d := range lo {
		cells[d] = g.cells(d)
		lo[d] = start[d] / g.Chunk[d]
		span[d] = (start[d]+count[d]-1)/g.Chunk[d] - lo[d] + 1
		n *= span[d]
	}
	str := Strides(cells)
	base := dot(lo, str)
	out := make([]int, 0, n)
	for {
		out = append(out, base+dot(idx, str))
		if !incIndex(idx, span) {
			return out
		}
	}
}

// incIndex advances idx row-major within shape; it returns false when idx
// wraps past the last cell.
func incIndex(idx, shape []int) bool {
	for d := len(idx) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < shape[d] {
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

// CopyBox copies a box of the given extent from src (shape srcShape,
// starting at srcStart) into dst (shape dstShape, starting at dstStart).
// Both arrays are row-major with es bytes per element; the innermost run
// is a single copy. The box has at most MaxRank dimensions, as every
// array does, and CopyBox allocates nothing.
func CopyBox(dst []byte, dstShape, dstStart []int, src []byte, srcShape, srcStart, extent []int, es int) {
	rank := len(extent)
	if rank == 0 {
		return
	}
	var b [3 * MaxRank]int
	dstStr := strides(b[:rank], dstShape)
	srcStr := strides(b[rank:2*rank], srcShape)
	runBytes := extent[rank-1] * es
	idx := b[2*rank : 3*rank-1]
	for {
		srcOff := dot(srcStart[:rank-1], srcStr[:rank-1]) + dot(idx, srcStr[:rank-1]) + srcStart[rank-1]
		dstOff := dot(dstStart[:rank-1], dstStr[:rank-1]) + dot(idx, dstStr[:rank-1]) + dstStart[rank-1]
		copy(dst[dstOff*es:dstOff*es+runBytes], src[srcOff*es:srcOff*es+runBytes])
		if !incIndex(idx, extent[:rank-1]) {
			break
		}
	}
}
