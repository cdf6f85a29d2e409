package rframe

import (
	"slices"
	"strings"
)

// SortKey is one ordering key: a column with one entry per row (Int keys
// compare as float64, the way every verb reads them) and a direction.
type SortKey struct {
	Col  *Column
	Desc bool // larger values first
}

// Order is the one place a row index is ordered for a frame: OrderBy,
// rsql's ORDER BY and the pushdown plan's Finalize all call it. It
// returns the first k rows (all n when k < 0 or k > n) of rows [0, n)
// sorted by keys — at least one, each n long. Rows equal on every key keep
// their input order and a NaN sorts after every number whichever the
// direction (R's na.last), so the order is total and k < n is exact: a
// k-row heap, O(n log k), yields the rows of the full sort cut at k.
func Order(keys []SortKey, k int) []int {
	n := keys[0].Col.Len()
	cmps := make([]func(a, b int) int, len(keys))
	for i, key := range keys {
		cmps[i] = key.compare()
	}
	cmp := func(a, b int) int {
		for _, c := range cmps {
			if r := c(a, b); r != 0 {
				return r
			}
		}
		return a - b
	}
	if k < 0 || k > n {
		k = n
	}
	top := make([]int, k)
	for i := range top {
		top[i] = i
	}
	if 0 < k && k < n {
		// A max-heap of the first k rows so far: a better row evicts the root.
		down := func(i int) {
			for {
				big := i
				for c := 2*i + 1; c <= 2*i+2 && c < k; c++ {
					if cmp(top[c], top[big]) > 0 {
						big = c
					}
				}
				if big == i {
					return
				}
				top[i], top[big] = top[big], top[i]
				i = big
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			down(i)
		}
		for r := k; r < n; r++ {
			if cmp(r, top[0]) < 0 {
				top[0] = r
				down(0)
			}
		}
	}
	slices.SortFunc(top, cmp)
	return top
}

// compare returns the key's three-way row comparison.
func (key SortKey) compare() func(a, b int) int {
	sign := 1
	if key.Desc {
		sign = -1
	}
	switch c := key.Col; c.Kind {
	case String:
		return func(a, b int) int { return sign * strings.Compare(c.S[a], c.S[b]) }
	case Int:
		return func(a, b int) int { return compareFloats(float64(c.I[a]), float64(c.I[b]), sign) }
	default:
		return func(a, b int) int { return compareFloats(c.F[a], c.F[b], sign) }
	}
}

func compareFloats(a, b float64, sign int) int {
	switch {
	case a < b:
		return -sign
	case a > b:
		return sign
	case a == b || a != a && b != b:
		return 0
	case a != a:
		return 1 // a NaN goes last whichever the direction
	}
	return -1
}
