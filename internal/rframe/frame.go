// Package rframe provides the R-style data layer SciDP exposes to users:
// column-oriented data frames with filtering/ordering/summary verbs, a
// read.table-style CSV parser (the slow text path the baseline solutions
// pay for), conversion from multi-dimensional scientific arrays into
// frames ("Multi-dimensional array will be prepared as R data frame",
// Section IV-E2), and 2-D image plotting (plot.go).
package rframe

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind is a column's element type.
type Kind uint8

// Column kinds.
const (
	Float Kind = iota + 1
	Int
	String
)

// Column is one named, typed vector.
type Column struct {
	// Name is the column label.
	Name string
	// Kind selects which slice is populated.
	Kind Kind
	// F holds Float data.
	F []float64
	// I holds Int data.
	I []int64
	// S holds String data.
	S []string
}

// Len returns the column length.
func (c *Column) Len() int {
	switch c.Kind {
	case Float:
		return len(c.F)
	case Int:
		return len(c.I)
	case String:
		return len(c.S)
	}
	return 0
}

// Float64At returns row i as float64 (strings parse, NaN on failure).
func (c *Column) Float64At(i int) float64 {
	switch c.Kind {
	case Float:
		return c.F[i]
	case Int:
		return float64(c.I[i])
	case String:
		v, err := strconv.ParseFloat(c.S[i], 64)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	return math.NaN()
}

// AppendAt appends row i rendered as text (StringAt's text) to buf.
func (c *Column) AppendAt(buf []byte, i int) []byte {
	switch c.Kind {
	case Float:
		return strconv.AppendFloat(buf, c.F[i], 'g', -1, 64)
	case Int:
		return strconv.AppendInt(buf, c.I[i], 10)
	case String:
		return append(buf, c.S[i]...)
	}
	return buf
}

// StringAt renders row i as a string.
func (c *Column) StringAt(i int) string {
	if c.Kind == String {
		return c.S[i]
	}
	return string(c.AppendAt(nil, i))
}

// Frame is a column-oriented table.
type Frame struct {
	cols  []*Column
	index map[string]int
}

// New returns an empty frame.
func New() *Frame { return &Frame{index: map[string]int{}} }

// NumRows returns the row count (0 for an empty frame).
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Col returns the named column, or nil.
func (f *Frame) Col(name string) *Column {
	if i, ok := f.index[name]; ok {
		return f.cols[i]
	}
	return nil
}

// Columns returns the columns in order.
func (f *Frame) Columns() []*Column { return f.cols }

// Add appends a column: c itself, not a copy, so frames can share one.
func (f *Frame) Add(c *Column) error {
	if _, dup := f.index[c.Name]; dup {
		return fmt.Errorf("rframe: duplicate column %q", c.Name)
	}
	if len(f.cols) > 0 && c.Len() != f.NumRows() {
		return fmt.Errorf("rframe: column %q has %d rows, frame has %d", c.Name, c.Len(), f.NumRows())
	}
	f.index[c.Name] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// AddFloat appends a float column.
func (f *Frame) AddFloat(name string, vals []float64) error {
	return f.Add(&Column{Name: name, Kind: Float, F: vals})
}

// AddInt appends an integer column.
func (f *Frame) AddInt(name string, vals []int64) error {
	return f.Add(&Column{Name: name, Kind: Int, I: vals})
}

// AddString appends a string column.
func (f *Frame) AddString(name string, vals []string) error {
	return f.Add(&Column{Name: name, Kind: String, S: vals})
}

// MustAddFloat is AddFloat that panics on error (builder convenience).
func (f *Frame) MustAddFloat(name string, vals []float64) *Frame {
	return f.must(f.AddFloat(name, vals))
}

// MustAddInt is AddInt that panics on error.
func (f *Frame) MustAddInt(name string, vals []int64) *Frame {
	return f.must(f.AddInt(name, vals))
}

// MustAddString is AddString that panics on error.
func (f *Frame) MustAddString(name string, vals []string) *Frame {
	return f.must(f.AddString(name, vals))
}

// must panics on a builder's error and returns f for chaining.
func (f *Frame) must(err error) *Frame {
	if err != nil {
		panic(err)
	}
	return f
}

// Take returns the column's rows in the given order as a new column; a
// nil rows is every row and copies nothing: it returns c.
func (c *Column) Take(rows []int) *Column {
	if rows == nil {
		return c
	}
	return &Column{Name: c.Name, Kind: c.Kind, F: take(c.F, rows), I: take(c.I, rows), S: take(c.S, rows)}
}

// take gathers vals[rows[i]]; an unused kind's nil slice stays nil.
func take[T any](vals []T, rows []int) []T {
	if vals == nil {
		return nil
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = vals[r]
	}
	return out
}

// gather builds a new frame keeping rows[i] order from f.
func (f *Frame) gather(rows []int) *Frame {
	out := New()
	for _, c := range f.cols {
		out.Add(c.Take(rows))
	}
	return out
}

// Filter keeps rows where keep(i) is true.
func (f *Frame) Filter(keep func(row int) bool) *Frame {
	rows := []int{}
	for i := 0; i < f.NumRows(); i++ {
		if keep(i) {
			rows = append(rows, i)
		}
	}
	return f.gather(rows)
}

// OrderBy returns a copy sorted by the named column: stable, and with
// NaNs last whichever the direction (see Order).
func (f *Frame) OrderBy(name string, desc bool) (*Frame, error) {
	return f.orderBy(name, desc, -1)
}

// orderBy is the first k rows of the frame sorted by the named column.
func (f *Frame) orderBy(name string, desc bool, k int) (*Frame, error) {
	c := f.Col(name)
	if c == nil {
		return nil, fmt.Errorf("rframe: no column %q", name)
	}
	return f.gather(Order([]SortKey{{Col: c, Desc: desc}}, k)), nil
}

// Head returns the first n rows (all rows if n exceeds the count).
func (f *Frame) Head(n int) *Frame {
	n = max(0, min(n, f.NumRows()))
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return f.gather(rows)
}

// Append concatenates other's rows below f's (schemas must match). An
// empty f adopts other's columns uncopied but clipped, so the next Append
// moves them to storage of f's own instead of writing into other's.
func (f *Frame) Append(other *Frame) error {
	if len(f.cols) == 0 {
		for _, c := range other.cols {
			nc := &Column{Name: c.Name, Kind: c.Kind, F: slices.Clip(c.F), I: slices.Clip(c.I), S: slices.Clip(c.S)}
			if err := f.Add(nc); err != nil {
				return err
			}
		}
		return nil
	}
	if len(other.cols) != len(f.cols) {
		return fmt.Errorf("rframe: append schema mismatch: %d vs %d columns", len(other.cols), len(f.cols))
	}
	for i, c := range f.cols {
		oc := other.cols[i]
		if oc.Name != c.Name || oc.Kind != c.Kind {
			return fmt.Errorf("rframe: append column %d mismatch: %s/%v vs %s/%v", i, c.Name, c.Kind, oc.Name, oc.Kind)
		}
		c.F = append(c.F, oc.F...)
		c.I = append(c.I, oc.I...)
		c.S = append(c.S, oc.S...)
	}
	return nil
}

// Concat stacks the frames' rows in order into columns of its own, sized
// once for all of them (the schemas must match, as for Append).
func Concat(frames ...*Frame) (*Frame, error) {
	out, rows := New(), 0
	for _, f := range frames {
		rows += f.NumRows()
	}
	for _, f := range frames {
		if len(out.cols) == 0 {
			for _, c := range f.cols {
				out.Add(&Column{Name: c.Name, Kind: c.Kind, F: sized(c.F, rows), I: sized(c.I, rows), S: sized(c.S, rows)})
			}
		}
		if err := out.Append(f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sized returns an empty slice with room for n values, nil if like is.
func sized[T any](like []T, n int) []T {
	if like == nil {
		return nil
	}
	return make([]T, 0, n)
}

// Stats summarizes a numeric column.
type Stats struct {
	// N is the value count.
	N int
	// Min and Max bound the values.
	Min, Max float64
	// Mean is the arithmetic mean.
	Mean float64
	// SD is the population standard deviation.
	SD float64
}

// Summary computes Stats over the named numeric column.
func (f *Frame) Summary(name string) (Stats, error) {
	c := f.Col(name)
	if c == nil {
		return Stats{}, fmt.Errorf("rframe: no column %q", name)
	}
	n := c.Len()
	if n == 0 {
		return Stats{}, nil
	}
	st := Stats{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := c.Float64At(i)
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
		sumsq += v * v
	}
	st.Mean = sum / float64(n)
	st.SD = math.Sqrt(sumsq/float64(n) - st.Mean*st.Mean)
	return st, nil
}

// FromArray3D converts one 3-D float32 slab into a tidy frame: one row per
// cell with integer coordinate columns (global coordinates = origin +
// local index) and a float value column. This is SciDP's array-to-R
// conversion; the coordinate columns are what the paper's SQL analyses
// group and join on.
func FromArray3D(dimNames [3]string, origin [3]int, shape [3]int, vals []float32, valueName string) (*Frame, error) {
	n := shape[0] * shape[1] * shape[2]
	if len(vals) != n {
		return nil, fmt.Errorf("rframe: %d values for shape %v", len(vals), shape)
	}
	d0 := make([]int64, n)
	d1 := make([]int64, n)
	d2 := make([]int64, n)
	v := make([]float64, n)
	i := 0
	for a := 0; a < shape[0]; a++ {
		for b := 0; b < shape[1]; b++ {
			for c := 0; c < shape[2]; c++ {
				d0[i] = int64(origin[0] + a)
				d1[i] = int64(origin[1] + b)
				d2[i] = int64(origin[2] + c)
				v[i] = float64(vals[i])
				i++
			}
		}
	}
	f := New()
	if err := f.AddInt(dimNames[0], d0); err != nil {
		return nil, err
	}
	if err := f.AddInt(dimNames[1], d1); err != nil {
		return nil, err
	}
	if err := f.AddInt(dimNames[2], d2); err != nil {
		return nil, err
	}
	if err := f.AddFloat(valueName, v); err != nil {
		return nil, err
	}
	return f, nil
}

// WriteCSV renders the frame as a header line plus comma-separated rows,
// appended into one buffer.
func (f *Frame) WriteCSV() []byte {
	rows := f.NumRows()
	// 12 bytes a cell fit small integers and a float to a row; append grows.
	buf := make([]byte, 0, (rows+1)*len(f.cols)*12)
	for i, c := range f.cols {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, c.Name...)
	}
	buf = append(buf, '\n')
	for r := 0; r < rows; r++ {
		for i, c := range f.cols {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = c.AppendAt(buf, r)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// ReadTable parses CSV text with a header row, inferring each column as
// Int, Float, or String — the read.table path whose sequential parse
// dominates the text-based baselines in the paper's Figure 7.
func ReadTable(text []byte) (*Frame, error) {
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil, fmt.Errorf("rframe: empty table")
	}
	names := strings.Split(lines[0], ",")
	ncol := len(names)
	raw := make([][]string, ncol)
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != ncol {
			return nil, fmt.Errorf("rframe: row has %d fields, header has %d", len(fields), ncol)
		}
		for i, v := range fields {
			raw[i] = append(raw[i], v)
		}
	}
	f := New()
	for i, name := range names {
		col := inferColumn(strings.TrimSpace(name), raw[i])
		if err := f.Add(col); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// inferColumn type-infers a raw string vector: all-int, else all-float,
// else string.
func inferColumn(name string, vals []string) *Column {
	isInt, isFloat := true, true
	for _, v := range vals {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			isFloat = false
		}
		if !isInt && !isFloat {
			break
		}
	}
	switch {
	case isInt:
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i], _ = strconv.ParseInt(v, 10, 64)
		}
		return &Column{Name: name, Kind: Int, I: out}
	case isFloat:
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i], _ = strconv.ParseFloat(v, 64)
		}
		return &Column{Name: name, Kind: Float, F: out}
	default:
		return &Column{Name: name, Kind: String, S: vals}
	}
}
