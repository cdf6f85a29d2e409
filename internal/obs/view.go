package obs

// Read-side views of a registry: immutable snapshots of the span buffer
// and the metric series, for post-run consumers (the analysis engine in
// obs/analyze, report generators, tests). Exporters keep their private
// fast paths; these views trade a copy for a stable, exported shape.

// SpanArg is one span annotation as recorded by Span.Arg.
type SpanArg struct {
	// Key is the annotation name.
	Key string
	// Value is the recorded value (a string or a number).
	Value any
}

// SpanInfo is one span's immutable view.
type SpanInfo struct {
	// ID is the registry-unique span id; Parent is the parent's id (0
	// for roots).
	ID, Parent uint64
	// Name and Cat are the span's name and category.
	Name, Cat string
	// Process and Track locate the span on the (pid, tid) grid.
	Process, Track string
	// Start and End are virtual times. For a span still open End is the
	// start time; check Open.
	Start, End float64
	// Open reports the span had not ended when the view was taken.
	Open bool
	// Args are the recorded annotations, in Arg call order.
	Args []SpanArg
}

// Arg returns the first annotation recorded under key, or (nil, false).
func (s *SpanInfo) Arg(key string) (any, bool) {
	for _, a := range s.Args {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// ArgFloat returns a numeric annotation as float64 (ok=false when absent
// or not a number).
func (s *SpanInfo) ArgFloat(key string) (float64, bool) {
	v, ok := s.Arg(key)
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	}
	return 0, false
}

// ArgBool reports whether key was recorded with a true value.
func (s *SpanInfo) ArgBool(key string) bool {
	v, ok := s.Arg(key)
	if !ok {
		return false
	}
	b, ok := v.(bool)
	return ok && b
}

// ArgString returns a string annotation ("" when absent or non-string).
func (s *SpanInfo) ArgString(key string) string {
	v, ok := s.Arg(key)
	if !ok {
		return ""
	}
	str, _ := v.(string)
	return str
}

// Spans snapshots the buffered spans in creation (id) order. The copy is
// independent of the registry; args share backing arrays but are never
// mutated after recording.
func (r *Registry) Spans() []SpanInfo {
	if r == nil {
		return nil
	}
	out := make([]SpanInfo, len(r.spans))
	for i, s := range r.spans {
		out[i] = SpanInfo{
			ID: s.id, Parent: s.parent,
			Name: s.name, Cat: s.cat,
			Process: s.process, Track: s.track,
			Start: s.start, End: s.end, Open: s.open,
		}
		if len(s.args) > 0 {
			args := make([]SpanArg, len(s.args))
			for j, a := range s.args {
				args[j] = SpanArg{Key: a.k, Value: a.v}
			}
			out[i].Args = args
		}
	}
	return out
}

// SeriesInfo is one metric series' immutable view.
type SeriesInfo struct {
	// Name is the registry name ("sim/resource_busy_seconds").
	Name string
	// Labels is the canonical (key-sorted) label set.
	Labels []Label
	// Kind is "counter", "gauge", or "histogram".
	Kind string
	// Value is the counter total or current gauge value (histograms: 0).
	Value float64
	// Samples is the gauge's retained timeline (nil for other kinds).
	Samples []Sample
	// Sum and Count are the histogram's running sum and observation
	// count (zero for other kinds).
	Sum float64
	// Count is the histogram observation count.
	Count uint64
}

// Label returns the value recorded under the given label key ("" when
// absent).
func (s *SeriesInfo) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Snapshot runs the collectors and returns every registered series in
// canonical key order — the same order and values the exporters render.
func (r *Registry) Snapshot() []SeriesInfo {
	if r == nil {
		return nil
	}
	r.runCollectors()
	series := r.sortedSeries()
	out := make([]SeriesInfo, 0, len(series))
	for _, s := range series {
		si := SeriesInfo{Name: s.name, Labels: s.labels, Kind: s.kind.String()}
		switch s.kind {
		case kindCounter:
			si.Value = s.c.Value()
		case kindGauge:
			si.Value = s.g.Value()
			si.Samples = s.g.Samples()
		case kindHistogram:
			si.Sum = s.h.Sum()
			si.Count = s.h.Count()
		}
		out = append(out, si)
	}
	return out
}
