package obs

import (
	"slices"
	"strings"
)

// Span is one timed region on the virtual clock: a job, phase, task,
// reader call, or kernel flow. Spans form an explicit tree via parent
// IDs and are placed on a (process, track) grid that maps 1:1 onto
// Chrome-trace (pid, tid) rows.
//
// Like every obs handle, a nil *Span is a valid no-op receiver, so
// producers can thread spans unconditionally.
type Span struct {
	r      *Registry
	id     uint64
	parent uint64

	name    string
	cat     string
	process string
	track   string

	start float64
	end   float64
	open  bool

	args []spanArg
}

type spanArg struct {
	k string
	v any
}

// StartSpan opens a span at the current virtual time under parent (nil
// for a root). The span inherits the parent's process and track unless
// overridden with SetTrack; roots default to the registry's process and
// track "main". Returns nil on a nil registry or when the span buffer
// is full (the drop is counted and surfaced at export).
func (r *Registry) StartSpan(name, cat string, parent *Span) *Span {
	if r == nil {
		return nil
	}
	if r.maxSpans > 0 && len(r.spans) >= r.maxSpans {
		r.droppedSpans++
		return nil
	}
	r.spanSeq++
	s := &Span{
		r:       r,
		id:      r.spanSeq,
		name:    name,
		cat:     cat,
		process: r.process,
		track:   "main",
		start:   r.now(),
		open:    true,
	}
	if parent != nil {
		s.parent = parent.id
		s.process = parent.process
		s.track = parent.track
	}
	r.spans = append(r.spans, s)
	return s
}

// SetTrack moves the span onto the named track (one Chrome-trace thread
// row), e.g. a simulated node or worker slot.
func (s *Span) SetTrack(track string) {
	if s == nil {
		return
	}
	s.track = track
}

// Arg attaches a key/value annotation rendered into the Chrome trace's
// args object. Values must be JSON-encodable (strings and numbers).
func (s *Span) Arg(key string, v any) {
	if s == nil {
		return
	}
	s.args = append(s.args, spanArg{k: key, v: v})
}

// End closes the span at the current virtual time. Ending twice keeps
// the first end time.
func (s *Span) End() {
	if s == nil || !s.open {
		return
	}
	s.end = s.r.now()
	s.open = false
}

// Dropped reports how many spans were discarded because the buffer hit
// MaxSpans.
func (r *Registry) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.droppedSpans
}

// SpanCount reports how many spans are buffered.
func (r *Registry) SpanCount() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// SpanStat aggregates the closed spans sharing a name.
type SpanStat struct {
	// Name is the span name.
	Name string
	// Count is how many closed spans carry it.
	Count int
	// Seconds is their summed virtual duration.
	Seconds float64
}

// SpanRollup sums the closed spans by name, sorted by name — the
// per-phase table a verbose CLI prints. Open spans are skipped.
func (r *Registry) SpanRollup() []SpanStat {
	if r == nil {
		return nil
	}
	byName := map[string]*SpanStat{}
	for _, s := range r.spans {
		if s.open {
			continue
		}
		st, ok := byName[s.name]
		if !ok {
			st = &SpanStat{Name: s.name}
			byName[s.name] = st
		}
		st.Count++
		st.Seconds += s.end - s.start
	}
	out := make([]SpanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b SpanStat) int { return strings.Compare(a.Name, b.Name) })
	return out
}
