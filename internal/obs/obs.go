// Package obs is the unified observability layer: a metrics registry
// (counters, gauges, histograms stamped with virtual time) plus a span
// tracer, both layered on the sim kernel's clock. Producers throughout
// the stack (pfs, hdfs, ioengine, mapreduce, sim) publish into one
// Registry; exporters render it as a Chrome trace-event JSON (chrome.go)
// or a Prometheus-style text dump (prom.go).
//
// # Attachment and zero cost
//
// Every handle type (*Registry, *Counter, *Gauge, *Histogram, *Span) is
// nil-safe: methods on a nil receiver are no-ops that return zero values.
// Producers cache handles once at attach time and call them
// unconditionally on hot paths, so a detached component pays only a
// nil-check (benchmarked in bench_test.go).
//
// # Concurrency and determinism
//
// A Registry is not internally synchronized. It follows the sim kernel's
// determinism contract: all mutation happens from kernel context (event
// callbacks and Proc bodies), which the kernel serializes — exactly one
// process or event callback runs at a time. Exports sort every family,
// series, and span before rendering and never consult wall-clock time,
// so two identical runs produce byte-identical output.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Clock supplies virtual time for samples and spans. *sim.Kernel
// satisfies it; obs deliberately does not import sim so it can sit below
// the kernel in the dependency order.
type Clock interface {
	Now() float64
}

// Label is one metric dimension, e.g. {res, ost-3}.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered metric instance: a name plus a canonical
// (sorted) label set and the kind-specific state.
type series struct {
	kind   metricKind
	name   string // "component/name"
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds every metric series and span for one program run.
// The zero value is unusable; call New.
type Registry struct {
	clock      Clock
	process    string
	metrics    map[string]*series
	collectors []func()

	spans        []*Span
	spanSeq      uint64
	maxSpans     int
	droppedSpans uint64

	gaugeSampleCap int
}

// DefaultGaugeSampleCap bounds the timestamped sample ring kept per
// gauge (the current value is always retained regardless).
const DefaultGaugeSampleCap = 1024

// DefaultMaxSpans bounds the span buffer so a long sweep cannot grow a
// trace without limit; later spans are counted as dropped.
const DefaultMaxSpans = 1 << 19

// New returns an empty registry with default caps and no clock (samples
// and spans are stamped 0 until SetClock).
func New() *Registry {
	r := &Registry{
		metrics:        make(map[string]*series),
		maxSpans:       DefaultMaxSpans,
		gaugeSampleCap: DefaultGaugeSampleCap,
	}
	// The registry's own health is a metric like any other: span-buffer
	// overflow (droppedSpans is otherwise reachable only via Dropped())
	// and the live span count surface in every export instead of
	// failing silently.
	r.AddCollector(func() {
		r.Counter("obs/spans_dropped_total").Set(float64(r.droppedSpans))
		r.Gauge("obs/spans_live").Set(float64(len(r.spans)))
	})
	return r
}

// SetClock attaches the virtual-time source. Re-attach per simulation
// kernel when one registry spans several runs.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	r.clock = c
}

// SetProcess names the logical process (one Chrome-trace pid group) that
// subsequently started spans belong to, e.g. "scidp@96ts".
func (r *Registry) SetProcess(name string) {
	if r == nil {
		return
	}
	r.process = name
}

// AddCollector registers fn to run at the start of every export, in
// registration order. Collectors pull values from external sources
// (e.g. cache stats) into registry metrics; they must be deterministic
// and idempotent.
func (r *Registry) AddCollector(fn func()) {
	if r == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

// Digest hashes the registry's Chrome-trace export, then its Prometheus
// export, into one sha256 hex string: the byte-identical-exports contract
// in one value. Empty for a nil registry.
func (r *Registry) Digest() (string, error) {
	if r == nil {
		return "", nil
	}
	h := sha256.New()
	if err := r.WriteChromeTrace(h); err != nil {
		return "", err
	}
	if err := r.WritePrometheus(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (r *Registry) runCollectors() {
	for _, fn := range r.collectors {
		fn()
	}
}

func (r *Registry) now() float64 {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// seriesKey canonicalizes name+labels; labels are sorted by key so the
// same logical series always resolves to the same handle.
func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String(), ls
}

func (r *Registry) lookup(kind metricKind, name string, labels []Label) *series {
	key, ls := seriesKey(name, labels)
	if s, ok := r.metrics[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: %q registered as %s, requested as %s", key, s.kind, kind))
		}
		return s
	}
	s := &series{kind: kind, name: name, labels: ls}
	r.metrics[key] = s
	return s
}

// Counter returns (registering on first use) the counter series for
// name+labels. Nil registry returns a nil, no-op counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(kindCounter, name, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns (registering on first use) the gauge series for
// name+labels. Nil registry returns a nil, no-op gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(kindGauge, name, labels)
	if s.g == nil {
		s.g = &Gauge{r: r, cap: r.gaugeSampleCap}
	}
	return s.g
}

// Histogram returns (registering on first use) the histogram series for
// name+labels with the given ascending upper-bound buckets (a final
// +Inf bucket is implicit). Buckets are fixed at first registration.
// Nil registry returns a nil, no-op histogram.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(kindHistogram, name, labels)
	if s.h == nil {
		b := make([]float64, len(buckets))
		copy(b, buckets)
		s.h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	}
	return s.h
}

// Counter is a monotonically-growing float64 total.
type Counter struct {
	v float64
}

// Add increases the counter by d. No-op on a nil counter.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the value; intended for collectors that mirror an
// externally-accumulated total into the registry at export time.
func (c *Counter) Set(v float64) {
	if c == nil {
		return
	}
	c.v = v
}

// Value reports the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Sample is one timestamped gauge observation.
type Sample struct {
	At float64 // virtual seconds
	V  float64
}

// Gauge is an instantaneous value; every mutation also records a
// virtual-time-stamped sample into a bounded ring so exporters can
// render the value's timeline (e.g. OST queue depth).
type Gauge struct {
	r       *Registry
	cur     float64
	ring    []Sample
	head, n int
	cap     int
}

// Set stores v as the current value and samples it. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.cur = v
	g.sample(v)
}

// Add shifts the current value by d and samples the result.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.Set(g.cur + d)
}

func (g *Gauge) sample(v float64) {
	s := Sample{At: g.r.now(), V: v}
	if g.cap <= 0 {
		g.ring = append(g.ring, s)
		g.n = len(g.ring)
		return
	}
	if len(g.ring) < g.cap {
		g.ring = append(g.ring, s)
		g.n = len(g.ring)
		return
	}
	g.ring[g.head] = s
	g.head = (g.head + 1) % g.cap
}

// Value reports the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.cur
}

// Samples returns the retained timeline in occurrence order.
func (g *Gauge) Samples() []Sample {
	if g == nil || len(g.ring) == 0 {
		return nil
	}
	out := make([]Sample, 0, len(g.ring))
	if g.head == 0 {
		return append(out, g.ring[:g.n]...)
	}
	for i := 0; i < len(g.ring); i++ {
		out = append(out, g.ring[(g.head+i)%len(g.ring)])
	}
	return out
}

// NewHistogram returns a standalone histogram with the given ascending
// upper bounds (+Inf implicit) — not registered in any Registry, for
// callers that need the distribution math (e.g. the speculation monitor)
// without exporting a series.
func NewHistogram(buckets []float64) *Histogram {
	b := make([]float64, len(buckets))
	copy(b, buckets)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Histogram counts observations into fixed upper-bound buckets and
// tracks sum/count, Prometheus-style.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
}

// Observe records v. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count reports total observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the running sum (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution from the bucket counts: it finds the bucket holding the
// q-th observation and returns that bucket's upper bound (the previous
// bound for the +Inf bucket, since it has no upper edge). A conservative
// over-estimate by design — the speculative-execution trigger wants "this
// task is slower than the qth-fastest bucket", not an interpolated
// midpoint. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			// +Inf bucket: fall back to the largest finite bound.
			if len(h.bounds) > 0 {
				return h.bounds[len(h.bounds)-1]
			}
			return h.sum / float64(h.count)
		}
	}
	return 0
}

// ExpBuckets returns n upper bounds start, start*factor, ... — the usual
// shape for duration and size histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// sortedSeries returns every registered series ordered by canonical key,
// the iteration order both exporters use.
func (r *Registry) sortedSeries() []*series {
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = r.metrics[k]
	}
	return out
}
