package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of metrics, spans, and an optional event
// sink. Get-or-create accessors (Counter, Gauge, Histogram) are intended
// for setup time — instrumented layers resolve their handles once, at
// construction, and hold the returned pointers for the hot path.
//
// All methods are safe on a nil *Registry: accessors return nil handles
// (themselves no-op recorders), StartSpan returns a no-op span, and Emit
// returns immediately. A nil Registry is therefore the disabled state.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	order    []metricEntry
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu     sync.Mutex
	spans      []SpanRecord         // the last maxSpans ended spans, a ring once full
	spanEnded  int64                // spans ended so far
	spanTotals map[string]spanTotal // count and duration of every ended span, per name

	// spanSeq allocates span ids for trace-linked spans (StartSpanCtx).
	// Ids are unique per registry and never reused, so a JSONL consumer
	// can key a span tree by (trace, span).
	spanSeq atomic.Uint64

	events atomic.Pointer[EventLog]
}

type metricEntry struct {
	kind byte // 'c', 'g', 'h'
	name string
}

// maxSpans bounds the span records a registry keeps. A long-lived
// registry (the daemon's) ends spans without limit; past the cap the
// oldest records are dropped, while spanTotals still counts every span.
const maxSpans = 4096

type spanTotal struct {
	name  string
	count int64
	total time.Duration
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		start:      time.Now(),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		spanTotals: make(map[string]spanTotal),
	}
}

// Counter returns the named counter, creating it on first use. Nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
		r.order = append(r.order, metricEntry{kind: 'c', name: name})
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge()
		r.gauges[name] = g
		r.order = append(r.order, metricEntry{kind: 'g', name: name})
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore the bounds).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
		r.order = append(r.order, metricEntry{kind: 'h', name: name})
	}
	return h
}

// SpanRecord is one completed span. Trace, Span, and Parent are set
// only for spans opened through StartSpanCtx under a traced context
// (Trace empty otherwise); Parent 0 marks a trace's root span.
type SpanRecord struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	Trace    string
	Span     uint64
	Parent   uint64
}

// Span times one phase of a run. End records it on the registry (and emits
// a "span" event when an event sink is attached). A nil *Span is a no-op,
// so callers may unconditionally defer End.
type Span struct {
	r     *Registry
	name  string
	start time.Time

	// trace linkage, set by StartSpanCtx on traced contexts.
	trace  string
	span   uint64
	parent uint64
}

// StartSpan opens a named span. Nil (a no-op span) on a nil registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, start: time.Now()}
}

// End closes the span and returns its duration (0 on nil). Trace-linked
// spans carry their trace/span/parent ids into both the SpanRecord and
// the emitted "span" event (the parent field is omitted on roots).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	rec := SpanRecord{
		Name: s.name, Start: s.start, Duration: d,
		Trace: s.trace, Span: s.span, Parent: s.parent,
	}
	r := s.r
	r.spanMu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, rec)
	} else {
		r.spans[r.spanEnded%maxSpans] = rec
	}
	r.spanEnded++
	t := r.spanTotals[s.name]
	r.spanTotals[s.name] = spanTotal{name: s.name, count: t.count + 1, total: t.total + d}
	r.spanMu.Unlock()
	switch {
	case s.trace == "":
		s.r.Emit("span", Str("name", s.name), Int("dur_us", d.Microseconds()))
	case s.parent == 0:
		s.r.Emit("span", Str("name", s.name), Int("dur_us", d.Microseconds()),
			Str("trace", s.trace), Int("span", int64(s.span)))
	default:
		s.r.Emit("span", Str("name", s.name), Int("dur_us", d.Microseconds()),
			Str("trace", s.trace), Int("span", int64(s.span)), Int("parent", int64(s.parent)))
	}
	return d
}

// Spans returns the most recent completed spans, at most maxSpans of
// them, in end order.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	spans, _ := r.recentSpans()
	return spans
}

// recentSpans copies the kept span records in end order and counts the
// older ones the ring has dropped.
func (r *Registry) recentSpans() (spans []SpanRecord, dropped int64) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	// Until the ring fills, spanEnded == len(r.spans) and this splits at
	// the end; after, the oldest record sits at spanEnded % maxSpans.
	oldest := int(r.spanEnded % maxSpans)
	spans = make([]SpanRecord, 0, len(r.spans))
	spans = append(spans, r.spans[oldest:]...)
	spans = append(spans, r.spans[:oldest]...)
	return spans, r.spanEnded - int64(len(r.spans))
}

// spanTotalsByName copies the per-name totals of every ended span,
// sorted by name.
func (r *Registry) spanTotalsByName() []spanTotal {
	r.spanMu.Lock()
	out := make([]spanTotal, 0, len(r.spanTotals))
	for _, t := range r.spanTotals {
		out = append(out, t)
	}
	r.spanMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// snapshot views for the sinks.

type counterView struct {
	name string
	val  int64
}

type gaugeView struct {
	name     string
	val, max int64
}

type histView struct {
	name string
	snap HistogramSnapshot
}

// views copies the registered metrics in registration order.
func (r *Registry) views() (cs []counterView, gs []gaugeView, hs []histView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.order {
		switch e.kind {
		case 'c':
			cs = append(cs, counterView{name: e.name, val: r.counters[e.name].Value()})
		case 'g':
			g := r.gauges[e.name]
			gs = append(gs, gaugeView{name: e.name, val: g.Value(), max: g.Max()})
		case 'h':
			hs = append(hs, histView{name: e.name, snap: r.hists[e.name].Snapshot()})
		}
	}
	return cs, gs, hs
}
