package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c"); again != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 || g.Max() != 7 {
		t.Errorf("gauge = %d max %d, want 4 max 7", g.Value(), g.Max())
	}
	g.Inc()
	g.Dec()
	if g.Value() != 4 {
		t.Errorf("inc/dec: gauge = %d, want 4", g.Value())
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounter()
	g := NewGauge()
	h := NewHistogram(10, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(j % 200))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 || g.Max() != 8000 {
		t.Errorf("gauge = %d max %d, want 8000/8000", g.Value(), g.Max())
	}
	if s := h.Snapshot(); s.Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Count)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []int64{0, 1, 2, 50, 99, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 || s.Max != 5000 {
		t.Fatalf("count=%d max=%d, want 8/5000", s.Count, s.Max)
	}
	// Buckets: <=1: {0,1}; <=10: {2}; <=100: {50,99,100}; +Inf: {101,5000}.
	want := []int64{2, 1, 3, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	// p50: rank 4 of 8 lands one observation into the (10,100] bucket of
	// three, so interpolation reports 10 + (1/3)·90 = 40.
	if q := s.Quantile(0.5); q != 40 {
		t.Errorf("p50 = %d, want 40", q)
	}
	if q := s.Quantile(1.0); q != 5000 {
		t.Errorf("p100 = %d, want 5000 (overflow max)", q)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-increasing bounds")
		}
	}()
	NewHistogram(5, 5)
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z", 1, 2).Observe(9)
	r.StartSpan("phase").End()
	r.Emit("ev", Str("a", "b"), Int("n", 1))
	r.AttachEvents(nil)
	if err := r.WriteSummary(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if r.Spans() != nil || r.Counter("x").Value() != 0 {
		t.Error("nil registry leaked state")
	}
}

func TestSpans(t *testing.T) {
	r := New()
	s := r.StartSpan("alpha")
	time.Sleep(time.Millisecond)
	if d := s.End(); d <= 0 {
		t.Errorf("span duration = %v, want > 0", d)
	}
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Name != "alpha" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestEventLogJSONL(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	r.AttachEvents(l)
	r.Emit("phase.enter", Int("proc", 3), Str("name", "solo"))
	r.Emit("quote\"and\\slash", Str("text", "line\nbreak\ttab\x01ctl"))
	r.StartSpan("sp").End()
	if l.Count() != 3 {
		t.Fatalf("event count = %d, want 3", l.Count())
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	// Every line must be one valid JSON object with ts and event.
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, m["ts"].(string)); err != nil {
			t.Errorf("line %d bad ts: %v", i, err)
		}
		if m["event"] == "" {
			t.Errorf("line %d missing event", i)
		}
	}
	var m map[string]any
	json.Unmarshal([]byte(lines[0]), &m)
	if m["proc"] != float64(3) || m["name"] != "solo" {
		t.Errorf("fields not preserved: %v", m)
	}
	json.Unmarshal([]byte(lines[1]), &m)
	if m["text"] != "line\nbreak\ttab\x01ctl" {
		t.Errorf("escaping not round-trippable: %q", m["text"])
	}
	// Detach: further events are dropped.
	r.AttachEvents(nil)
	r.Emit("dropped")
	if l.Count() != 3 {
		t.Errorf("detached sink still received events")
	}
}

func TestWriteSummary(t *testing.T) {
	r := New()
	r.Counter("sched.steps").Add(42)
	r.Gauge("net.in_flight").Set(3)
	r.Histogram("net.delay_us", 10, 100).Observe(50)
	r.Histogram("empty.hist", 1)
	r.StartSpan("pipeline.replay").End()
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"pipeline.replay", "sched.steps", "42", "net.in_flight", "(max 3)", "net.delay_us", "count=1", "(no observations)"} {
		if !strings.Contains(out, w) {
			t.Errorf("summary missing %q:\n%s", w, out)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("sched.steps").Add(7)
	r.Gauge("net.in_flight").Set(2)
	h := r.Histogram("depth", 1, 4)
	h.Observe(0)
	h.Observe(3)
	h.Observe(9)
	r.StartSpan("pipeline.solo").End()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"# TYPE sched_steps counter\nsched_steps 7",
		"# TYPE net_in_flight gauge\nnet_in_flight 2",
		`depth_bucket{le="1"} 1`,
		`depth_bucket{le="4"} 2`,
		`depth_bucket{le="+Inf"} 3`,
		"depth_sum 12",
		"depth_count 3",
		"pipeline_solo_count 1",
		"pipeline_solo_seconds_total",
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("prometheus output missing %q:\n%s", w, out)
		}
	}
}

func TestServeHTTP(t *testing.T) {
	r := New()
	r.Counter("runs").Inc()
	r.Gauge("depth").Set(5)

	for _, tc := range []struct {
		path, want string
	}{
		{"/", "runs"},
		{"/metrics", "# TYPE runs counter"},
		{"/vars", `"runs":1`},
	} {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", tc.path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: missing %q in %q", tc.path, tc.want, rec.Body.String())
		}
	}
	// /vars must be valid JSON.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/vars", nil))
	var m map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if m["depth"] != 5 {
		t.Errorf("/vars depth = %d, want 5", m["depth"])
	}

	var nilReg *Registry
	rec = httptest.NewRecorder()
	nilReg.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 503 {
		t.Errorf("nil registry: status %d, want 503", rec.Code)
	}
}

// assertRecordersAllocateNothing is the testable face of the
// BenchmarkObsOverhead claim: on r, the recorder calls that sit on hot
// paths allocate nothing, and a trace-only span costs nothing on an
// untraced context. StartSpanCtx is left out: on an untraced context it
// records a plain span by design.
func assertRecordersAllocateNothing(t *testing.T, r *Registry) {
	t.Helper()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h", 1, 10)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(9)
		h.Observe(4)
		r.Emit("ev", Int("n", 1), Str("s", "x"))
		sp, _ := r.StartSpanIfTraced(ctx, "cell")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("recorders allocate %v allocs/op, want 0", allocs)
	}
}

// TestDisabledRecordersAllocateNothing: with no registry, the recorder
// calls must not allocate at all.
func TestDisabledRecordersAllocateNothing(t *testing.T) {
	assertRecordersAllocateNothing(t, nil)
}

// TestEnabledEmitWithoutSinkAllocatesNothing covers the common production
// state: registry present (counters live) but no event sink attached.
func TestEnabledEmitWithoutSinkAllocatesNothing(t *testing.T) {
	assertRecordersAllocateNothing(t, New())
}

// TestStreamingRecordersAllocateNothing: with a JSONL sink attached, Emit
// reuses the sink's line buffer once it has grown (AllocsPerRun's warm-up
// call grows it).
func TestStreamingRecordersAllocateNothing(t *testing.T) {
	r := New()
	r.AttachEvents(NewEventLog(io.Discard))
	assertRecordersAllocateNothing(t, r)
}

// TestSpanRecordsAreCapped: a long-lived registry keeps only the last
// maxSpans span records, in end order, while /metrics still counts every
// span and the summary says how many records it dropped.
func TestSpanRecordsAreCapped(t *testing.T) {
	r := New()
	const workers, each = 4, 2_500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.StartSpan("job").End()
			}
		}()
	}
	wg.Wait()
	// Then a full ring's worth in a known order: the ring must hold
	// exactly these, oldest first.
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: "t"})
	for i := 0; i < maxSpans; i++ {
		sp, _ := r.StartSpanCtx(ctx, "tail") // span ids count up from 1
		sp.End()
	}
	spans := r.Spans()
	if len(spans) != maxSpans {
		t.Fatalf("kept %d span records, want the cap %d", len(spans), maxSpans)
	}
	for i, s := range spans {
		if s.Name != "tail" || s.Span != uint64(i+1) {
			t.Fatalf("record %d is %s span %d, want tail span %d", i, s.Name, s.Span, i+1)
		}
	}
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		fmt.Sprintf("\njob_count %d\n", workers*each),
		fmt.Sprintf("\ntail_count %d\n", maxSpans),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, rec.Body.String())
		}
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if want := fmt.Sprintf("(%d earlier spans not kept)", workers*each); !strings.Contains(buf.String(), want) {
		t.Errorf("summary lacks %q:\n%.300s", want, buf.String())
	}
}
