package net

import (
	"sync"

	"nobroadcast/internal/model"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// recorder captures the broadcast-interface steps of a concurrent run into
// an Execution, so the same specification checkers that judge the
// deterministic runtime's traces can judge this runtime's. Node goroutines
// append under a mutex; the resulting order is a real-time linearization
// (an invocation is always recorded before any delivery it causes), which
// is exactly the positional "previously" the safety specs rely on.
//
// With live specs configured, each recorded step is additionally fed —
// still under the mutex, so the checkers see the same linearization that
// is (or would be) recorded — to a spec.Monitor of incremental checkers.
// In streaming mode (live specs without Config.RecordTrace) x stays nil:
// the run is checked with only checker state resident, no step log.
//
// Only the events the specifications inspect are recorded: B-invocations,
// B-returns, B-deliveries, k-SA propositions and decisions, and crashes.
// Point-to-point sends and receives are not (the channel-level specs are
// the deterministic runtime's domain).
type recorder struct {
	mu sync.Mutex
	// buf holds the kept step log in chunked blocks — node goroutines
	// append under the mutex, and chunked growth keeps the critical
	// section free of realloc-and-copy pauses on long runs. keep is false
	// in streaming-only mode (no step log retained).
	buf  model.StepBuffer
	keep bool
	n    int
	mon  *spec.Monitor // nil without live specs; latches the first violation
}

func newRecorder(n int, keep bool, specs []spec.Spec) *recorder {
	r := &recorder{keep: keep, n: n}
	if len(specs) > 0 {
		r.mon = spec.NewMonitor(n, specs...)
	}
	return r
}

// record appends one step and feeds the live checkers; a nil recorder is
// a no-op, so call sites stay unconditional.
func (r *recorder) record(s model.Step) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.keep {
		r.buf.Append(s)
	}
	if r.mon != nil {
		r.mon.Feed(s)
	}
	r.mu.Unlock()
}

// Trace returns a snapshot of the recorded execution, or nil when the
// network was built without Config.RecordTrace. Complete is left false:
// the network cannot know a run quiesced; callers that do (the conformance
// harness, after every delivery arrived) set it before checking liveness.
func (nw *Network) Trace() *trace.Trace {
	if nw.rec == nil || !nw.rec.keep {
		return nil
	}
	nw.rec.mu.Lock()
	defer nw.rec.mu.Unlock()
	return &trace.Trace{X: &model.Execution{N: nw.rec.n, Steps: nw.rec.buf.Steps()}}
}

// LiveViolation returns the first violation latched by the live checkers
// and the index of the step (in recorder order) that caused it; nil, -1
// when none, or when no live specs are configured. A violation latched by
// FinishLive has index -1.
func (nw *Network) LiveViolation() (*spec.Violation, int) {
	if nw.rec == nil || nw.rec.mon == nil {
		return nil, -1
	}
	nw.rec.mu.Lock()
	defer nw.rec.mu.Unlock()
	return nw.rec.mon.Violation()
}

// FinishLive evaluates the live checkers' end-of-trace (liveness) clauses
// and returns every monitored spec's latched verdict; complete reports
// whether the run quiesced (the recorder cannot know — the caller does).
// Nil without live specs. Idempotent; typically called after Stop.
func (nw *Network) FinishLive(complete bool) []spec.SpecVerdict {
	if nw.rec == nil || nw.rec.mon == nil {
		return nil
	}
	nw.rec.mu.Lock()
	defer nw.rec.mu.Unlock()
	nw.rec.mon.Finish(complete)
	return nw.rec.mon.Verdicts()
}

// LiveSteps returns how many steps the live checkers have observed; 0
// without live specs.
func (nw *Network) LiveSteps() int {
	if nw.rec == nil || nw.rec.mon == nil {
		return 0
	}
	nw.rec.mu.Lock()
	defer nw.rec.mu.Unlock()
	return nw.rec.mon.Steps()
}
