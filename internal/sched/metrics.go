package sched

import (
	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
)

// schedMetrics holds the runtime's metric handles, resolved once at
// construction. A nil *schedMetrics (no Registry configured) makes every
// recorder below a nil-check no-op, keeping the deterministic scheduler's
// hot path allocation-free and throughput-neutral — see
// BenchmarkObsOverhead and BenchmarkSchedObs.
type schedMetrics struct {
	// steps counts every recorded step; kinds breaks them down per
	// StepKind (indexed by the kind value).
	steps *obs.Counter
	kinds [model.KindCrash + 1]*obs.Counter
	// actions counts actions emitted by automaton handlers (they execute
	// later, one per scheduler step; the delta to steps is queue pressure).
	actions *obs.Counter
	// events counts scheduler events dispatched by the generic runners.
	events *obs.Counter
	// crashes counts injected crashes.
	crashes *obs.Counter
	// inFlight tracks the in-flight point-to-point message set (the
	// adversary's `sent` set); its Max is the network watermark.
	inFlight *obs.Gauge
	// pendingDepth samples the action-queue depth at each ExecNext.
	pendingDepth *obs.Histogram
}

func newSchedMetrics(reg *obs.Registry) *schedMetrics {
	if reg == nil {
		return nil
	}
	m := &schedMetrics{
		steps:        reg.Counter("sched.steps"),
		actions:      reg.Counter("sched.actions_emitted"),
		events:       reg.Counter("sched.events_dispatched"),
		crashes:      reg.Counter("sched.crashes"),
		inFlight:     reg.Gauge("sched.in_flight"),
		pendingDepth: reg.Histogram("sched.pending_depth", obs.DefaultDepthBuckets...),
	}
	for k := model.KindSend; k <= model.KindCrash; k++ {
		m.kinds[k] = reg.Counter("sched.steps." + k.String())
	}
	return m
}

// record counts one recorded step of kind k.
func (m *schedMetrics) record(k model.StepKind) {
	if m == nil {
		return
	}
	m.steps.Inc()
	if k > 0 && int(k) < len(m.kinds) {
		m.kinds[k].Inc()
	}
}

// emitted counts actions queued by a handler call.
func (m *schedMetrics) emitted(n int) {
	if m == nil {
		return
	}
	m.actions.Add(int64(n))
}

// dispatched counts scheduler events executed by a generic runner.
func (m *schedMetrics) dispatched(n int) {
	if m == nil {
		return
	}
	m.events.Add(int64(n))
}

// crashed counts one injected crash.
func (m *schedMetrics) crashed() {
	if m == nil {
		return
	}
	m.crashes.Inc()
}

// network tracks the in-flight message count.
func (m *schedMetrics) network(n int) {
	if m == nil {
		return
	}
	m.inFlight.Set(int64(n))
}

// depth samples an action-queue depth.
func (m *schedMetrics) depth(n int) {
	if m == nil {
		return
	}
	m.pendingDepth.Observe(int64(n))
}
