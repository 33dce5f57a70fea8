package sched

import (
	"fmt"

	"nobroadcast/internal/model"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// This file provides the unified strategy-driven run loop on top of the
// event primitives: crash injection, enabled-event enumeration, and
// fail-fast live checking are shared, while the pick itself is delegated
// to a Strategy (strategy.go). RunFair and RunRandom are thin wrappers
// preserving the historical entry points and their exact schedules. The
// paper's adversarial scheduler lives in internal/adversary.

// RunOptions configures a scheduler run.
type RunOptions struct {
	// Seed drives seeded strategies (random, pct). Ignored by fair.
	Seed uint64
	// MaxEvents bounds the run; zero selects the default (100000).
	// Exceeding the bound returns an incomplete trace, not an error: the
	// run is a valid execution prefix.
	MaxEvents int
	// CrashAt injects crashes: after the event with the given ordinal has
	// executed, the listed process crashes. Crashing an already-crashed
	// process is ignored. Strategies implementing CrashPointer can defer
	// a due injection to their next crash point (fair defers to slot
	// boundaries).
	CrashAt map[int]model.ProcID
	// Broadcasts feeds upper-layer B.broadcast invocations: each entry
	// (proc, payload) is invoked, in per-process order, as soon as the
	// process's previous invocation has returned (well-formedness
	// requires alternating invocations and responses). Runs driven by an
	// App usually leave this empty.
	Broadcasts []BroadcastReq
}

// BroadcastReq is an upper-layer broadcast request.
type BroadcastReq struct {
	Proc    model.ProcID
	Payload model.Payload
}

// LiveViolationError is returned by Run (and the RunFair/RunRandom
// wrappers) when a live spec checker rejects a recorded step: the run
// stops at the violating step instead of executing to the event bound.
// Trace holds the recorded prefix truncated to end at the violating
// step, with Complete left false — the run was cut short, so liveness
// verdicts over it are vacuous by design.
type LiveViolationError struct {
	V       *spec.Violation
	StepIdx int
	Trace   *trace.Trace
}

// Error implements error.
func (e *LiveViolationError) Error() string {
	return fmt.Sprintf("sched: live spec violation at step %d: %v", e.StepIdx, e.V)
}

// liveError wraps the latched live violation, nil when none. The trace
// is truncated to the violating step: a handler dispatch records several
// steps at once, so the raw execution may extend past the step the
// checker latched, and downstream consumers must not mistake the cut
// run for a longer (or complete) one.
func (r *Runtime) liveError() error {
	v, idx := r.LiveViolation()
	if v == nil {
		return nil
	}
	x := r.Execution()
	steps := x.Steps
	if n := idx + 1; n >= 0 && n <= len(steps) {
		steps = steps[:n:n]
	}
	trunc := &model.Execution{N: x.N, Steps: steps}
	return &LiveViolationError{V: v, StepIdx: idx, Trace: &trace.Trace{X: trunc}}
}

func (o RunOptions) maxEvents() int {
	if o.MaxEvents <= 0 {
		return 100000
	}
	return o.MaxEvents
}

// runState carries the per-run scheduling state.
type runState struct {
	// queues holds not-yet-invoked upper-layer broadcasts per process.
	queues map[model.ProcID][]model.Payload
}

func newRunState(opts RunOptions) *runState {
	st := &runState{queues: make(map[model.ProcID][]model.Payload)}
	for _, b := range opts.Broadcasts {
		st.queues[b.Proc] = append(st.queues[b.Proc], b.Payload)
	}
	return st
}

// canInvoke reports whether process p may take its next upper-layer
// broadcast invocation: alive, not blocked mid-proposition, and no open
// invocation.
func (r *Runtime) canInvoke(st *runState, p model.ProcID) bool {
	ps, err := r.proc(p)
	if err != nil {
		return false
	}
	return len(st.queues[p]) > 0 && !ps.crashed && ps.decision == nil && ps.openBroadcast == model.NoMsg
}

// enabledEvents lists the currently enabled events in a deterministic
// order. The returned slice is backed by a per-runtime scratch buffer
// reused across steps (enumeration runs once per scheduled event and
// dominated allocations in long explorations); callers — strategies
// included — must not retain it past the step.
func (r *Runtime) enabledEvents(st *runState) []Event {
	out := r.evScratch[:0]
	for _, ps := range r.procs {
		if ps.crashed {
			continue
		}
		if ps.decision != nil {
			out = append(out, Event{Kind: EventDecide, Proc: ps.id})
		} else if ps.queued() > 0 {
			out = append(out, Event{Kind: EventExec, Proc: ps.id})
		}
		if r.canInvoke(st, ps.id) {
			out = append(out, Event{Kind: EventInvoke, Proc: ps.id})
		}
	}
	for i, f := range r.network {
		if to, err := r.proc(f.to); err == nil && !to.crashed {
			out = append(out, Event{Kind: EventReceive, Proc: f.to, Net: i, Msg: f.inst, From: f.from})
		}
	}
	r.evScratch = out
	return out
}

func (r *Runtime) execEvent(st *runState, e Event) error {
	switch e.Kind {
	case EventExec:
		_, ok, err := r.ExecNext(e.Proc)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("sched: exec event on %v not enabled", e.Proc)
		}
		return nil
	case EventDecide:
		_, err := r.FireDecide(e.Proc)
		return err
	case EventReceive:
		_, err := r.ReceiveIndex(e.Net)
		return err
	case EventInvoke:
		q := st.queues[e.Proc]
		if len(q) == 0 {
			return fmt.Errorf("sched: no queued broadcast for %v", e.Proc)
		}
		st.queues[e.Proc] = q[1:]
		_, err := r.InvokeBroadcast(e.Proc, q[0])
		return err
	default:
		return fmt.Errorf("sched: unknown event kind %d", e.Kind)
	}
}

// quiescentWith reports quiescence including the run's pending
// upper-layer broadcasts on live processes.
func (r *Runtime) quiescentWith(st *runState) bool {
	if !r.Quiescent() {
		return false
	}
	for p, q := range st.queues {
		if len(q) == 0 {
			continue
		}
		if ps, err := r.proc(p); err == nil && !ps.crashed {
			return false
		}
	}
	return true
}

// Run drives the runtime under the given strategy until quiescence, the
// event bound, a strategy-requested stop, or a live spec violation
// (returned as *LiveViolationError). Each step the loop applies due
// crash injections (at the strategy's crash points, see CrashPointer),
// enumerates the enabled events, and executes the strategy's pick. It
// returns the recorded trace, with Complete set iff the run reached
// quiescence. Equal (strategy, options) pairs produce bit-identical
// traces — see the Strategy determinism contract.
func (r *Runtime) Run(s Strategy, opts RunOptions) (*trace.Trace, error) {
	st := newRunState(opts)
	s.Begin(r, opts)
	cp, gated := s.(CrashPointer)
	crashes := newCrashSchedule(opts.CrashAt)
	count := 0
	for count < opts.maxEvents() {
		if crashes.pending() && (!gated || cp.AtCrashPoint()) {
			if err := crashes.apply(r, count); err != nil {
				return nil, err
			}
		}
		enabled := r.enabledEvents(st)
		if len(enabled) == 0 {
			break
		}
		pick := s.Next(enabled, count)
		if pick == StopRun {
			break
		}
		if pick < 0 || pick >= len(enabled) {
			return nil, fmt.Errorf("sched: strategy %s picked %d of %d enabled events", s.Name(), pick, len(enabled))
		}
		if err := r.execEvent(st, enabled[pick]); err != nil {
			return nil, err
		}
		count++
		if err := r.liveError(); err != nil {
			r.met.dispatched(count)
			return nil, err
		}
	}
	r.met.dispatched(count)
	return &trace.Trace{X: r.Execution(), Complete: r.quiescentWith(st)}, nil
}

// RunRandom drives the runtime with a uniformly random (seeded,
// deterministic) choice among enabled events until quiescence or the event
// bound. Equivalent to Run(NewRandom(), opts).
func (r *Runtime) RunRandom(opts RunOptions) (*trace.Trace, error) {
	return r.Run(NewRandom(), opts)
}

// RunFair drives the runtime with the deterministic fair schedule (see
// NewFair). Equivalent to Run(NewFair(), opts).
func (r *Runtime) RunFair(opts RunOptions) (*trace.Trace, error) {
	return r.Run(NewFair(), opts)
}
