package sched

import (
	"fmt"
	"slices"

	"nobroadcast/internal/model"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// This file provides the unified strategy-driven run loop on top of the
// event primitives: crash injection, the view of the enabled events, and
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

// queueBroadcasts replaces every process's queue of upper-layer
// broadcasts with the run's RunOptions.Broadcasts. A request naming no
// process of the system is never enabled, so it is not queued.
func (r *Runtime) queueBroadcasts(reqs []BroadcastReq) {
	for _, ps := range r.procs {
		ps.invokes = ps.invokes[:0]
	}
	for _, b := range reqs {
		if ps, err := r.proc(b.Proc); err == nil {
			ps.invokes = append(ps.invokes, b.Payload)
		}
	}
}

// Enabled is the set of events enabled at one step of a run, as the run
// loop shows it to Strategy.Next. Its order is fixed: for each live
// process by id, its decide or exec event, then its invoke event; then
// one receive event per in-flight message addressed to a live process,
// in send order. A view is valid only during the Next call it is passed
// to: the next step changes what it shows.
type Enabled struct {
	rt *Runtime
	// procs holds the process events, rebuilt before every decision (at
	// most two per process). The receive events are read off the
	// runtime's in-flight list.
	procs []procEvent
	// live lists the in-flight positions of the deliverable messages,
	// when filtered. Until a message can be undeliverable (see
	// Runtime.stranded) every in-flight message is deliverable, and
	// receive event j is the message at position j.
	live     []int
	filtered bool
}

// procEvent is an enabled exec, decide or invoke event.
type procEvent struct {
	kind EventKind
	proc model.ProcID
}

// Len returns the number of enabled events.
func (v *Enabled) Len() int {
	if v.filtered {
		return len(v.procs) + len(v.live)
	}
	return len(v.procs) + len(v.rt.network)
}

// At returns enabled event i. It panics when i is out of [0, Len()),
// matching slice indexing.
func (v *Enabled) At(i int) Event {
	if i < len(v.procs) {
		return Event{Kind: v.procs[i].kind, Proc: v.procs[i].proc}
	}
	j := i - len(v.procs)
	if v.filtered {
		j = v.live[j]
	}
	f := &v.rt.network[j]
	return Event{Kind: EventReceive, Proc: f.to, Net: j, Msg: f.inst, From: f.from}
}

// find returns the index of the process event of the given kind by p,
// or -1.
func (v *Enabled) find(kind EventKind, p model.ProcID) int {
	for i, e := range v.procs {
		if e.kind == kind && e.proc == p {
			return i
		}
	}
	return -1
}

// receive returns the index of the receive event of in-flight position
// net, or -1 when that message is not deliverable.
func (v *Enabled) receive(net int) int {
	if !v.filtered {
		if net >= 0 && net < len(v.rt.network) {
			return len(v.procs) + net
		}
		return -1
	}
	if i, ok := slices.BinarySearch(v.live, net); ok {
		return len(v.procs) + i
	}
	return -1
}

// enabled refreshes the runtime's view of the enabled events for the
// next decision.
func (r *Runtime) enabled() *Enabled {
	v := &r.view
	procs := v.procs[:0]
	for _, ps := range r.procs {
		if ps.crashed {
			continue
		}
		if ps.decision != nil {
			procs = append(procs, procEvent{EventDecide, ps.id})
		} else if ps.queued() > 0 {
			procs = append(procs, procEvent{EventExec, ps.id})
		}
		// An upper-layer invocation waits for the previous one to return
		// and for the process's open proposition to decide.
		if len(ps.invokes) > 0 && ps.decision == nil && ps.openBroadcast == model.NoMsg {
			procs = append(procs, procEvent{EventInvoke, ps.id})
		}
	}
	v.procs = procs
	v.filtered = r.stranded
	if v.filtered {
		v.live = v.live[:0]
		for j := range r.network {
			if to, err := r.proc(r.network[j].to); err == nil && !to.crashed {
				v.live = append(v.live, j)
			}
		}
	}
	return v
}

func (r *Runtime) execEvent(e Event) error {
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
		ps, err := r.proc(e.Proc)
		if err != nil {
			return err
		}
		if len(ps.invokes) == 0 {
			return fmt.Errorf("sched: no queued broadcast for %v", e.Proc)
		}
		payload := ps.invokes[0]
		ps.invokes = ps.invokes[1:]
		_, err = r.InvokeBroadcast(e.Proc, payload)
		return err
	default:
		return fmt.Errorf("sched: unknown event kind %d", e.Kind)
	}
}

// quiescentWith reports quiescence including the run's pending
// upper-layer broadcasts on live processes.
func (r *Runtime) quiescentWith() bool {
	if !r.Quiescent() {
		return false
	}
	for _, ps := range r.procs {
		if len(ps.invokes) > 0 && !ps.crashed {
			return false
		}
	}
	return true
}

// Run drives the runtime under the given strategy until quiescence, the
// event bound, a strategy-requested stop, or a live spec violation
// (returned as *LiveViolationError). Each step the loop applies due
// crash injections (at the strategy's crash points, see CrashPointer),
// shows the strategy the enabled events, and executes its pick. It
// returns the recorded trace, with Complete set iff the run reached
// quiescence. Equal (strategy, options) pairs produce bit-identical
// traces — see the Strategy determinism contract.
func (r *Runtime) Run(s Strategy, opts RunOptions) (*trace.Trace, error) {
	complete, err := r.Drive(s, opts)
	if err != nil {
		return nil, err
	}
	if err := r.liveError(); err != nil {
		return nil, err
	}
	return &trace.Trace{X: r.Execution(), Complete: complete}, nil
}

// Drive is Run without the trace: the same loop, stopping at the same
// step, for a caller that reads the outcome off the runtime instead
// (LiveViolation, StepCount). It reports whether the run reached
// quiescence; a live violation ends the run without an error.
func (r *Runtime) Drive(s Strategy, opts RunOptions) (complete bool, err error) {
	r.queueBroadcasts(opts.Broadcasts)
	s.Begin(r, opts)
	cp, gated := s.(CrashPointer)
	crashes := newCrashSchedule(opts.CrashAt)
	count := 0
	for count < opts.maxEvents() {
		if crashes.pending() && (!gated || cp.AtCrashPoint()) {
			if err := crashes.apply(r, count); err != nil {
				return false, err
			}
		}
		enabled := r.enabled()
		n := enabled.Len()
		if n == 0 {
			break
		}
		pick := s.Next(enabled, count)
		if pick == StopRun {
			break
		}
		if pick < 0 || pick >= n {
			return false, fmt.Errorf("sched: strategy %s picked %d of %d enabled events", s.Name(), pick, n)
		}
		if err := r.execEvent(enabled.At(pick)); err != nil {
			return false, err
		}
		count++
		if v, _ := r.LiveViolation(); v != nil {
			r.met.dispatched(count)
			return false, nil
		}
	}
	r.met.dispatched(count)
	return r.quiescentWith(), nil
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
