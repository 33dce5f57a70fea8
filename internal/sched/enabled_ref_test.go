package sched

import "nobroadcast/internal/model"

// enabledEvents is the run loop's enumeration of the enabled events from
// before the Enabled view, kept as the reference the view is checked
// against: it rebuilds the whole list, one entry per process event and
// one per deliverable in-flight message, before every decision. Only the
// invoke queues moved (from a per-run map to procState.invokes).
func (r *Runtime) enabledEvents() []Event {
	var out []Event
	for _, ps := range r.procs {
		if ps.crashed {
			continue
		}
		if ps.decision != nil {
			out = append(out, Event{Kind: EventDecide, Proc: ps.id})
		} else if ps.queued() > 0 {
			out = append(out, Event{Kind: EventExec, Proc: ps.id})
		}
		if r.canInvoke(ps.id) {
			out = append(out, Event{Kind: EventInvoke, Proc: ps.id})
		}
	}
	for i, f := range r.network {
		if to, err := r.proc(f.to); err == nil && !to.crashed {
			out = append(out, Event{Kind: EventReceive, Proc: f.to, Net: i, Msg: f.inst, From: f.from})
		}
	}
	return out
}

// canInvoke reports whether process p may take its next upper-layer
// broadcast invocation: alive, not blocked mid-proposition, and no open
// invocation.
func (r *Runtime) canInvoke(p model.ProcID) bool {
	ps, err := r.proc(p)
	if err != nil {
		return false
	}
	return len(ps.invokes) > 0 && !ps.crashed && ps.decision == nil && ps.openBroadcast == model.NoMsg
}

// EnabledReference returns the reference enumeration of the events the
// view v shows, for the external tests.
func EnabledReference(v *Enabled) []Event { return v.rt.enabledEvents() }
