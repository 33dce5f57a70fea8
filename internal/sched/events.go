package sched

import (
	"fmt"

	"nobroadcast/internal/model"
)

// This file contains the scheduler-facing event interface: each method
// executes exactly one step (or injects one event) and records it on the
// execution. Schedulers — the generic ones in run.go and the paper's
// adversary in internal/adversary — compose runs from these primitives.

// InvokeBroadcast makes the upper layer of process p invoke B.broadcast
// with the given content. It records the invocation step, allocates the
// message identity, and runs the automaton's OnBroadcast handler. It
// returns the new message's identity.
func (r *Runtime) InvokeBroadcast(p model.ProcID, payload model.Payload) (model.MsgID, error) {
	ps, err := r.proc(p)
	if err != nil {
		return model.NoMsg, err
	}
	if ps.crashed {
		return model.NoMsg, fmt.Errorf("sched: %v is crashed", p)
	}
	if ps.openBroadcast != model.NoMsg {
		return model.NoMsg, fmt.Errorf("sched: %v has an open B.broadcast invocation (m%d); well-formedness requires returning first", p, ps.openBroadcast)
	}
	return r.invokeBroadcast(ps, payload), nil
}

func (r *Runtime) invokeBroadcast(ps *procState, payload model.Payload) model.MsgID {
	msg := r.NewMsgID()
	ps.openBroadcast = msg
	r.record(model.Step{Proc: ps.id, Kind: model.KindBroadcastInvoke, Msg: msg, Payload: payload})
	r.runAutomaton(ps, func(env *Env) { ps.automaton.OnBroadcast(env, msg, payload) })
	return msg
}

// HasPending reports whether process p has a queued action ready to
// execute (and is neither crashed nor blocked on a proposition).
func (r *Runtime) HasPending(p model.ProcID) bool {
	ps, err := r.proc(p)
	if err != nil {
		return false
	}
	return !ps.crashed && ps.decision == nil && ps.queued() > 0
}

// Blocked reports whether process p awaits a k-SA decision.
func (r *Runtime) Blocked(p model.ProcID) bool {
	ps, err := r.proc(p)
	if err != nil {
		return false
	}
	return !ps.crashed && ps.decision != nil
}

// Crashed reports whether process p has crashed.
func (r *Runtime) Crashed(p model.ProcID) bool {
	ps, err := r.proc(p)
	if err != nil {
		return false
	}
	return ps.crashed
}

// OpenBroadcast returns the message id of p's in-progress B.broadcast
// invocation, or NoMsg.
func (r *Runtime) OpenBroadcast(p model.ProcID) model.MsgID {
	ps, err := r.proc(p)
	if err != nil {
		return model.NoMsg
	}
	return ps.openBroadcast
}

// ExecNext executes the next queued action of process p — "p's next local
// step according to the algorithm" in the words of Algorithm 1 (line 8) —
// and returns the recorded step. ok is false when p has no executable
// action (empty queue, crashed, or blocked on a proposition).
func (r *Runtime) ExecNext(p model.ProcID) (step model.Step, ok bool, err error) {
	ps, err := r.proc(p)
	if err != nil {
		return model.Step{}, false, err
	}
	if ps.crashed || ps.decision != nil || ps.queued() == 0 {
		return model.Step{}, false, nil
	}
	r.met.depth(ps.queued())
	a := ps.pop()
	step = a.Step(ps.id)
	if a.Kind == model.KindSend {
		step.Msg = r.NewMsgID()
	}
	r.record(step)
	switch a.Kind {
	case model.KindSend:
		r.network = append(r.network, inFlight{inst: step.Msg, from: ps.id, to: a.Peer, payload: a.Payload})
		r.met.network(len(r.network))
		if a.Peer < 1 || int(a.Peer) > r.cfg.N {
			r.stranded = true
		}
	case model.KindPropose:
		ps.decision = &decision{obj: a.Obj, val: r.cfg.Oracle.Propose(a.Obj, ps.id, a.Val)}
	case model.KindDeliver:
		if ps.app != nil {
			ps.app.OnDeliver(&appEnv{rt: r, ps: ps}, a.Peer, a.Msg, a.Payload)
		}
	case model.KindBroadcastReturn:
		if ps.openBroadcast == a.Msg {
			ps.openBroadcast = model.NoMsg
		}
		if ps.app != nil {
			ps.app.OnReturn(&appEnv{rt: r, ps: ps}, a.Msg)
		}
	}
	return step, true, nil
}

// FireDecide completes process p's pending k-SA proposition: it records
// the decision step, unblocks the process, and runs OnDecide.
func (r *Runtime) FireDecide(p model.ProcID) (model.Step, error) {
	ps, err := r.proc(p)
	if err != nil {
		return model.Step{}, err
	}
	if ps.crashed {
		return model.Step{}, fmt.Errorf("sched: %v is crashed", p)
	}
	if ps.decision == nil {
		return model.Step{}, fmt.Errorf("sched: %v has no pending decision", p)
	}
	d := *ps.decision
	ps.decision = nil
	step := model.Step{Proc: ps.id, Kind: model.KindDecide, Obj: d.obj, Val: d.val}
	r.record(step)
	r.runAutomaton(ps, func(env *Env) { ps.automaton.OnDecide(env, d.obj, d.val) })
	return step, nil
}

// InFlightLen returns the number of in-flight point-to-point messages.
func (r *Runtime) InFlightLen() int { return len(r.network) }

// InFlightAt returns the i-th in-flight point-to-point message, in send
// order, as the send step that put it in flight. It panics when i is out
// of range, matching slice indexing.
func (r *Runtime) InFlightAt(i int) model.Step {
	f := r.network[i]
	return model.Step{Proc: f.from, Kind: model.KindSend, Peer: f.to, Msg: f.inst, Payload: f.payload}
}

// ReceiveIndex delivers the i-th in-flight message (by InFlightAt order):
// records the receive step at its destination and runs OnReceive. The
// destination must not have crashed.
func (r *Runtime) ReceiveIndex(i int) (model.Step, error) {
	if i < 0 || i >= len(r.network) {
		return model.Step{}, fmt.Errorf("sched: no in-flight message at index %d", i)
	}
	f := r.network[i]
	ps, err := r.proc(f.to)
	if err != nil {
		return model.Step{}, err
	}
	if ps.crashed {
		return model.Step{}, fmt.Errorf("sched: cannot deliver to crashed %v", f.to)
	}
	r.network = append(r.network[:i], r.network[i+1:]...)
	r.met.network(len(r.network))
	step := model.Step{Proc: f.to, Kind: model.KindReceive, Peer: f.from, Msg: f.inst, Payload: f.payload}
	r.record(step)
	r.runAutomaton(ps, func(env *Env) { ps.automaton.OnReceive(env, f.from, f.payload) })
	return step, nil
}

// ReceiveInstance delivers the in-flight message with the given instance
// identity.
func (r *Runtime) ReceiveInstance(inst model.MsgID) (model.Step, error) {
	for i, f := range r.network {
		if f.inst == inst {
			return r.ReceiveIndex(i)
		}
	}
	return model.Step{}, fmt.Errorf("sched: no in-flight message with instance id m%d", inst)
}

// Crash crashes process p: records the crash step, discards its queued
// actions, and makes it ineligible for any further event.
func (r *Runtime) Crash(p model.ProcID) error {
	ps, err := r.proc(p)
	if err != nil {
		return err
	}
	if ps.crashed {
		return fmt.Errorf("sched: %v already crashed", p)
	}
	ps.crashed = true
	ps.pending, ps.head = ps.pending[:0], 0
	ps.decision = nil
	r.stranded = true
	r.record(model.Step{Proc: p, Kind: model.KindCrash})
	r.met.crashed()
	return nil
}

// Quiescent reports whether no event is enabled: every live process has an
// empty action queue and no pending decision, and no in-flight message is
// addressed to a live process.
func (r *Runtime) Quiescent() bool {
	for _, ps := range r.procs {
		if ps.crashed {
			continue
		}
		if ps.queued() > 0 || ps.decision != nil {
			return false
		}
	}
	for _, f := range r.network {
		if to, err := r.proc(f.to); err == nil && !to.crashed {
			return false
		}
	}
	return true
}

// AppDecided reports whether process p's app has produced its decision.
func (r *Runtime) AppDecided(p model.ProcID) bool {
	ps, err := r.proc(p)
	if err != nil {
		return false
	}
	return ps.appDecided
}
