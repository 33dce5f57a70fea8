package spec

import (
	"fmt"

	"nobroadcast/internal/model"
)

// This file holds the leaf checkers for the per-step specifications whose
// reference loops translate directly: well-formedness, the universal
// broadcast properties, the channel properties, and k-SA. Each checker's
// feed body is the corresponding reference loop body, so the two forms
// return identical verdicts by construction (asserted by the differential
// tests). Where a finish-time clause is violated in several places, the
// checker names the lowest message (or object), then the lowest process.

// wellFormedChecker streams the Definition 1 checks. A step by a process
// outside p1..pn latches, so it keeps state for p1..pn only.
type wellFormedChecker struct {
	safety
	n     int
	procs []wfProc // p0..pn, made on first use
}

type wfProc struct {
	crashed, open bool
	inFlight      model.MsgID
}

func newWellFormedChecker(n int) *wellFormedChecker {
	return &wellFormedChecker{n: n}
}

func (*wellFormedChecker) kinds() kindSet { return allKinds }

func (c *wellFormedChecker) feed(i int, s *model.Step, _ int) *Violation {
	if s.Proc < 1 || int(s.Proc) > c.n {
		return &Violation{Spec: "Well-Formed", Property: "Participants",
			Detail: fmt.Sprintf("step by %v outside p1..p%d", s.Proc, c.n), StepIdx: i}
	}
	if c.procs == nil {
		c.procs = make([]wfProc, c.n+1)
	}
	ps := &c.procs[s.Proc]
	if ps.crashed {
		return &Violation{Spec: "Well-Formed", Property: "Crash-Finality",
			Detail: fmt.Sprintf("%v takes a step after crashing", s.Proc), StepIdx: i}
	}
	switch s.Kind {
	case model.KindCrash:
		ps.crashed = true
	case model.KindBroadcastInvoke:
		if ps.open {
			return &Violation{Spec: "Well-Formed", Property: "Invocation-Alternation",
				Detail: fmt.Sprintf("%v invokes B.broadcast(m%d) before returning from B.broadcast(m%d)", s.Proc, s.Msg, ps.inFlight), StepIdx: i}
		}
		ps.open = true
		ps.inFlight = s.Msg
	case model.KindBroadcastReturn:
		if !ps.open {
			return &Violation{Spec: "Well-Formed", Property: "Invocation-Alternation",
				Detail: fmt.Sprintf("%v returns from B.broadcast(m%d) without an open invocation", s.Proc, s.Msg), StepIdx: i}
		}
		if ps.inFlight != s.Msg {
			return &Violation{Spec: "Well-Formed", Property: "Invocation-Alternation",
				Detail: fmt.Sprintf("%v returns from B.broadcast(m%d), but the open invocation is m%d", s.Proc, s.Msg, ps.inFlight), StepIdx: i}
		}
		ps.open = false
	}
	return nil
}

// crashTracker gives checkers with liveness clauses the correct set: the
// processes p1..pn that have not crashed.
type crashTracker struct {
	n       int
	crashed []bool // p0..pn, made on the first crash
}

func newCrashTracker(n int) crashTracker {
	return crashTracker{n: n}
}

func (c *crashTracker) observe(s *model.Step) {
	if s.Kind == model.KindCrash && s.Proc >= 1 && int(s.Proc) <= c.n {
		if c.crashed == nil {
			c.crashed = make([]bool, c.n+1)
		}
		c.crashed[s.Proc] = true
	}
}

func (c *crashTracker) correct(p model.ProcID) bool {
	return p >= 1 && int(p) <= c.n && (c.crashed == nil || !c.crashed[p])
}

// undelivered returns the lowest correct process that is not in slot's
// delivered set, 0 when there is none.
func (c *crashTracker) undelivered(d *procSets, slot int) model.ProcID {
	for p := model.ProcID(1); int(p) <= c.n; p++ {
		if c.correct(p) && !d.has(slot, p) {
			return p
		}
	}
	return 0
}

// basicMsg is basicChecker's record of one broadcast message, made at its
// invocation (the streaming replacement for Index.Broadcasts).
type basicMsg struct {
	m        model.MsgID
	payload  model.Payload
	from     model.ProcID
	stepIdx  int
	known    bool
	returned bool
}

// basicChecker streams BC-Validity and BC-No-Duplication per step, and
// the two termination clauses at finish.
type basicChecker struct {
	crashTracker
	msgs      []basicMsg // by slot
	delivered procSets   // who B-delivered each message
}

func newBasicChecker(n int) *basicChecker {
	return &basicChecker{crashTracker: newCrashTracker(n)}
}

// msg returns slot's record, nil when the message was never broadcast.
func (c *basicChecker) msg(slot int) *basicMsg {
	if slot < len(c.msgs) && c.msgs[slot].known {
		return &c.msgs[slot]
	}
	return nil
}

func (*basicChecker) kinds() kindSet {
	return kindsOf(model.KindBroadcastInvoke, model.KindBroadcastReturn, model.KindDeliver, model.KindCrash)
}

func (c *basicChecker) feed(i int, s *model.Step, slot int) *Violation {
	c.observe(s)
	switch s.Kind {
	case model.KindBroadcastInvoke:
		if info := c.msg(slot); info != nil {
			return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
				Detail: fmt.Sprintf("message m%d broadcast twice (by %v and %v); broadcast messages are unique", s.Msg, info.from, s.Proc), StepIdx: i}
		}
		c.msgs = growTo(c.msgs, slot)
		c.msgs[slot] = basicMsg{m: s.Msg, payload: s.Payload, from: s.Proc, stepIdx: i, known: true}
	case model.KindBroadcastReturn:
		if info := c.msg(slot); info != nil {
			info.returned = true
		}
	case model.KindDeliver:
		info := c.msg(slot)
		if info == nil {
			return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
				Detail: fmt.Sprintf("%v B-delivers m%d from %v, never broadcast", s.Proc, s.Msg, s.Peer), StepIdx: i}
		}
		if info.from != s.Peer {
			return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
				Detail: fmt.Sprintf("%v B-delivers m%d from %v, but m%d was broadcast by %v", s.Proc, s.Msg, s.Peer, s.Msg, info.from), StepIdx: i}
		}
		if got, want := s.Payload, info.payload; got != want {
			return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
				Detail: fmt.Sprintf("%v B-delivers m%d with content %q, broadcast with %q", s.Proc, s.Msg, got, want), StepIdx: i}
		}
		if c.delivered.has(slot, s.Proc) {
			return &Violation{Spec: "Basic-Broadcast", Property: "BC-No-Duplication",
				Detail: fmt.Sprintf("%v B-delivers m%d twice", s.Proc, s.Msg), StepIdx: i}
		}
		c.delivered.add(slot, s.Proc)
	}
	return nil
}

// finish names the lowest message a clause fails for, then the lowest
// process: one pass over the slots keeps the lowest id that fails.
func (c *basicChecker) finish(complete bool) *Violation {
	if !complete {
		return nil
	}
	var unreturned *basicMsg
	for j := range c.msgs {
		info := &c.msgs[j]
		if info.known && (unreturned == nil || info.m < unreturned.m) && c.correct(info.from) && !info.returned {
			unreturned = info
		}
	}
	if info := unreturned; info != nil {
		return &Violation{Spec: "Basic-Broadcast", Property: "BC-Local-Termination",
			Detail: fmt.Sprintf("correct %v never returns from B.broadcast(m%d)", info.from, info.m), StepIdx: info.stepIdx}
	}
	var undelivered *basicMsg
	var by model.ProcID
	for j := range c.msgs {
		info := &c.msgs[j]
		if !info.known || (undelivered != nil && info.m >= undelivered.m) || !c.correct(info.from) {
			continue
		}
		if p := c.undelivered(&c.delivered, j); p != 0 {
			undelivered, by = info, p
		}
	}
	if info := undelivered; info != nil {
		return &Violation{Spec: "Basic-Broadcast", Property: "BC-Global-CS-Termination",
			Detail: fmt.Sprintf("m%d broadcast by correct %v never B-delivered by correct %v", info.m, info.from, by), StepIdx: -1}
	}
	return nil
}

// channelsChecker streams the channel properties. A receive by anyone but
// a send's destination already fails SR-Validity, so one received flag per
// send is all SR-No-Duplication and SR-Termination need.
type channelsChecker struct {
	crashTracker
	sends []srSend // by slot
}

type srSend struct {
	m              model.MsgID
	from, to       model.ProcID
	sent, received bool
}

func newChannelsChecker(n int) *channelsChecker {
	return &channelsChecker{crashTracker: newCrashTracker(n)}
}

func (*channelsChecker) kinds() kindSet {
	return kindsOf(model.KindSend, model.KindReceive, model.KindCrash)
}

func (c *channelsChecker) feed(i int, s *model.Step, slot int) *Violation {
	c.observe(s)
	switch s.Kind {
	case model.KindSend:
		if slot < len(c.sends) && c.sends[slot].sent {
			return &Violation{Spec: "SR-Channels", Property: "SR-Validity",
				Detail: fmt.Sprintf("message instance m%d sent twice", s.Msg), StepIdx: i}
		}
		c.sends = growTo(c.sends, slot)
		c.sends[slot] = srSend{m: s.Msg, from: s.Proc, to: s.Peer, sent: true}
	case model.KindReceive:
		if slot >= len(c.sends) || !c.sends[slot].sent {
			return &Violation{Spec: "SR-Channels", Property: "SR-Validity",
				Detail: fmt.Sprintf("%v receives m%d from %v, never sent", s.Proc, s.Msg, s.Peer), StepIdx: i}
		}
		d := &c.sends[slot]
		if d.from != s.Peer || d.to != s.Proc {
			return &Violation{Spec: "SR-Channels", Property: "SR-Validity",
				Detail: fmt.Sprintf("%v receives m%d from %v, but m%d was sent by %v to %v", s.Proc, s.Msg, s.Peer, s.Msg, d.from, d.to), StepIdx: i}
		}
		if d.received {
			return &Violation{Spec: "SR-Channels", Property: "SR-No-Duplication",
				Detail: fmt.Sprintf("%v receives m%d twice", s.Proc, s.Msg), StepIdx: i}
		}
		d.received = true
	}
	return nil
}

// finish names the lowest send that fails SR-Termination.
func (c *channelsChecker) finish(complete bool) *Violation {
	if !complete {
		return nil
	}
	var lost *srSend
	for j := range c.sends {
		d := &c.sends[j]
		if d.sent && (lost == nil || d.m < lost.m) && c.correct(d.to) && !d.received {
			lost = d
		}
	}
	if d := lost; d != nil {
		return &Violation{Spec: "SR-Channels", Property: "SR-Termination",
			Detail: fmt.Sprintf("m%d sent by %v to correct %v never received", d.m, d.from, d.to), StepIdx: -1}
	}
	return nil
}

// ksaChecker streams the one-shot discipline, k-SA-Validity, and
// k-SA-Agreement per step (the streaming decision tables), and
// k-SA-Termination at finish.
type ksaChecker struct {
	crashTracker
	k    int
	name string
	objs map[model.KSAID]*ksaObject
}

// The bits a ksaObject keeps per process and per value.
const (
	ksaProposed uint8 = 1 << iota
	ksaDecided
)

// ksaObject is ksaChecker's record of one k-SA object, made at its first
// proposal: who proposed and who decided on it, indexed by process, and
// which values were proposed and decided, so that a step costs O(1)
// whatever the number of processes.
type ksaObject struct {
	// procs[p-1] holds the bits of process p of p1..p_procDense; others
	// holds those of any other id: a process of a larger system, or an
	// id outside p1..pn, which only a malformed trace names.
	procs    []uint8
	others   map[model.ProcID]uint8
	values   map[model.Value]uint8
	distinct int // the number of distinct values decided
}

// bits returns process p's bits on the object.
func (o *ksaObject) bits(p model.ProcID) uint8 {
	if i := int(p) - 1; i >= 0 && i < len(o.procs) {
		return o.procs[i]
	}
	return o.others[p]
}

// set adds bits b to process p's.
func (o *ksaObject) set(p model.ProcID, b uint8) {
	if i := int(p) - 1; i >= 0 && i < len(o.procs) {
		o.procs[i] |= b
		return
	}
	if o.others == nil {
		o.others = make(map[model.ProcID]uint8)
	}
	o.others[p] |= b
}

func newKSAChecker(n, k int, name string) *ksaChecker {
	return &ksaChecker{
		crashTracker: newCrashTracker(n),
		k:            k,
		name:         name,
		objs:         make(map[model.KSAID]*ksaObject),
	}
}

func (*ksaChecker) kinds() kindSet {
	return kindsOf(model.KindPropose, model.KindDecide, model.KindCrash)
}

func (c *ksaChecker) feed(i int, s *model.Step, _ int) *Violation {
	c.observe(s)
	switch s.Kind {
	case model.KindPropose:
		o := c.objs[s.Obj]
		if o == nil {
			o = &ksaObject{procs: make([]uint8, min(c.n, procDense)), values: make(map[model.Value]uint8)}
			c.objs[s.Obj] = o
		}
		if o.bits(s.Proc)&ksaProposed != 0 {
			return &Violation{Spec: c.name, Property: "One-Shot",
				Detail: fmt.Sprintf("%v proposes twice on %v", s.Proc, s.Obj), StepIdx: i}
		}
		o.set(s.Proc, ksaProposed)
		o.values[s.Val] |= ksaProposed
	case model.KindDecide:
		o := c.objs[s.Obj]
		if o == nil || o.bits(s.Proc)&ksaProposed == 0 {
			return &Violation{Spec: c.name, Property: "k-SA-Validity",
				Detail: fmt.Sprintf("%v decides on %v without proposing", s.Proc, s.Obj), StepIdx: i}
		}
		vb := o.values[s.Val]
		if vb&ksaProposed == 0 {
			return &Violation{Spec: c.name, Property: "k-SA-Validity",
				Detail: fmt.Sprintf("%v decides %q on %v, never proposed", s.Proc, s.Val, s.Obj), StepIdx: i}
		}
		if o.bits(s.Proc)&ksaDecided != 0 {
			return &Violation{Spec: c.name, Property: "One-Shot",
				Detail: fmt.Sprintf("%v decides twice on %v", s.Proc, s.Obj), StepIdx: i}
		}
		o.set(s.Proc, ksaDecided)
		if vb&ksaDecided == 0 {
			o.values[s.Val] = vb | ksaDecided
			o.distinct++
		}
		if o.distinct > c.k {
			return &Violation{Spec: c.name, Property: "k-SA-Agreement",
				Detail: fmt.Sprintf("%d distinct values decided on %v, at most %d allowed", o.distinct, s.Obj, c.k), StepIdx: i}
		}
	}
	return nil
}

// finish names the lowest object, then the lowest process: the dense
// processes come first, and every correct id in others is above them.
func (c *ksaChecker) finish(complete bool) *Violation {
	if !complete {
		return nil
	}
	for _, obj := range sortedKeys(c.objs) {
		o := c.objs[obj]
		for i, b := range o.procs {
			if v := c.undecided(obj, model.ProcID(i+1), b); v != nil {
				return v
			}
		}
		for _, p := range sortedKeys(o.others) {
			if v := c.undecided(obj, p, o.others[p]); v != nil {
				return v
			}
		}
	}
	return nil
}

// undecided returns the k-SA-Termination violation of process p on obj,
// given p's bits there, or nil.
func (c *ksaChecker) undecided(obj model.KSAID, p model.ProcID, b uint8) *Violation {
	if b&ksaProposed == 0 || b&ksaDecided != 0 || !c.correct(p) {
		return nil
	}
	return &Violation{Spec: c.name, Property: "k-SA-Termination",
		Detail: fmt.Sprintf("correct %v proposed on %v but never decides", p, obj), StepIdx: -1}
}
