package spec

import (
	"strings"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/trace"
)

// tb is a small builder for broadcast-level test traces.
type tb struct {
	x      *model.Execution
	nextID model.MsgID
}

func newTB(n int) *tb {
	return &tb{x: model.NewExecution(n), nextID: 1}
}

// bcast appends a broadcast invocation (and return) of a fresh message by
// p, returning the message id.
func (b *tb) bcast(p model.ProcID, payload model.Payload) model.MsgID {
	id := b.nextID
	b.nextID++
	b.x.Append(
		model.Step{Proc: p, Kind: model.KindBroadcastInvoke, Msg: id, Payload: payload},
		model.Step{Proc: p, Kind: model.KindBroadcastReturn, Msg: id},
	)
	return id
}

// deliver appends a delivery of m at p; the origin and payload are looked
// up from the broadcast invocation.
func (b *tb) deliver(p model.ProcID, m model.MsgID) {
	b.x.Append(model.Step{Proc: p, Kind: model.KindDeliver, Peer: b.x.Broadcaster(m), Msg: m, Payload: b.x.PayloadOf(m)})
}

func (b *tb) crash(p model.ProcID) {
	b.x.Append(model.Step{Proc: p, Kind: model.KindCrash})
}

func (b *tb) trace(complete bool) *trace.Trace {
	return &trace.Trace{X: b.x, Complete: complete}
}

func wantOK(t *testing.T, s Spec, tr *trace.Trace) {
	t.Helper()
	if v := s.Check(tr); v != nil {
		t.Errorf("%s rejected admissible trace: %s", s.Name(), v)
	}
}

func wantViolation(t *testing.T, s Spec, tr *trace.Trace, property string) *Violation {
	t.Helper()
	v := s.Check(tr)
	if v == nil {
		t.Fatalf("%s admitted a violating trace (expected %s violation)", s.Name(), property)
	}
	if v.Property != property {
		t.Fatalf("%s reported %s, expected %s (%s)", s.Name(), v.Property, property, v)
	}
	return v
}

func TestViolationString(t *testing.T) {
	var v *Violation
	if v.String() != "admissible" {
		t.Errorf("nil violation String = %q", v.String())
	}
	v = &Violation{Spec: "S", Property: "P", Detail: "d", StepIdx: 3}
	if got := v.String(); !strings.Contains(got, "S") || !strings.Contains(got, "P") || !strings.Contains(got, "step 3") {
		t.Errorf("String = %q", got)
	}
	v.StepIdx = -1
	if got := v.String(); strings.Contains(got, "step") {
		t.Errorf("String with StepIdx=-1 mentions step: %q", got)
	}
}

// TestAllCombinesInOrder pins the two blame rules of a composite on a
// trace that violates FIFO at step 4 and BC-No-Duplication at step 6.
// Check blames the first violated leaf in declaration order, so
// Basic-Broadcast; the online checker blames the leaf violated first, so
// FIFO.
func TestAllCombinesInOrder(t *testing.T) {
	b := newTB(2)
	m1 := b.bcast(1, "a")
	m2 := b.bcast(1, "b")
	b.deliver(2, m2)
	b.deliver(2, m1)
	b.deliver(2, m1)
	tr := b.trace(false)
	s := All("combo", WellFormed(), BasicBroadcast(), FIFOOrder())
	if s.Name() != "combo" {
		t.Errorf("Name = %q", s.Name())
	}
	if v := s.Check(tr); v == nil || v.Property != "BC-No-Duplication" || v.StepIdx != 6 {
		t.Errorf("Check = %v, want BC-No-Duplication at step 6", v)
	}
	if v := RunChecker(NewCheckerFor(s, tr.X.N), tr); v == nil || v.Property != "FIFO" || v.StepIdx != 4 {
		t.Errorf("online checker = %v, want FIFO at step 4", v)
	}
}

func TestWellFormedAccepts(t *testing.T) {
	b := newTB(2)
	m := b.bcast(1, "a")
	b.deliver(1, m)
	b.deliver(2, m)
	b.crash(2)
	wantOK(t, WellFormed(), b.trace(true))
}

func TestWellFormedRejectsOutsideProcess(t *testing.T) {
	b := newTB(2)
	b.x.Append(model.Step{Proc: 3, Kind: model.KindInternal})
	wantViolation(t, WellFormed(), b.trace(false), "Participants")
}

func TestWellFormedRejectsStepsAfterCrash(t *testing.T) {
	b := newTB(2)
	b.crash(1)
	b.x.Append(model.Step{Proc: 1, Kind: model.KindInternal})
	wantViolation(t, WellFormed(), b.trace(false), "Crash-Finality")
}

func TestWellFormedRejectsNestedInvocations(t *testing.T) {
	b := newTB(2)
	b.x.Append(
		model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 1, Payload: "a"},
		model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 2, Payload: "b"},
	)
	wantViolation(t, WellFormed(), b.trace(false), "Invocation-Alternation")
}

func TestWellFormedRejectsSpuriousReturn(t *testing.T) {
	b := newTB(2)
	b.x.Append(model.Step{Proc: 1, Kind: model.KindBroadcastReturn, Msg: 1})
	wantViolation(t, WellFormed(), b.trace(false), "Invocation-Alternation")
}

func TestWellFormedRejectsMismatchedReturn(t *testing.T) {
	b := newTB(2)
	b.x.Append(
		model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 1, Payload: "a"},
		model.Step{Proc: 1, Kind: model.KindBroadcastReturn, Msg: 2},
	)
	wantViolation(t, WellFormed(), b.trace(false), "Invocation-Alternation")
}
