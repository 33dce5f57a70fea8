package sched

import (
	"errors"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/spec"
)

// dupDeliverAutomaton violates BC-No-Duplication: it delivers its own
// broadcast twice.
type dupDeliverAutomaton struct{}

func (dupDeliverAutomaton) Init(*Env) {}
func (dupDeliverAutomaton) OnBroadcast(env *Env, msg model.MsgID, payload model.Payload) {
	env.ReturnBroadcast(msg)
	env.Deliver(msg, env.ID(), payload)
	env.Deliver(msg, env.ID(), payload)
}
func (dupDeliverAutomaton) OnReceive(*Env, model.ProcID, model.Payload) {}
func (dupDeliverAutomaton) OnDecide(*Env, model.KSAID, model.Value)     {}

// TestLiveCheckingFailsFast: with a live spec configured, the run stops at
// the exact violating step with a LiveViolationError carrying the verdict
// and the recorded prefix, instead of running to quiescence and failing a
// post-hoc check.
func TestLiveCheckingFailsFast(t *testing.T) {
	r, err := New(Config{
		N:            2,
		NewAutomaton: func(model.ProcID) Automaton { return dupDeliverAutomaton{} },
		LiveSpecs:    []spec.Spec{spec.BasicBroadcast()},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunFair(RunOptions{Broadcasts: []BroadcastReq{{Proc: 1, Payload: "x"}}})
	var lve *LiveViolationError
	if !errors.As(err, &lve) {
		t.Fatalf("want LiveViolationError, got %v", err)
	}
	if lve.V == nil || lve.V.Property != "BC-No-Duplication" {
		t.Fatalf("want BC-No-Duplication, got %v", lve.V)
	}
	// The trace in the error ends at the violating step: invoke, return,
	// deliver, duplicate deliver.
	if lve.Trace == nil || lve.Trace.X.Len() != lve.StepIdx+1 {
		t.Fatalf("trace should end at the violating step: len=%d idx=%d", lve.Trace.X.Len(), lve.StepIdx)
	}
	if last := lve.Trace.X.Steps[lve.StepIdx]; last.Kind != model.KindDeliver {
		t.Fatalf("violating step should be the duplicate delivery, got %v", last)
	}
	if v, idx := r.LiveViolation(); v != lve.V || idx != lve.StepIdx {
		t.Fatalf("runtime latched (%v, %d), error says (%v, %d)", v, idx, lve.V, lve.StepIdx)
	}
}

// TestLiveCheckingFailsFastRandom: the random scheduler stops too.
func TestLiveCheckingFailsFastRandom(t *testing.T) {
	r, err := New(Config{
		N:            2,
		NewAutomaton: func(model.ProcID) Automaton { return dupDeliverAutomaton{} },
		LiveSpecs:    []spec.Spec{spec.BasicBroadcast()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBroadcast(1, "x"); err != nil {
		t.Fatal(err)
	}
	_, err = r.RunRandom(RunOptions{Seed: 1})
	var lve *LiveViolationError
	if !errors.As(err, &lve) {
		t.Fatalf("want LiveViolationError, got %v", err)
	}
}

// TestLiveCheckingCleanRun: an admissible run is unaffected by live specs
// and its monitor holds clean verdicts afterwards.
func TestLiveCheckingCleanRun(t *testing.T) {
	r, err := New(Config{
		N:            2,
		NewAutomaton: newEcho,
		LiveSpecs:    []spec.Spec{spec.WellFormed(), spec.FIFOOrder()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.RunFair(RunOptions{Broadcasts: []BroadcastReq{{Proc: 1, Payload: "a"}, {Proc: 2, Payload: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if v, idx := r.LiveViolation(); v != nil || idx != -1 {
		t.Fatalf("clean run latched %v at %d", v, idx)
	}
	mon := r.LiveMonitor()
	if mon == nil {
		t.Fatal("no monitor despite LiveSpecs")
	}
	if mon.Steps() != tr.X.Len() {
		t.Fatalf("monitor saw %d steps, trace has %d", mon.Steps(), tr.X.Len())
	}
	mon.Finish(tr.Complete)
	for _, sv := range mon.Verdicts() {
		if sv.Violation != nil {
			t.Fatalf("%s violated on a clean run: %v", sv.Spec, sv.Violation)
		}
	}
}
