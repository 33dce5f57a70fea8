package net_test

import (
	"fmt"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/spec"
)

// TestLiveStreamingWithoutTrace: live specs without RecordTrace check the
// run in streaming mode — no step log is kept (Trace returns nil), yet the
// checkers observe every recorded step and produce verdicts.
func TestLiveStreamingWithoutTrace(t *testing.T) {
	const n, perNode = 3, 4
	c, err := broadcast.Lookup("fifo")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := net.New(net.Config{
		N:            n,
		NewAutomaton: c.NewAutomaton,
		K:            c.OracleDegree(1),
		Seed:         7,
		LiveSpecs:    []spec.Spec{spec.BasicBroadcast(), spec.FIFOOrder()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	for p := 1; p <= n; p++ {
		for j := 0; j < perNode; j++ {
			if _, err := nw.Broadcast(model.ProcID(p), model.Payload(fmt.Sprintf("m-%d-%d", p, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := int64(n * perNode)
	done := nw.WaitUntil(func() bool {
		for p := 1; p <= n; p++ {
			if nw.Delivered(model.ProcID(p)) < want {
				return false
			}
		}
		return true
	}, waitTimeout)
	if !done {
		t.Fatal("deliveries incomplete")
	}
	nw.Stop()

	if tr := nw.Trace(); tr != nil {
		t.Fatalf("streaming mode must not keep a step log, got %d steps", tr.X.Len())
	}
	if v, idx := nw.LiveViolation(); v != nil {
		t.Fatalf("clean run latched %v at step %d", v, idx)
	}
	if steps := nw.LiveSteps(); steps == 0 {
		t.Fatal("live checkers observed no steps")
	}
	verdicts := nw.FinishLive(true)
	if len(verdicts) != 2 {
		t.Fatalf("want 2 verdicts, got %d", len(verdicts))
	}
	for _, sv := range verdicts {
		if sv.Violation != nil {
			t.Errorf("%s violated on a clean run: %v", sv.Spec, sv.Violation)
		}
	}
	// FinishLive is idempotent.
	if again := nw.FinishLive(true); len(again) != len(verdicts) {
		t.Fatalf("FinishLive not idempotent: %d vs %d verdicts", len(again), len(verdicts))
	}
}

// TestLiveAgreesWithRecordedTrace: with both RecordTrace and live specs
// on, the live verdict equals a post-hoc batch check of the recorded
// trace — the recorder feeds the checkers the same linearization it
// records.
func TestLiveAgreesWithRecordedTrace(t *testing.T) {
	const n, perNode = 3, 3
	c, err := broadcast.Lookup("causal")
	if err != nil {
		t.Fatal(err)
	}
	sp := c.Spec(1)
	nw, err := net.New(net.Config{
		N:            n,
		NewAutomaton: c.NewAutomaton,
		K:            c.OracleDegree(1),
		Seed:         3,
		RecordTrace:  true,
		LiveSpecs:    []spec.Spec{sp},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	for p := 1; p <= n; p++ {
		for j := 0; j < perNode; j++ {
			if _, err := nw.Broadcast(model.ProcID(p), model.Payload(fmt.Sprintf("c-%d-%d", p, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := int64(n * perNode)
	done := nw.WaitUntil(func() bool {
		for p := 1; p <= n; p++ {
			if nw.Delivered(model.ProcID(p)) < want {
				return false
			}
		}
		return true
	}, waitTimeout)
	if !done {
		t.Fatal("deliveries incomplete")
	}
	nw.Stop()
	tr := nw.Trace()
	tr.Complete = true
	batch := sp.Check(tr)
	var live *spec.Violation
	for _, sv := range nw.FinishLive(true) {
		if sv.Spec == sp.Name() {
			live = sv.Violation
		}
	}
	if (batch == nil) != (live == nil) {
		t.Fatalf("live and batch verdicts diverge: live=%v batch=%v", live, batch)
	}
}
