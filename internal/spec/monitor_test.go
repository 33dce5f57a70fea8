package spec

import (
	"fmt"
	"reflect"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/trace"
)

// Tests of the shared leaf plan. A Monitor over many specs builds each
// distinct leaf once, so a leaf keeps being fed after one of the specs
// that use it has latched; that must not change any spec's verdict. And
// each spec's Check must agree with the spec's reference predicates taken
// in declaration order.

// registrySpecs instantiates every registry entry at degree k.
func registrySpecs(k int) []Spec {
	var out []Spec
	for _, e := range Registry() {
		out = append(out, e.New(k))
	}
	return out
}

// runAlone streams tr through a checker of s alone and returns its
// verdict with the index of the step that latched it (-1 for Finish).
func runAlone(s Spec, tr *trace.Trace) (*Violation, int) {
	c := NewCheckerFor(s, tr.X.N)
	for i, st := range tr.X.Steps {
		if v := c.Feed(st); v != nil {
			return v, i
		}
	}
	return c.Finish(tr.Complete), -1
}

// matchSharedPlan checks tr against every registry spec at degree k: one
// Monitor over all of them must give each spec the violation text and
// latching step that a checker of the spec alone gives, and, when
// withReference is set, each spec must have a Check with the verdict of
// its reference leaves.
func matchSharedPlan(tr *trace.Trace, k int, withReference bool) error {
	specs := registrySpecs(k)
	mon := NewMonitor(tr.X.N, specs...)
	for _, st := range tr.X.Steps {
		mon.Feed(st)
	}
	mon.Finish(tr.Complete)
	for i, sv := range mon.Verdicts() {
		s := specs[i]
		alone, idx := runAlone(s, tr)
		if sv.Violation.String() != alone.String() || sv.StepIdx != idx {
			return fmt.Errorf("k=%d complete=%v %s: shared monitor says %v (step %d), alone %v (step %d)",
				k, tr.Complete, s.Name(), sv.Violation, sv.StepIdx, alone, idx)
		}
		if !withReference {
			continue
		}
		if got, ref := s.Check(tr), checkReference(s, tr); !SameVerdict(got, ref) {
			return fmt.Errorf("k=%d complete=%v %s: Check says %v, reference leaves %v", k, tr.Complete, s.Name(), got, ref)
		}
	}
	return nil
}

// TestMonitorSharesLeaves: the 26 registry specs share 15 leaves at k=2,
// and sharing them changes no verdict, on 1,000 random traces with and
// without liveness, at k=1 and k=2.
func TestMonitorSharesLeaves(t *testing.T) {
	mon := NewMonitor(3, registrySpecs(2)...)
	if len(mon.specs) != 26 || len(mon.leaves) != 15 {
		t.Fatalf("spec=all at k=2: %d specs on %d leaves, want 26 on 15", len(mon.specs), len(mon.leaves))
	}
	src := rng.New(2121)
	for round := 0; round < 1000; round++ {
		tr := genTraceFull(src.Split(), 2+src.Intn(3), 2+src.Intn(5))
		for _, complete := range []bool{false, true} {
			tr.Complete = complete
			for _, k := range []int{1, 2} {
				if err := matchSharedPlan(tr, k, true); err != nil {
					t.Fatalf("round %d: %v\ntrace:\n%s", round, err, tr.X)
				}
			}
		}
	}
}

// fillPeers sets each delivery's origin and payload to those of the
// latest earlier broadcast of its message, so that decoded fuzz inputs
// get past BC-Validity and reach the ordering leaves.
func fillPeers(steps []model.Step) {
	type origin struct {
		from    model.ProcID
		payload model.Payload
	}
	seen := make(map[model.MsgID]origin)
	for i := range steps {
		s := &steps[i]
		switch s.Kind {
		case model.KindBroadcastInvoke:
			s.Payload = model.Payload(fmt.Sprintf("f%d", s.Msg))
			seen[s.Msg] = origin{s.Proc, s.Payload}
		case model.KindDeliver:
			if o, ok := seen[s.Msg]; ok {
				s.Peer, s.Payload = o.from, o.payload
			}
		}
	}
}

// inReferenceDomain reports whether the reference predicates judge steps
// as the leaf checkers do: every delivery follows a broadcast of its
// message and no message is broadcast twice. These are the traces on
// which the leaf checkers promise the references' verdicts.
func inReferenceDomain(steps []model.Step) bool {
	bcast := make(map[model.MsgID]bool)
	for _, s := range steps {
		switch s.Kind {
		case model.KindBroadcastInvoke:
			if bcast[s.Msg] {
				return false
			}
			bcast[s.Msg] = true
		case model.KindDeliver:
			if !bcast[s.Msg] {
				return false
			}
		}
	}
	return true
}

// TestOnlyP1ToPnAreCorrect: an id outside p1..pn names no process of the
// system, so no liveness clause counts it as correct, as in
// Execution.CorrectSet. The first trace is the one FuzzSpecMonitor found:
// p15 broadcasts m0 and never returns, and the leaf blamed
// BC-Local-Termination on p15 where the reference admits the trace.
func TestOnlyP1ToPnAreCorrect(t *testing.T) {
	invoke := func(p model.ProcID, m model.MsgID) model.Step {
		return model.Step{Proc: p, Kind: model.KindBroadcastInvoke, Msg: m}
	}
	ret := func(p model.ProcID, m model.MsgID) model.Step {
		return model.Step{Proc: p, Kind: model.KindBroadcastReturn, Msg: m}
	}
	cases := []struct {
		name  string
		steps []model.Step
		spec  Spec
		want  string // the violated property, "" for none
	}{
		{"p15 never returns", []model.Step{invoke(15, 0)}, SendToAll(), ""},
		{"p15 never returns, p1 never delivers m1", []model.Step{invoke(15, 0), invoke(1, 1), ret(1, 1)}, BasicBroadcast(), "BC-Global-CS-Termination"},
		{"nobody delivers p15's m2", []model.Step{invoke(15, 2), ret(15, 2)}, BasicBroadcast(), ""},
		{"p15 never receives m3", []model.Step{{Proc: 1, Kind: model.KindSend, Peer: 15, Msg: 3}}, Channels(), ""},
		{"p15 never decides", []model.Step{{Proc: 15, Kind: model.KindPropose, Obj: 1, Val: "v"}}, KSA(1), ""},
	}
	for _, c := range cases {
		x := model.NewExecution(1)
		x.Append(c.steps...)
		tr := &trace.Trace{X: x, Complete: true}
		got := ""
		if v := c.spec.Check(tr); v != nil {
			got = v.Property
		}
		if got != c.want {
			t.Errorf("%s: %s violates %q, want %q", c.name, c.spec.Name(), got, c.want)
		}
		for _, k := range []int{1, 2} {
			if err := matchSharedPlan(tr, k, true); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

// FuzzSpecMonitor asserts the shared plan on arbitrary step sequences
// decoded by fuzzSteps: a Monitor over the whole registry gives every spec
// its alone verdict, and every Check in the references' domain agrees
// with the reference leaves.
func FuzzSpecMonitor(f *testing.F) {
	b := func(p model.ProcID, m model.MsgID) []model.Step {
		return []model.Step{
			{Proc: p, Kind: model.KindBroadcastInvoke, Msg: m},
			{Proc: p, Kind: model.KindBroadcastReturn, Msg: m},
		}
	}
	d := func(p model.ProcID, m model.MsgID, batch int64) model.Step {
		return model.Step{Proc: p, Kind: model.KindDeliver, Msg: m, Batch: batch}
	}
	cat := func(groups ...[]model.Step) []model.Step {
		var out []model.Step
		for _, g := range groups {
			out = append(out, g...)
		}
		return out
	}
	seeds := [][]model.Step{
		// A FIFO and total-order violation, then a duplicate delivery.
		cat(b(1, 1), b(1, 2), []model.Step{d(2, 2, 0), d(2, 1, 0), d(1, 1, 0), d(1, 2, 0), d(2, 1, 0)}),
		// Causal: p3 delivers m1 and m2, broadcasts m3; p2 delivers m3 first.
		cat(b(1, 1), b(2, 2), []model.Step{d(3, 1, 0), d(3, 2, 0)}, b(3, 3), []model.Step{d(2, 3, 0)}),
		// SCD sets in opposite orders, and a delivery before its broadcast.
		cat(b(1, 1), []model.Step{d(1, 1, 1), d(1, 2, 2), d(2, 2, 3), d(2, 1, 1)}, b(2, 2)),
		// A total-order conflict through the message id m0.
		cat(b(1, 0), b(2, 1), []model.Step{d(1, 0, 0), d(1, 1, 0), d(2, 1, 0), d(2, 0, 0)}),
	}
	for _, s := range seeds {
		f.Add(fuzzBytes(3, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, steps := fuzzSteps(data)
		fillPeers(steps)
		tr := &trace.Trace{X: &model.Execution{N: n, Steps: steps}}
		for _, complete := range []bool{false, true} {
			tr.Complete = complete
			for _, k := range []int{1, 2} {
				if err := matchSharedPlan(tr, k, inReferenceDomain(steps)); err != nil {
					t.Fatalf("n=%d: %v\nsteps: %v", n, err, steps)
				}
			}
		}
	})
}

// TestFinishWitnessesDeterministic: where a trace violates a finish-time
// clause, or the causal order, in several places, the verdict names a
// fixed witness — the lowest message or object, then the lowest process;
// for causal order the missing predecessor broadcast first — so 1,000
// fresh checks give one string.
func TestFinishWitnessesDeterministic(t *testing.T) {
	// Eight broadcasts by two processes, no deliveries: BC-Global-CS
	// fails for every message at both processes.
	eight := newTB(2)
	for i := 0; i < 8; i++ {
		eight.bcast(model.ProcID(1+i%2), model.Payload(fmt.Sprintf("e%d", i)))
	}
	// Three open invocations: BC-Local-Termination fails three times.
	open := newTB(3)
	for p := model.ProcID(3); p >= 1; p-- {
		open.x.Append(model.Step{Proc: p, Kind: model.KindBroadcastInvoke, Msg: model.MsgID(10 - p), Payload: "o"})
	}
	// Sends never received.
	sends := newTB(3)
	for m := model.MsgID(9); m >= 5; m-- {
		sends.x.Append(model.Step{Proc: 1, Kind: model.KindSend, Peer: model.ProcID(2 + m%2), Msg: m})
	}
	// Proposals on two objects, never decided.
	props := newTB(3)
	for _, obj := range []model.KSAID{4, 2} {
		for p := model.ProcID(3); p >= 1; p-- {
			props.x.Append(model.Step{Proc: p, Kind: model.KindPropose, Obj: obj, Val: "v"})
		}
	}
	// p3 broadcasts four messages, p1 delivers them, p3 crashes: uniform
	// termination fails for each at p2, while Basic-Broadcast exempts the
	// faulty sender.
	uniform := newTB(3)
	var ms []model.MsgID
	for i := 0; i < 4; i++ {
		ms = append(ms, uniform.bcast(3, model.Payload(fmt.Sprintf("u%d", i))))
	}
	for j := len(ms) - 1; j >= 0; j-- {
		uniform.deliver(1, ms[j])
	}
	uniform.crash(3)
	// p4 delivers m3, whose causal past holds m1 (by p1) and m2 (by p2),
	// before either.
	causal := newTB(4)
	c1 := causal.bcast(1, "c1")
	c2 := causal.bcast(2, "c2")
	causal.deliver(3, c1)
	causal.deliver(3, c2)
	c3 := causal.bcast(3, "c3")
	causal.deliver(4, c3)

	cases := []struct {
		name  string
		tr    *trace.Trace
		specs []string
		want  string // the send-to-all (or listed spec's) verdict, pinned
	}{
		{"eight broadcasts", eight.trace(true), nil,
			"Basic-Broadcast: BC-Global-CS-Termination violated: m1 broadcast by correct p1 never B-delivered by correct p1"},
		{"open invocations", open.trace(true), nil,
			"Basic-Broadcast: BC-Local-Termination violated at step 0: correct p3 never returns from B.broadcast(m7)"},
		{"unreceived sends", sends.trace(true), []string{"channels"},
			"SR-Channels: SR-Termination violated: m5 sent by p1 to correct p3 never received"},
		{"undecided proposals", props.trace(true), []string{"ksa"},
			"2-SA: k-SA-Termination violated: correct p1 proposed on ksa2 but never decides"},
		{"uniform termination", uniform.trace(true), []string{"uniform-reliable"},
			"Uniform-Reliable-Broadcast: BC-Uniform-Termination violated: m1 was B-delivered by p1 but correct p2 never B-delivers it"},
		{"causal predecessors", causal.trace(false), []string{"causal-order", "causal"},
			"Causal-Order: Causal violated at step 8: p4 delivers m3 before its causal predecessor m1"},
	}
	for _, tc := range cases {
		names := tc.specs
		if names == nil { // every registry spec with a Basic-Broadcast leaf
			for _, e := range Registry() {
				for _, l := range e.New(2).leaves {
					if l.key == "Basic-Broadcast" {
						names = append(names, e.Key)
					}
				}
			}
		}
		for _, name := range names {
			s, err := ByName(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			for i := 0; i < 1000; i++ {
				seen[RunChecker(NewCheckerFor(s, tc.tr.X.N), tc.tr).String()] = true
				seen[s.Check(tc.tr).String()] = true
			}
			if got := sortedKeys(seen); !reflect.DeepEqual(got, []string{tc.want}) {
				t.Errorf("%s, %s: got %d verdicts %q, want only %q", tc.name, name, len(got), got, tc.want)
			}
		}
	}
}
