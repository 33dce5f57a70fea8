package spec

import (
	"fmt"
	"testing"

	"nobroadcast/internal/model"
)

// --- Experiment E4: k-Stepped Broadcast is NOT compositional (§3.2) ---

// TestKSteppedNotCompositional reproduces the paper's exact counterexample:
// the 1-stepped predicate holds on the full 4-message trace, but its
// restriction onto {m1', m2} does not, because the sequence numbers a are
// only contextually relevant within the full execution.
func TestKSteppedNotCompositional(t *testing.T) {
	b, msgs := paperKSteppedTrace()
	rep, err := CheckCompositional(KSteppedOrder(1), b.trace(true), SymmetryOptions{})
	if err != nil {
		t.Fatalf("CheckCompositional: %v", err)
	}
	if rep.Holds {
		t.Fatalf("1-Stepped-Order reported compositional after %d restrictions; the paper's counterexample should refute it", rep.Checked)
	}
	if rep.Violation == nil || rep.Violation.Property != "k-Stepped" {
		t.Errorf("unexpected violation: %v", rep.Violation)
	}
	// The paper's witness {m1', m2} must itself be a counterexample
	// (exhaustive enumeration may find a different one first).
	keep := map[model.MsgID]bool{msgs[1]: true, msgs[2]: true}
	restricted := b.trace(true)
	restricted.X = restricted.X.Restrict(keep)
	if v := KSteppedOrder(1).Check(restricted); v == nil {
		t.Error("the paper's witness restriction {m1', m2} was admitted")
	}
}

// TestKSteppedIsContentNeutral: the k-stepped predicate never inspects
// payloads, so renaming preserves admissibility.
func TestKSteppedIsContentNeutral(t *testing.T) {
	b, _ := paperKSteppedTrace()
	rep, err := CheckContentNeutral(KSteppedOrder(1), b.trace(true), SymmetryOptions{})
	if err != nil {
		t.Fatalf("CheckContentNeutral: %v", err)
	}
	if !rep.Holds {
		t.Errorf("k-stepped should be content-neutral; renaming %v violated: %v", rep.WitnessRenaming, rep.Violation)
	}
}

// --- Experiment E4 bis: First-k Broadcast is NOT compositional (§1.4) ---

func TestFirstKNotCompositional(t *testing.T) {
	b := newTB(2)
	m1 := b.bcast(1, "a")
	m2 := b.bcast(2, "b")
	m3 := b.bcast(1, "c")
	// Both processes deliver m1 first (one distinct first, fine for k=1),
	// then diverge on m2/m3.
	b.deliver(1, m1)
	b.deliver(1, m2)
	b.deliver(1, m3)
	b.deliver(2, m1)
	b.deliver(2, m3)
	b.deliver(2, m2)
	rep, err := CheckCompositional(FirstKOrder(1), b.trace(true), SymmetryOptions{})
	if err != nil {
		t.Fatalf("CheckCompositional: %v", err)
	}
	if rep.Holds {
		t.Fatal("First-1-Order reported compositional; dropping m1 should refute it")
	}
	// Removing m1 exposes the divergent firsts.
	keep := map[model.MsgID]bool{m2: true, m3: true}
	restricted := b.trace(true)
	restricted.X = restricted.X.Restrict(keep)
	if v := FirstKOrder(1).Check(restricted); v == nil {
		t.Error("restriction {m2,m3} was admitted by First-1-Order")
	}
}

// --- Experiment E5: SA-tagged broadcast is NOT content-neutral (§3.3) ---

func TestSATaggedNotContentNeutral(t *testing.T) {
	// Base trace: three plain messages delivered first divergently — the
	// SA-tagged predicate ignores plain payloads, so it is admissible.
	b := kboCliqueTrace(3)
	tr := b.trace(true)
	if v := SATaggedOrder(2).Check(tr); v != nil {
		t.Fatalf("base trace should be admissible: %s", v)
	}
	rep, err := CheckContentNeutral(SATaggedOrder(2), tr, SymmetryOptions{})
	if err != nil {
		t.Fatalf("CheckContentNeutral: %v", err)
	}
	if rep.Holds {
		t.Fatalf("SA-Tagged-2-Order reported content-neutral after %d renamings; injecting SA tags should refute it", rep.Checked)
	}
	if rep.WitnessRenaming == nil {
		t.Error("missing witness renaming")
	}
}

// TestSATaggedIsCompositional: the SA-tagged predicate evaluates the same
// first-delivery rule on any message subset, so restrictions preserve it.
func TestSATaggedIsCompositional(t *testing.T) {
	b := newTB(3)
	// Tagged messages all delivered in a common order, plus plain noise.
	ma := b.bcast(1, SATag(1, "a"))
	noise := b.bcast(2, "noise")
	mb := b.bcast(2, SATag(1, "b"))
	for p := 1; p <= 3; p++ {
		b.deliver(model.ProcID(p), ma)
		b.deliver(model.ProcID(p), noise)
		b.deliver(model.ProcID(p), mb)
	}
	rep, err := CheckCompositional(SATaggedOrder(1), b.trace(true), SymmetryOptions{})
	if err != nil {
		t.Fatalf("CheckCompositional: %v", err)
	}
	if !rep.Holds {
		t.Errorf("SA-tagged should be compositional; subset %v violated: %v", rep.WitnessSubset, rep.Violation)
	}
}

// --- Experiment E11: the classical specs satisfy both symmetry properties ---

func TestClassicalSpecsSymmetric(t *testing.T) {
	// A trace admissible by all classical specs at once: a single common
	// total order respecting FIFO and causality.
	build := func() *tb {
		b := newTB(3)
		m1 := b.bcast(1, "a")
		for p := 1; p <= 3; p++ {
			b.deliver(model.ProcID(p), m1)
		}
		m2 := b.bcast(2, "b")
		for p := 1; p <= 3; p++ {
			b.deliver(model.ProcID(p), m2)
		}
		m3 := b.bcast(1, "c")
		for p := 1; p <= 3; p++ {
			b.deliver(model.ProcID(p), m3)
		}
		return b
	}
	specs := []Spec{
		SendToAll(),
		FIFOBroadcast(),
		CausalBroadcast(),
		TotalOrderBroadcast(),
		KBOBroadcast(1),
		KBOBroadcast(2),
	}
	for _, s := range specs {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			tr := build().trace(true)
			comp, err := CheckCompositional(s, tr, SymmetryOptions{})
			if err != nil {
				t.Fatalf("CheckCompositional: %v", err)
			}
			if !comp.Holds {
				t.Errorf("%s not compositional: subset %v: %v", s.Name(), comp.WitnessSubset, comp.Violation)
			}
			cn, err := CheckContentNeutral(s, tr, SymmetryOptions{})
			if err != nil {
				t.Fatalf("CheckContentNeutral: %v", err)
			}
			if !cn.Holds {
				t.Errorf("%s not content-neutral: %v", s.Name(), cn.Violation)
			}
			if comp.Checked == 0 || cn.Checked == 0 {
				t.Error("testers checked no transformations")
			}
		})
	}
}

// KBO with divergence: still compositional (the conflict graph of a
// restriction is a subgraph, so clique-freeness is preserved).
func TestKBOCompositionalWithConflicts(t *testing.T) {
	b := kboCliqueTrace(3)
	rep, err := CheckCompositional(KBOOrder(3), b.trace(true), SymmetryOptions{})
	if err != nil {
		t.Fatalf("CheckCompositional: %v", err)
	}
	if !rep.Holds {
		t.Errorf("3-BO should be compositional: subset %v: %v", rep.WitnessSubset, rep.Violation)
	}
}

func TestCheckCompositionalRejectsInadmissibleBase(t *testing.T) {
	b := kboCliqueTrace(3)
	if _, err := CheckCompositional(KBOOrder(2), b.trace(true), SymmetryOptions{}); err == nil {
		t.Error("expected error: base trace violates 2-BO")
	}
	if _, err := CheckContentNeutral(KBOOrder(2), b.trace(true), SymmetryOptions{}); err == nil {
		t.Error("expected error: base trace violates 2-BO")
	}
}

func TestCheckCompositionalLargeTraceSampling(t *testing.T) {
	// More messages than MaxExhaustiveMsgs: the structured+random subset
	// path runs. Use a spec that always holds to exercise the plumbing.
	b := newTB(2)
	var ms []model.MsgID
	for i := 0; i < 16; i++ {
		ms = append(ms, b.bcast(model.ProcID(1+i%2), model.Payload(fmt.Sprintf("m%d", i))))
	}
	for _, p := range []model.ProcID{1, 2} {
		for _, m := range ms {
			b.deliver(p, m)
		}
	}
	rep, err := CheckCompositional(TotalOrder(), b.trace(true), SymmetryOptions{MaxExhaustiveMsgs: 4, RandomSubsets: 8, Seed: 1})
	if err != nil {
		t.Fatalf("CheckCompositional: %v", err)
	}
	if !rep.Holds {
		t.Errorf("total order should be compositional: %v", rep.Violation)
	}
	// drop-one(16) + half(1) + per-proc(2) + random(8) = 27
	if rep.Checked != 27 {
		t.Errorf("Checked = %d, want 27", rep.Checked)
	}
}

func TestCheckContentNeutralExtraRenamings(t *testing.T) {
	b := newTB(2)
	m := b.bcast(1, "plain")
	b.deliver(1, m)
	b.deliver(2, m)
	tr := b.trace(true)
	// A spec that rejects a magic payload: trivially not content-neutral,
	// witnessed only through the extra renaming.
	magic := leafSpec("no-magic", func(int) leafChecker { return magicChecker{} })
	rep, err := CheckContentNeutral(magic, tr, SymmetryOptions{
		ExtraRenamings: []model.Renaming{{"plain": "magic"}},
	})
	if err != nil {
		t.Fatalf("CheckContentNeutral: %v", err)
	}
	if rep.Holds {
		t.Error("no-magic spec should fail content-neutrality via the extra renaming")
	}
}

// magicChecker is a test-local leaf that rejects the broadcast of the
// payload "magic".
type magicChecker struct{ safety }

func (magicChecker) kinds() kindSet { return allKinds }

func (magicChecker) feed(i int, s *model.Step, _ int) *Violation {
	if s.Kind == model.KindBroadcastInvoke && s.Payload == "magic" {
		return &Violation{Spec: "no-magic", Property: "Magic", Detail: "magic payload", StepIdx: i}
	}
	return nil
}
