package model

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildSample returns a small execution exercising every step kind:
// p1 broadcasts m1, sends it to p2, p2 receives and delivers it, both touch
// a k-SA object, and p2 crashes at the end.
func buildSample() *Execution {
	x := NewExecution(3)
	x.Append(
		Step{Proc: 1, Kind: KindBroadcastInvoke, Msg: 1, Payload: "a"},
		Step{Proc: 1, Kind: KindSend, Peer: 2, Msg: 1, Payload: "a"},
		Step{Proc: 1, Kind: KindDeliver, Peer: 1, Msg: 1, Payload: "a"},
		Step{Proc: 1, Kind: KindBroadcastReturn, Msg: 1},
		Step{Proc: 2, Kind: KindReceive, Peer: 1, Msg: 1, Payload: "a"},
		Step{Proc: 2, Kind: KindDeliver, Peer: 1, Msg: 1, Payload: "a"},
		Step{Proc: 2, Kind: KindPropose, Obj: 1, Val: "v2"},
		Step{Proc: 2, Kind: KindDecide, Obj: 1, Val: "v2"},
		Step{Proc: 1, Kind: KindPropose, Obj: 1, Val: "v1"},
		Step{Proc: 1, Kind: KindDecide, Obj: 1, Val: "v2"},
		Step{Proc: 3, Kind: KindBroadcastInvoke, Msg: 2, Payload: "b"},
		Step{Proc: 3, Kind: KindDeliver, Peer: 3, Msg: 2, Payload: "b"},
		Step{Proc: 3, Kind: KindBroadcastReturn, Msg: 2},
		Step{Proc: 2, Kind: KindCrash},
	)
	return x
}

func TestStepString(t *testing.T) {
	tests := []struct {
		step Step
		want string
	}{
		{Step{Proc: 1, Kind: KindSend, Peer: 2, Msg: 7, Payload: "x"}, `<p1: send m7("x") to p2>`},
		{Step{Proc: 2, Kind: KindReceive, Peer: 1, Msg: 7, Payload: "x"}, `<p2: receive m7("x") from p1>`},
		{Step{Proc: 1, Kind: KindBroadcastInvoke, Msg: 3, Payload: "m"}, `<p1: B.broadcast(m3("m"))>`},
		{Step{Proc: 1, Kind: KindBroadcastReturn, Msg: 3}, `<p1: return from B.broadcast(m3)>`},
		{Step{Proc: 2, Kind: KindDeliver, Peer: 1, Msg: 3, Payload: "m"}, `<p2: B.deliver m3("m") from p1>`},
		{Step{Proc: 1, Kind: KindPropose, Obj: 4, Val: "v"}, `<p1: ksa4.propose("v")>`},
		{Step{Proc: 1, Kind: KindDecide, Obj: 4, Val: "w"}, `<p1: ksa4.decide("w")>`},
		{Step{Proc: 1, Kind: KindInternal, Note: "tick"}, `<p1: internal tick>`},
		{Step{Proc: 1, Kind: KindCrash}, `<p1: crash>`},
	}
	for _, tt := range tests {
		if got := tt.step.String(); got != tt.want {
			t.Errorf("Step.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestStepKindString(t *testing.T) {
	kinds := []StepKind{KindSend, KindReceive, KindBroadcastInvoke, KindBroadcastReturn,
		KindDeliver, KindPropose, KindDecide, KindInternal, KindCrash}
	seen := make(map[string]bool)
	for _, k := range kinds {
		if !k.Valid() {
			t.Errorf("kind %d should be valid", int(k))
		}
		s := k.String()
		if s == "" || strings.HasPrefix(s, "StepKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if StepKind(0).Valid() || StepKind(99).Valid() || StepKind(-1).Valid() || (KindCrash + 1).Valid() {
		t.Error("invalid kinds reported valid")
	}
	if got := StepKind(99).String(); got != "StepKind(99)" {
		t.Errorf("StepKind(99).String() = %q", got)
	}
}

func TestProcIDString(t *testing.T) {
	if got := ProcID(3).String(); got != "p3" {
		t.Errorf("ProcID(3).String() = %q, want p3", got)
	}
	if got := NoProc.String(); got != "p?" {
		t.Errorf("NoProc.String() = %q, want p?", got)
	}
	if got := KSAID(2).String(); got != "ksa2" {
		t.Errorf("KSAID(2).String() = %q", got)
	}
	if got := NoKSA.String(); got != "ksa?" {
		t.Errorf("NoKSA.String() = %q", got)
	}
}

func TestCorrect(t *testing.T) {
	x := buildSample()
	if !x.Correct(1) {
		t.Error("p1 should be correct")
	}
	if x.Correct(2) {
		t.Error("p2 crashed, should be faulty")
	}
	cs := x.CorrectSet()
	if !cs[1] || cs[2] || !cs[3] {
		t.Errorf("CorrectSet = %v", cs)
	}
	// As in CorrectSet, an id outside p1..pN is no correct process.
	for _, p := range []ProcID{0, ProcID(x.N + 1), 15} {
		if x.Correct(p) || cs[p] {
			t.Errorf("%v is outside p1..p%d but counts as correct", p, x.N)
		}
	}
}

func TestMessagesAndOrders(t *testing.T) {
	x := buildSample()
	msgs := x.Messages()
	if len(msgs) != 2 || msgs[0] != 1 || msgs[1] != 2 {
		t.Fatalf("Messages() = %v, want [1 2]", msgs)
	}
	if got := x.DeliveryOrder(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("DeliveryOrder(2) = %v", got)
	}
	if got := x.BroadcastOrder(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("BroadcastOrder(1) = %v", got)
	}
	if got := x.Broadcaster(2); got != 3 {
		t.Errorf("Broadcaster(2) = %v, want p3", got)
	}
	if got := x.Broadcaster(42); got != NoProc {
		t.Errorf("Broadcaster(42) = %v, want NoProc", got)
	}
	if got := x.PayloadOf(1); got != "a" {
		t.Errorf("PayloadOf(1) = %q", got)
	}
	if got := x.PayloadOf(42); got != "" {
		t.Errorf("PayloadOf(42) = %q, want empty", got)
	}
}

func TestDecidedValues(t *testing.T) {
	x := buildSample()
	dv := x.DecidedValues()
	vals := dv[1]
	if len(vals) != 1 || vals[0] != "v2" {
		t.Errorf("DecidedValues()[1] = %v, want [v2]", vals)
	}
}

func TestRestrict(t *testing.T) {
	x := buildSample()
	r := x.Restrict(map[MsgID]bool{1: true})
	for _, s := range r.Steps {
		if s.IsBroadcastEvent() && s.Msg != 1 {
			t.Errorf("restricted execution contains broadcast event for m%d", s.Msg)
		}
	}
	// Non-broadcast steps are preserved.
	var sends, proposes int
	for _, s := range r.Steps {
		switch s.Kind {
		case KindSend:
			sends++
		case KindPropose:
			proposes++
		}
	}
	if sends != 1 || proposes != 2 {
		t.Errorf("restriction dropped non-broadcast steps: sends=%d proposes=%d", sends, proposes)
	}
	// Restriction to the full message set is the identity on broadcast events.
	all := map[MsgID]bool{1: true, 2: true}
	full := x.Restrict(all)
	if full.Len() != x.Len() {
		t.Errorf("restriction to full set changed length: %d != %d", full.Len(), x.Len())
	}
}

func TestRestrictBroadcastOnly(t *testing.T) {
	x := buildSample()
	r := x.RestrictBroadcastOnly(map[MsgID]bool{2: true})
	if r.Len() != 3 {
		t.Fatalf("expected 3 broadcast events for m2, got %d:\n%s", r.Len(), r)
	}
	for _, s := range r.Steps {
		if !s.IsBroadcastEvent() || s.Msg != 2 {
			t.Errorf("unexpected step %v", s)
		}
	}
}

func TestProjectProc(t *testing.T) {
	x := buildSample()
	p2 := x.ProjectProc(2)
	if p2.Len() != 5 {
		t.Fatalf("ProjectProc(2) has %d steps, want 5", p2.Len())
	}
	for _, s := range p2.Steps {
		if s.Proc != 2 {
			t.Errorf("projection contains step of %v", s.Proc)
		}
	}
}

func TestProjectBroadcast(t *testing.T) {
	x := buildSample()
	b := x.ProjectBroadcast()
	for _, s := range b.Steps {
		if !s.IsBroadcastEvent() {
			t.Errorf("β projection contains non-broadcast step %v", s)
		}
	}
	if b.Len() != 7 {
		t.Errorf("β projection has %d steps, want 7", b.Len())
	}
}

func TestRenameInjective(t *testing.T) {
	x := buildSample()
	y, err := x.Rename(Renaming{"a": "z"})
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if got := y.PayloadOf(1); got != "z" {
		t.Errorf("renamed payload = %q, want z", got)
	}
	if got := y.PayloadOf(2); got != "b" {
		t.Errorf("unmapped payload changed: %q", got)
	}
	// Non-broadcast steps keep their payloads (the substitution is on
	// broadcast messages; the send of m1 belongs to the lower layer).
	if y.Steps[1].Payload != "a" {
		t.Errorf("send payload changed by Rename: %q", y.Steps[1].Payload)
	}
}

func TestRenameRejectsNonInjective(t *testing.T) {
	x := buildSample()
	if _, err := x.Rename(Renaming{"a": "b"}); err == nil {
		t.Error("expected injectivity error mapping a onto existing b")
	}
	if _, err := x.Rename(Renaming{"a": "c", "b": "c"}); err == nil {
		t.Error("expected injectivity error for a,b -> c")
	}
}

func TestRenamingValidate(t *testing.T) {
	r := Renaming{"a": "b", "b": "a"}
	if err := r.Validate([]Payload{"a", "b"}); err != nil {
		t.Errorf("swap should be injective: %v", err)
	}
}

func TestRenameByMsg(t *testing.T) {
	x := buildSample()
	y := x.RenameByMsg(map[MsgID]Payload{1: "solo-1"})
	if got := y.PayloadOf(1); got != "solo-1" {
		t.Errorf("RenameByMsg payload = %q", got)
	}
	if got := y.PayloadOf(2); got != "b" {
		t.Errorf("unmapped message changed: %q", got)
	}
	// Deliveries of m1 carry the new payload too.
	for _, s := range y.Steps {
		if s.Kind == KindDeliver && s.Msg == 1 && s.Payload != "solo-1" {
			t.Errorf("delivery payload not substituted: %v", s)
		}
	}
}

func TestClone(t *testing.T) {
	x := buildSample()
	c := x.Clone()
	c.Steps[0].Payload = "mutated"
	if x.Steps[0].Payload == "mutated" {
		t.Error("Clone shares step storage with the original")
	}
}

func TestExecutionString(t *testing.T) {
	x := buildSample()
	s := x.String()
	if !strings.Contains(s, "B.broadcast") || !strings.Contains(s, "crash") {
		t.Errorf("String() missing content:\n%s", s)
	}
}

// Property: Restrict then Restrict with the same set is idempotent.
func TestRestrictIdempotent(t *testing.T) {
	x := buildSample()
	keep := map[MsgID]bool{1: true}
	once := x.Restrict(keep)
	twice := once.Restrict(keep)
	if once.Len() != twice.Len() {
		t.Errorf("Restrict not idempotent: %d then %d steps", once.Len(), twice.Len())
	}
}

// Property (testing/quick): renaming by a generated injection preserves the
// step structure — kinds, processes, and message identities are unchanged.
func TestRenamePreservesStructureQuick(t *testing.T) {
	f := func(seed uint8) bool {
		x := buildSample()
		// Derive an injective renaming from the seed by suffixing.
		r := Renaming{
			"a": Payload("a" + strings.Repeat("x", int(seed%5)+1)),
			"b": Payload("b" + strings.Repeat("y", int(seed%7)+1)),
		}
		y, err := x.Rename(r)
		if err != nil {
			return false
		}
		if y.Len() != x.Len() {
			return false
		}
		for i := range x.Steps {
			a, b := x.Steps[i], y.Steps[i]
			if a.Kind != b.Kind || a.Proc != b.Proc || a.Msg != b.Msg || a.Peer != b.Peer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the per-process projections partition the execution's steps.
func TestProjectionsPartitionQuick(t *testing.T) {
	x := buildSample()
	total := 0
	for p := 1; p <= x.N; p++ {
		total += x.ProjectProc(ProcID(p)).Len()
	}
	if total != x.Len() {
		t.Errorf("projections cover %d steps, execution has %d", total, x.Len())
	}
}

// Property: restriction and renaming commute — renaming then restricting
// equals restricting then renaming (they touch disjoint aspects of steps).
func TestRestrictRenameCommuteQuick(t *testing.T) {
	f := func(mask uint8) bool {
		x := buildSample()
		keep := map[MsgID]bool{}
		if mask&1 != 0 {
			keep[1] = true
		}
		if mask&2 != 0 {
			keep[2] = true
		}
		r := Renaming{"a": "z1", "b": "z2"}
		a, err := x.Restrict(keep).Rename(r)
		if err != nil {
			return false
		}
		b0, err := x.Rename(r)
		if err != nil {
			return false
		}
		b := b0.Restrict(keep)
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Steps {
			if a.Steps[i] != b.Steps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ProjectBroadcast of a restriction equals RestrictBroadcastOnly.
func TestRestrictBroadcastOnlyConsistent(t *testing.T) {
	x := buildSample()
	keep := map[MsgID]bool{1: true}
	a := x.Restrict(keep).ProjectBroadcast()
	b := x.RestrictBroadcastOnly(keep)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Errorf("step %d differs: %v vs %v", i, a.Steps[i], b.Steps[i])
		}
	}
}

// Property: renaming with the identity map is the identity.
func TestRenameIdentity(t *testing.T) {
	x := buildSample()
	y, err := x.Rename(Renaming{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Steps {
		if x.Steps[i] != y.Steps[i] {
			t.Errorf("identity renaming changed step %d", i)
		}
	}
}

// Property: renaming twice by r then its inverse restores the original.
func TestRenameInvertible(t *testing.T) {
	x := buildSample()
	r := Renaming{"a": "tmp-a", "b": "tmp-b"}
	inv := Renaming{"tmp-a": "a", "tmp-b": "b"}
	y, err := x.Rename(r)
	if err != nil {
		t.Fatal(err)
	}
	z, err := y.Rename(inv)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Steps {
		if x.Steps[i] != z.Steps[i] {
			t.Errorf("round-trip changed step %d: %v vs %v", i, x.Steps[i], z.Steps[i])
		}
	}
}
