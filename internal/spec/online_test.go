package spec

import (
	"fmt"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/trace"
)

// Tests for the incremental checking layer: the online checkers must be
// observationally equivalent to the whole-trace reference predicates of
// reference_test.go (differential test over the full registry), must latch
// (online prefix-monotonicity), and must run in O(state) memory on
// unbounded streams (the million-delivery test feeds steps that are never
// stored).

// registryUnderTest instantiates every registry entry at the degrees the
// tests sweep.
func registryUnderTest() []struct {
	label string
	e     Entry
	s     Spec
} {
	var out []struct {
		label string
		e     Entry
		s     Spec
	}
	for _, e := range Registry() {
		ks := []int{1}
		if e.Parameterized {
			ks = []int{1, 2}
		}
		for _, k := range ks {
			label := e.Key
			if e.Parameterized {
				label = fmt.Sprintf("%s/k=%d", e.Key, k)
			}
			out = append(out, struct {
				label string
				e     Entry
				s     Spec
			}{label, e, e.New(k)})
		}
	}
	return out
}

// genTraceFull extends genTrace with the step kinds the broadcast-level
// generator omits: set-delivery Batch tags (for the SCD family), k-SA
// propositions and decisions (for the k-SA spec), and crashes (for
// well-formedness and uniform termination). The extra steps are random, so
// the k-SA clauses are violated often — which is what a differential test
// wants.
func genTraceFull(src *rng.Source, n, msgs int) *trace.Trace {
	tr := genTrace(src, n, msgs)
	x := tr.X
	// Sprinkle Batch tags over the deliveries: runs of consecutive
	// deliveries by one process occasionally share a positive batch id.
	batch := int64(0)
	for i := range x.Steps {
		if x.Steps[i].Kind != model.KindDeliver {
			continue
		}
		switch src.Intn(3) {
		case 0: // start a new set
			batch++
			x.Steps[i].Batch = batch
		case 1: // join the current set, if any
			if batch > 0 {
				x.Steps[i].Batch = batch
			}
		}
	}
	// Interleave a few k-SA propose/decide pairs and the odd crash.
	vals := []model.Value{"a", "b", "c"}
	out := make([]model.Step, 0, len(x.Steps)+8)
	for _, s := range x.Steps {
		out = append(out, s)
		if src.Intn(8) == 0 {
			p := model.ProcID(1 + src.Intn(n))
			obj := model.KSAID(1 + src.Intn(2))
			out = append(out, model.Step{Proc: p, Kind: model.KindPropose, Obj: obj, Val: vals[src.Intn(len(vals))]})
			if src.Bool() {
				out = append(out, model.Step{Proc: p, Kind: model.KindDecide, Obj: obj, Val: vals[src.Intn(len(vals))]})
			}
		}
		if src.Intn(40) == 0 {
			out = append(out, model.Step{Proc: model.ProcID(1 + src.Intn(n)), Kind: model.KindCrash})
		}
	}
	x.Steps = out
	return tr
}

// TestOnlineEqualsBatch is the differential test of the leaf checkers: for
// every registry spec, Check must produce the same verdict as the spec's
// reference predicates taken in declaration order, composites included.
// The online checker of a one-leaf spec must produce that verdict too; for
// a composite it blames the leaf violated earliest rather than the first
// declared, so it must agree with them on admissibility only. Specs whose
// checkers latch at the exact reference step index are additionally
// compared on StepIdx.
func TestOnlineEqualsBatch(t *testing.T) {
	src := rng.New(412)
	specs := registryUnderTest()
	for round := 0; round < 80; round++ {
		tr := genTraceFull(src.Split(), 3, 5)
		for _, complete := range []bool{false, true} {
			tr.Complete = complete
			for _, su := range specs {
				ref := checkReference(su.s, tr)
				got := su.s.Check(tr)
				online := RunChecker(NewCheckerFor(su.s, tr.X.N), tr)
				if !SameVerdict(ref, got) {
					t.Fatalf("round %d complete=%v: %s verdicts diverge: reference=%v check=%v\ntrace:\n%s",
						round, complete, su.label, ref, got, tr.X)
				}
				if len(su.s.leaves) > 1 {
					if (ref == nil) != (online == nil) {
						t.Fatalf("round %d complete=%v: %s admissibility diverges: reference=%v online=%v\ntrace:\n%s",
							round, complete, su.label, ref, online, tr.X)
					}
					continue
				}
				if !SameVerdict(ref, online) {
					t.Fatalf("round %d complete=%v: %s verdicts diverge: reference=%v online=%v\ntrace:\n%s",
						round, complete, su.label, ref, online, tr.X)
				}
				if su.e.ExactStep && ref != nil && (ref.StepIdx != got.StepIdx || ref.StepIdx != online.StepIdx) {
					t.Fatalf("round %d complete=%v: %s step index diverges: reference=%d check=%d online=%d\ntrace:\n%s",
						round, complete, su.label, ref.StepIdx, got.StepIdx, online.StepIdx, tr.X)
				}
			}
		}
	}
}

// TestOnlineEqualsBatchOnCorners pins the conflict-family checkers on the
// corner the random generator never produces: deliveries that precede (or
// lack) the corresponding broadcast. Their streams park such deliveries
// until the broadcast arrives, which must reproduce the reference
// predicates' broadcast-only scans exactly.
func TestOnlineEqualsBatchOnCorners(t *testing.T) {
	n := 3
	b := func(p model.ProcID, m model.MsgID) []model.Step {
		return []model.Step{
			{Proc: p, Kind: model.KindBroadcastInvoke, Msg: m, Payload: model.Payload(fmt.Sprintf("c%d", m))},
			{Proc: p, Kind: model.KindBroadcastReturn, Msg: m},
		}
	}
	d := func(p, from model.ProcID, m model.MsgID) model.Step {
		return model.Step{Proc: p, Kind: model.KindDeliver, Peer: from, Msg: m, Payload: model.Payload(fmt.Sprintf("c%d", m))}
	}
	cat := func(groups ...[]model.Step) *trace.Trace {
		x := model.NewExecution(n)
		for _, g := range groups {
			x.Append(g...)
		}
		return &trace.Trace{X: x}
	}
	corners := map[string]*trace.Trace{
		// Both deliveries of m2 precede its broadcast; the opposite orders
		// at p1/p2 still form a Total-Order conflict.
		"deliver-before-broadcast": cat(
			b(1, 1),
			[]model.Step{d(1, 1, 1), d(1, 2, 2), d(2, 2, 2), d(2, 1, 1)},
			b(2, 2),
		),
		// m2 is never broadcast at all: the reference conflict scan
		// (broadcast messages only) ignores it, so no conflict exists.
		"never-broadcast": cat(
			b(1, 1),
			[]model.Step{d(1, 1, 1), d(1, 2, 2), d(2, 2, 2), d(2, 1, 1)},
		),
		// A delivery by a process id outside 1..n: the reference pair scans
		// never look at it.
		"foreign-proc": cat(
			b(1, 1), b(2, 2),
			[]model.Step{d(9, 1, 1), d(9, 2, 2), d(1, 1, 1), d(1, 2, 2), d(2, 2, 2), d(2, 1, 1)},
		),
	}
	conflictFamily := []Spec{TotalOrder(), KBOOrder(1), KBOOrder(2), SCDOrder(), KSCDOrder(1), MutualOrder(), FirstKOrder(1)}
	for name, tr := range corners {
		for _, s := range conflictFamily {
			ref := checkReference(s, tr)
			online := RunChecker(NewCheckerFor(s, tr.X.N), tr)
			if (ref == nil) != (online == nil) {
				t.Errorf("%s: %s diverges: reference=%v online=%v", name, s.Name(), ref, online)
			}
		}
	}
}

// TestOnlineCheckersLatch: once a checker returns a violation, every later
// Feed and Finish returns that same violation — the online counterpart of
// prefix monotonicity, table-driven over the full registry.
func TestOnlineCheckersLatch(t *testing.T) {
	src := rng.New(733)
	specs := registryUnderTest()
	for round := 0; round < 40; round++ {
		tr := genTraceFull(src.Split(), 3, 5)
		for _, su := range specs {
			c := NewCheckerFor(su.s, tr.X.N)
			var first *Violation
			for i, s := range tr.X.Steps {
				v := c.Feed(s)
				if first == nil {
					first = v
					continue
				}
				if v != first {
					t.Fatalf("round %d: %s did not latch at step %d: had %v, now %v", round, su.label, i, first, v)
				}
			}
			if fin := c.Finish(true); first != nil && fin != first {
				t.Fatalf("round %d: %s Finish broke the latch: had %v, got %v", round, su.label, first, fin)
			}
		}
	}
}

// TestBatchPrefixMonotoneRegistry: the reference predicates of every
// pure-safety registry entry are prefix-monotone — a violated prefix means
// a violated full trace. (Liveness entries are excluded: an incomplete
// prefix can be inadmissible for a pending delivery the full trace
// performs.)
func TestBatchPrefixMonotoneRegistry(t *testing.T) {
	src := rng.New(881)
	specs := registryUnderTest()
	for round := 0; round < 25; round++ {
		tr := genTraceFull(src.Split(), 3, 4)
		for _, su := range specs {
			if su.e.Liveness {
				continue
			}
			full := checkReference(su.s, tr) != nil
			for cut := 0; cut <= tr.X.Len(); cut++ {
				prefix := &trace.Trace{X: &model.Execution{N: tr.X.N, Steps: tr.X.Steps[:cut]}}
				if checkReference(su.s, prefix) != nil && !full {
					t.Fatalf("round %d: %s violated at prefix %d but not on the full trace:\n%s", round, su.label, cut, tr.X)
				}
			}
		}
	}
}

// conflictHeavyTrace builds a trace whose conflict graph is a large
// clique-free mess: every pair of messages is delivered in opposite orders
// by some pair of processes, forcing the clique search to do real work.
func conflictHeavyTrace(n, msgs int) *trace.Trace {
	x := model.NewExecution(n)
	for m := 1; m <= msgs; m++ {
		p := model.ProcID(1 + (m-1)%n)
		x.Append(
			model.Step{Proc: p, Kind: model.KindBroadcastInvoke, Msg: model.MsgID(m), Payload: model.Payload(fmt.Sprintf("h%d", m))},
			model.Step{Proc: p, Kind: model.KindBroadcastReturn, Msg: model.MsgID(m)},
		)
	}
	// p1 delivers in ascending order, p2 in descending: every pair
	// conflicts, so the conflict graph is a complete graph on msgs nodes.
	for m := 1; m <= msgs; m++ {
		p := model.ProcID(1 + (m-1)%n)
		x.Append(model.Step{Proc: 1, Kind: model.KindDeliver, Peer: p, Msg: model.MsgID(m), Payload: model.Payload(fmt.Sprintf("h%d", m))})
	}
	for m := msgs; m >= 1; m-- {
		p := model.ProcID(1 + (m-1)%n)
		x.Append(model.Step{Proc: 2, Kind: model.KindDeliver, Peer: p, Msg: model.MsgID(m), Payload: model.Payload(fmt.Sprintf("h%d", m))})
	}
	return &trace.Trace{X: x}
}

// TestCliqueBudget: the bounded clique search reports a distinct
// "budget exceeded" violation instead of hanging when the conflict graph
// is too dense for the configured budget.
func TestCliqueBudget(t *testing.T) {
	tr := conflictHeavyTrace(3, 12)

	// Sanity: with the default budget the search completes and finds a
	// genuine clique violation.
	if v := KBOOrder(2).Check(tr); v == nil || v.Property == PropCliqueBudget {
		t.Fatalf("default budget: want a genuine 2-BO violation, got %v", v)
	}

	// A starved checker must fail with the budget violation, not a wrong
	// admissibility answer and not a hang.
	starved := leafSpec("2-BO-Broadcast", func(n int) leafChecker {
		return newCliqueChecker(n, 11, false, "2-BO-Broadcast", "k-Bounded-Order", kboCliqueDetail, 5)
	})
	v := RunChecker(NewCheckerFor(starved, 3), tr)
	if v == nil || v.Property != PropCliqueBudget {
		t.Fatalf("budget=5: want %s violation, got %v", PropCliqueBudget, v)
	}

	// findCliqueBudget itself: exceeded is reported, and with a generous
	// budget the same inputs yield the clique.
	ix := tr.Index()
	pairs := conflictPairs(tr.X.N, ix, 0)
	adj := make(map[model.MsgID]map[model.MsgID]bool)
	nodes := make(map[model.MsgID]bool)
	for _, c := range pairs {
		if adj[c.a] == nil {
			adj[c.a] = make(map[model.MsgID]bool)
		}
		if adj[c.b] == nil {
			adj[c.b] = make(map[model.MsgID]bool)
		}
		adj[c.a][c.b], adj[c.b][c.a] = true, true
		nodes[c.a], nodes[c.b] = true, true
	}
	var all []model.MsgID
	for m := range nodes {
		all = append(all, m)
	}
	tiny := 3
	if _, exceeded := findCliqueBudget(all, adj, 6, &tiny); !exceeded {
		t.Fatalf("budget=3: search of a 12-node complete graph should exhaust the budget")
	}
	big := 1 << 20
	clique, exceeded := findCliqueBudget(all, adj, 6, &big)
	if exceeded || len(clique) != 6 {
		t.Fatalf("budget=1<<20: want a 6-clique, got %v (exceeded=%v)", clique, exceeded)
	}
}

// TestStreamingMillionDeliveries checks FIFO and causal order over a
// million-delivery execution without ever materializing it: steps are
// synthesized one at a time and fed straight to the monitor, so only the
// checkers' summary state (per-sender cursors and vector-clock frontiers)
// is resident.
func TestStreamingMillionDeliveries(t *testing.T) {
	const n = 5
	const msgs = 200_000 // × n deliveries = 1M deliveries
	mon := NewMonitor(n, FIFOOrder(), CausalOrder())
	feed := func(s model.Step) {
		if v := mon.Feed(s); v != nil {
			t.Fatalf("step %d: unexpected violation: %v", mon.Steps()-1, v)
		}
	}
	for m := 1; m <= msgs; m++ {
		from := model.ProcID(1 + (m-1)%n)
		pay := model.Payload(fmt.Sprintf("s%d", m))
		feed(model.Step{Proc: from, Kind: model.KindBroadcastInvoke, Msg: model.MsgID(m), Payload: pay})
		feed(model.Step{Proc: from, Kind: model.KindBroadcastReturn, Msg: model.MsgID(m)})
		// Everyone delivers in global broadcast order: FIFO- and
		// causal-admissible.
		for p := 1; p <= n; p++ {
			feed(model.Step{Proc: model.ProcID(p), Kind: model.KindDeliver, Peer: from, Msg: model.MsgID(m), Payload: pay})
		}
	}
	if v := mon.Finish(false); v != nil {
		t.Fatalf("finish: unexpected violation: %v", v)
	}
	if want := msgs * (2 + n); mon.Steps() != want {
		t.Fatalf("monitor saw %d steps, want %d", mon.Steps(), want)
	}
}

// TestMonitorVerdicts: the monitor latches per-spec verdicts independently
// and Finish is idempotent.
func TestMonitorVerdicts(t *testing.T) {
	n := 2
	x := model.NewExecution(n)
	x.Append(
		model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 1, Payload: "a"},
		model.Step{Proc: 1, Kind: model.KindBroadcastReturn, Msg: 1},
		model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 2, Payload: "b"},
		model.Step{Proc: 1, Kind: model.KindBroadcastReturn, Msg: 2},
		// p2 delivers p1's second message with the first still missing:
		// the FIFO checker latches right here, at step 4.
		model.Step{Proc: 2, Kind: model.KindDeliver, Peer: 1, Msg: 2, Payload: "b"},
		model.Step{Proc: 2, Kind: model.KindDeliver, Peer: 1, Msg: 1, Payload: "a"},
	)
	tr := &trace.Trace{X: x}
	mon := NewMonitor(n, FIFOOrder(), BasicBroadcast())
	var firstIdx int
	for i, s := range tr.X.Steps {
		if v := mon.Feed(s); v != nil {
			firstIdx = i
			break
		}
	}
	if v, idx := mon.Violation(); v == nil || idx != firstIdx || idx != 4 {
		t.Fatalf("want FIFO violation latched at step 4, got %v at %d", v, idx)
	}
	if v, ok := mon.Verdict(FIFOOrder().Name()); !ok || v == nil {
		t.Fatalf("FIFO verdict not latched: %v %v", v, ok)
	}
	if v, ok := mon.Verdict(BasicBroadcast().Name()); !ok || v != nil {
		t.Fatalf("Basic should be clean so far: %v %v", v, ok)
	}
	v1 := mon.Finish(false)
	v2 := mon.Finish(false)
	if v1 != v2 {
		t.Fatalf("Finish not idempotent: %v vs %v", v1, v2)
	}
}
