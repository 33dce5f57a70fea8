package broadcast_test

import (
	"fmt"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// TestSATagDeciderSolvesKSA: the SA-tagged solver over the SA-tagged
// broadcast solves k-SA — the per-object election bounds the distinct
// first SA-tagged deliveries.
func TestSATagDeciderSolvesKSA(t *testing.T) {
	c, err := broadcast.Lookup("sa-tagged")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		inputs := []model.Value{"v1", "v2", "v3", "v4"}
		rt, err := sched.New(sched.Config{
			N:            4,
			NewAutomaton: c.NewAutomaton,
			Oracle:       c.OracleFor(2),
			NewApp:       c.SolverFor(),
			Inputs:       inputs,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rt.RunRandom(sched.RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Complete {
			t.Fatalf("seed %d: incomplete", seed)
		}
		if v := spec.KSA(2).Check(tr); v != nil {
			t.Errorf("seed %d: %s", seed, v)
		}
		if v := spec.SATaggedBroadcast(2).Check(tr); v != nil {
			t.Errorf("seed %d: %s", seed, v)
		}
		ix := trace.BuildIndex(tr)
		if got := len(ix.Decisions[sched.DefaultAppObject]); got != 4 {
			t.Errorf("seed %d: %d deciders", seed, got)
		}
	}
}

// TestSATaggedMixedTraffic: tagged and plain messages coexist — plain
// traffic flows without elections, tagged traffic is gated per object.
func TestSATaggedMixedTraffic(t *testing.T) {
	c, err := broadcast.Lookup("sa-tagged")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []sched.BroadcastReq{
		{Proc: 1, Payload: spec.SATag(1, "a")},
		{Proc: 1, Payload: "plain-1"},
		{Proc: 2, Payload: spec.SATag(1, "b")},
		{Proc: 2, Payload: spec.SATag(2, "c")},
		{Proc: 3, Payload: "plain-2"},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		rt, err := sched.New(sched.Config{N: 3, NewAutomaton: c.NewAutomaton, Oracle: c.OracleFor(1)})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rt.RunRandom(sched.RunOptions{Seed: seed, Broadcasts: reqs})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Complete {
			t.Fatalf("seed %d: incomplete", seed)
		}
		for _, s := range []spec.Spec{spec.BasicBroadcast(), spec.SATaggedOrder(1), spec.Channels()} {
			if v := s.Check(tr); v != nil {
				t.Errorf("seed %d: %s", seed, v)
			}
		}
	}
}

// TestDepthDeciderDepths: the depth-d solver delivers d messages before
// deciding and still solves k-SA over first-k.
func TestDepthDeciderDepths(t *testing.T) {
	c, err := broadcast.Lookup("first-k")
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2, 4} {
		rt, err := sched.New(sched.Config{
			N:            3,
			NewAutomaton: c.NewAutomaton,
			Oracle:       c.OracleFor(2),
			NewApp:       broadcast.NewDepthDecider(depth),
			Inputs:       []model.Value{"x1", "x2", "x3"},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rt.RunRandom(sched.RunOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Complete {
			t.Fatalf("depth %d: incomplete", depth)
		}
		if v := spec.KSA(2).Check(tr); v != nil {
			t.Errorf("depth %d: %s", depth, v)
		}
		// Each process broadcasts exactly depth messages.
		ix := trace.BuildIndex(tr)
		for p := 1; p <= 3; p++ {
			if got := len(ix.BroadcastSeq[model.ProcID(p)]); got != depth {
				t.Errorf("depth %d: p%d broadcast %d messages", depth, p, got)
			}
		}
	}
}

// TestFlooderPipelines: the flooder broadcasts its full count, pipelining
// on returns, over any abstraction.
func TestFlooderPipelines(t *testing.T) {
	c, err := broadcast.Lookup("reliable")
	if err != nil {
		t.Fatal(err)
	}
	const count = 5
	rt, err := sched.New(sched.Config{
		N:            3,
		NewAutomaton: c.NewAutomaton,
		NewApp:       broadcast.NewFlooder("chat", count),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rt.RunFair(sched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete {
		t.Fatal("incomplete")
	}
	ix := trace.BuildIndex(tr)
	for p := 1; p <= 3; p++ {
		if got := len(ix.BroadcastSeq[model.ProcID(p)]); got != count {
			t.Errorf("p%d broadcast %d messages, want %d", p, got, count)
		}
		if got := len(ix.Deliveries[model.ProcID(p)]); got != 3*count {
			t.Errorf("p%d delivered %d, want %d", p, got, 3*count)
		}
	}
	if v := spec.BasicBroadcast().Check(tr); v != nil {
		t.Error(v)
	}
}

// TestFirstDeciderIgnoresLateDeliveries: decisions are one-shot.
func TestFirstDeciderIgnoresLateDeliveries(t *testing.T) {
	app := broadcast.NewFirstDecider(1)
	env := &fakeAppEnv{}
	app.Init(env, "mine")
	app.OnDeliver(env, 2, 5, "other")
	app.OnDeliver(env, 3, 6, "late")
	app.OnReturn(env, 1)
	if env.decided != "other" || env.decisions != 1 {
		t.Errorf("decided %q (%d times)", env.decided, env.decisions)
	}
	if len(env.broadcasts) != 1 || env.broadcasts[0] != "mine" {
		t.Errorf("broadcasts: %v", env.broadcasts)
	}
}

// fakeAppEnv is a minimal AppEnv for direct app unit tests.
type fakeAppEnv struct {
	broadcasts []model.Payload
	decided    model.Value
	decisions  int
}

var _ sched.AppEnv = (*fakeAppEnv)(nil)

func (f *fakeAppEnv) ID() model.ProcID { return 1 }
func (f *fakeAppEnv) N() int           { return 3 }
func (f *fakeAppEnv) Broadcast(p model.Payload) {
	f.broadcasts = append(f.broadcasts, p)
}
func (f *fakeAppEnv) Decide(v model.Value) {
	f.decisions++
	if f.decisions == 1 {
		f.decided = v
	}
}

// TestSATagDeciderIgnoresForeignTags: deliveries of other objects' tags
// and plain payloads do not decide.
func TestSATagDeciderIgnoresForeignTags(t *testing.T) {
	app := broadcast.NewSATagDecider(1)
	env := &fakeAppEnv{}
	app.Init(env, "v")
	app.OnDeliver(env, 2, 5, "plain")
	app.OnDeliver(env, 2, 6, spec.SATag(9, "other-object"))
	if env.decisions != 0 {
		t.Fatal("decided on a non-matching payload")
	}
	app.OnDeliver(env, 3, 7, spec.SATag(1, "w"))
	app.OnReturn(env, 1)
	if env.decided != "w" || env.decisions != 1 {
		t.Errorf("decided %q (%d)", env.decided, env.decisions)
	}
	if len(env.broadcasts) != 1 || env.broadcasts[0] != spec.SATag(1, "v") {
		t.Errorf("broadcasts: %v", env.broadcasts)
	}
}

// TestDepthDeciderUnit: depth counting and first-value capture.
func TestDepthDeciderUnit(t *testing.T) {
	app := broadcast.NewDepthDecider(3)(1)
	env := &fakeAppEnv{}
	app.Init(env, "in")
	app.OnReturn(env, 1)
	app.OnReturn(env, 2)
	app.OnReturn(env, 3) // beyond depth: no further broadcast
	if len(env.broadcasts) != 3 {
		t.Fatalf("broadcasts: %v", env.broadcasts)
	}
	app.OnDeliver(env, 1, 1, "first")
	app.OnDeliver(env, 1, 2, "second")
	if env.decisions != 0 {
		t.Fatal("decided before reaching depth")
	}
	app.OnDeliver(env, 1, 3, "third")
	if env.decided != "first" || env.decisions != 1 {
		t.Errorf("decided %q (%d)", env.decided, env.decisions)
	}
	app.OnDeliver(env, 1, 4, "extra")
	if env.decisions != 1 {
		t.Error("decided twice")
	}
}

// TestRoundAgreementInitNoop covers the trivial Init paths of the
// diffusion automata (no state depends on Init except Causal's clock).
func TestRoundAgreementInitNoop(t *testing.T) {
	for _, name := range []string{"total-order", "fifo", "first-k", "k-stepped", "sa-tagged"} {
		c, err := broadcast.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a := c.NewAutomaton(1)
		a.Init(sched.NewEnv(1, 3)) // must not panic or emit anything
	}
}

// TestOnDecideIgnoredByOracleFreeAutomata: stray decisions do not disturb
// the diffusion automata.
func TestOnDecideIgnoredByOracleFreeAutomata(t *testing.T) {
	for _, name := range []string{"send-to-all", "reliable", "fifo", "causal", "mutual"} {
		c, err := broadcast.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a := c.NewAutomaton(1)
		env := sched.NewEnv(1, 3)
		a.Init(env)
		a.OnDecide(env, 99, "stray")
		if got := len(env.TakeActions(nil)); got != 0 {
			t.Errorf("%s: stray decide emitted %d actions", name, got)
		}
	}
}

// TestSolverForDefault: candidates without a dedicated solver fall back to
// FirstDecider.
func TestSolverForDefault(t *testing.T) {
	c, err := broadcast.Lookup("first-k")
	if err != nil {
		t.Fatal(err)
	}
	app := c.SolverFor()(1)
	if _, ok := app.(*broadcast.FirstDecider); !ok {
		t.Errorf("default solver is %T, want *FirstDecider", app)
	}
	c2, err := broadcast.Lookup("sa-tagged")
	if err != nil {
		t.Fatal(err)
	}
	app2 := c2.SolverFor()(1)
	if _, ok := app2.(*broadcast.SATagDecider); !ok {
		t.Errorf("sa-tagged solver is %T, want *SATagDecider", app2)
	}
}

// TestMalformedDecidedValuesIgnored: automata tolerate decided values that
// do not decode as message records.
func TestMalformedDecidedValuesIgnored(t *testing.T) {
	for _, name := range []string{"total-order", "first-k", "k-stepped", "sa-tagged"} {
		c, err := broadcast.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a := c.NewAutomaton(1)
		env := sched.NewEnv(1, 2)
		a.Init(env)
		a.OnDecide(env, 1, "not-json")
		for _, act := range env.TakeActions(nil) {
			if act.Kind == model.KindDeliver {
				t.Errorf("%s delivered from a malformed decision", name)
			}
		}
	}
}

// TestStdBroadcastsShape sanity-checks the test helper itself.
func TestStdBroadcastsShape(t *testing.T) {
	reqs := stdBroadcasts(3, 2)
	if len(reqs) != 6 {
		t.Fatalf("len = %d", len(reqs))
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		key := fmt.Sprintf("%v-%s", r.Proc, r.Payload)
		if seen[key] {
			t.Errorf("duplicate request %s", key)
		}
		seen[key] = true
	}
}
