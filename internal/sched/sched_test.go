package sched

import (
	"fmt"
	"testing"

	"nobroadcast/internal/model"
)

// echoAutomaton is a minimal broadcast implementation for runtime unit
// tests: on broadcast it sends to all and returns; on receive it delivers.
type echoAutomaton struct {
	delivered map[model.MsgID]bool
}

func newEcho(model.ProcID) Automaton {
	return &echoAutomaton{delivered: make(map[model.MsgID]bool)}
}

func (e *echoAutomaton) Init(*Env) {}

func (e *echoAutomaton) OnBroadcast(env *Env, msg model.MsgID, payload model.Payload) {
	// Encode (origin, msg) in the payload crudely for the test.
	env.SendAll(payload)
	env.ReturnBroadcast(msg)
	e.delivered[msg] = false // remember our own broadcast id
	env.Deliver(msg, env.ID(), payload)
}

func (e *echoAutomaton) OnReceive(*Env, model.ProcID, model.Payload) {}

func (e *echoAutomaton) OnDecide(*Env, model.KSAID, model.Value) {}

// proposerAutomaton proposes its id to object 1 at init and records the
// decision.
type proposerAutomaton struct {
	id      model.ProcID
	decided model.Value
}

func (p *proposerAutomaton) Init(env *Env) {
	env.Propose(1, model.Value(p.id.String()))
}
func (p *proposerAutomaton) OnBroadcast(*Env, model.MsgID, model.Payload) {}
func (p *proposerAutomaton) OnReceive(*Env, model.ProcID, model.Payload)  {}
func (p *proposerAutomaton) OnDecide(_ *Env, _ model.KSAID, v model.Value) {
	p.decided = v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: 0, NewAutomaton: newEcho}); err == nil {
		t.Error("expected error for N=0")
	}
	if _, err := New(Config{N: 2}); err == nil {
		t.Error("expected error for missing NewAutomaton")
	}
}

func TestInvokeBroadcastRecordsSteps(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := r.InvokeBroadcast(1, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if msg == model.NoMsg {
		t.Fatal("no message id")
	}
	x := r.Execution()
	if x.Len() != 1 || x.Steps[0].Kind != model.KindBroadcastInvoke {
		t.Fatalf("execution: %s", x)
	}
	if !r.HasPending(1) {
		t.Error("p1 should have pending actions")
	}
	if got := r.OpenBroadcast(1); got != msg {
		t.Errorf("OpenBroadcast = %d, want %d", got, msg)
	}
}

func TestInvokeBroadcastRejectsNested(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: func(model.ProcID) Automaton {
		// An automaton that never returns from broadcast.
		return &proposerOnly{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBroadcast(1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBroadcast(1, "b"); err == nil {
		t.Error("expected well-formedness error for nested invocation")
	}
}

type proposerOnly struct{}

func (proposerOnly) Init(*Env)                                    {}
func (proposerOnly) OnBroadcast(*Env, model.MsgID, model.Payload) {}
func (proposerOnly) OnReceive(*Env, model.ProcID, model.Payload)  {}
func (proposerOnly) OnDecide(*Env, model.KSAID, model.Value)      {}

func TestExecNextSendAndReceive(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBroadcast(1, "x"); err != nil {
		t.Fatal(err)
	}
	// Echo automaton queued: send(p1), send(p2), return, deliver.
	step, ok, err := r.ExecNext(1)
	if err != nil || !ok || step.Kind != model.KindSend || step.Peer != 1 {
		t.Fatalf("step1 = %v ok=%v err=%v", step, ok, err)
	}
	step, ok, _ = r.ExecNext(1)
	if !ok || step.Kind != model.KindSend || step.Peer != 2 {
		t.Fatalf("step2 = %v", step)
	}
	if got := r.InFlightLen(); got != 2 {
		t.Fatalf("in flight = %d", got)
	}
	// Deliver to p2 by instance id.
	inst := r.InFlightAt(1).Msg
	rstep, err := r.ReceiveInstance(inst)
	if err != nil || rstep.Kind != model.KindReceive || rstep.Proc != 2 || rstep.Peer != 1 {
		t.Fatalf("receive = %v err=%v", rstep, err)
	}
	if _, err := r.ReceiveInstance(inst); err == nil {
		t.Error("second receive of the same instance should fail")
	}
	// Remaining: return, deliver at p1.
	step, ok, _ = r.ExecNext(1)
	if !ok || step.Kind != model.KindBroadcastReturn {
		t.Fatalf("step3 = %v", step)
	}
	if r.OpenBroadcast(1) != model.NoMsg {
		t.Error("broadcast should be closed after return")
	}
	step, ok, _ = r.ExecNext(1)
	if !ok || step.Kind != model.KindDeliver || step.Peer != 1 {
		t.Fatalf("step4 = %v", step)
	}
	if r.HasPending(1) {
		t.Error("p1 queue should be empty")
	}
	_, ok, err = r.ExecNext(1)
	if err != nil || ok {
		t.Errorf("ExecNext on empty queue: ok=%v err=%v", ok, err)
	}
}

func TestProposeBlocksUntilDecide(t *testing.T) {
	var auto *proposerAutomaton
	r, err := New(Config{
		N: 1,
		NewAutomaton: func(id model.ProcID) Automaton {
			auto = &proposerAutomaton{id: id}
			return auto
		},
		Oracle: NewFreeOracle(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Init queued the propose.
	step, ok, _ := r.ExecNext(1)
	if !ok || step.Kind != model.KindPropose {
		t.Fatalf("step = %v", step)
	}
	if !r.Blocked(1) {
		t.Error("p1 should be blocked on the proposition")
	}
	if _, ok, _ := r.ExecNext(1); ok {
		t.Error("blocked process must not execute actions")
	}
	dstep, err := r.FireDecide(1)
	if err != nil || dstep.Kind != model.KindDecide {
		t.Fatalf("decide = %v err=%v", dstep, err)
	}
	if r.Blocked(1) {
		t.Error("p1 should be unblocked")
	}
	if auto.decided != "p1" {
		t.Errorf("decided %q, want p1 (FreeOracle first value)", auto.decided)
	}
	if _, err := r.FireDecide(1); err == nil {
		t.Error("FireDecide without pending decision should fail")
	}
}

func TestFreeOracle(t *testing.T) {
	o := NewFreeOracle(2)
	if got := o.Propose(1, 1, "a"); got != "a" {
		t.Errorf("first proposal decided %q", got)
	}
	if got := o.Propose(1, 2, "b"); got != "b" {
		t.Errorf("second proposal decided %q", got)
	}
	if got := o.Propose(1, 3, "c"); got != "b" {
		t.Errorf("third proposal decided %q, want adoption of b", got)
	}
	// Re-proposing an already-decided value decides it.
	if got := o.Propose(1, 4, "a"); got != "a" {
		t.Errorf("re-proposal of a decided %q", got)
	}
	// Objects are independent.
	if got := o.Propose(2, 1, "z"); got != "z" {
		t.Errorf("fresh object decided %q", got)
	}
}

func TestCrash(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBroadcast(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(1); err != nil {
		t.Fatal(err)
	}
	if !r.Crashed(1) || r.HasPending(1) {
		t.Error("crashed process should have no pending work")
	}
	if err := r.Crash(1); err == nil {
		t.Error("double crash should fail")
	}
	if _, err := r.InvokeBroadcast(1, "y"); err == nil {
		t.Error("broadcast on crashed process should fail")
	}
	last := r.Execution().Steps[r.Execution().Len()-1]
	if last.Kind != model.KindCrash {
		t.Errorf("last step = %v, want crash", last)
	}
}

func TestQuiescent(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Quiescent() {
		t.Error("fresh runtime should be quiescent")
	}
	if _, err := r.InvokeBroadcast(1, "x"); err != nil {
		t.Fatal(err)
	}
	if r.Quiescent() {
		t.Error("pending actions: not quiescent")
	}
	tr, err := r.RunFair(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete {
		t.Error("fair run should reach quiescence")
	}
	if !r.Quiescent() {
		t.Error("should be quiescent after fair run")
	}
}

func TestQuiescentIgnoresMessagesToCrashed(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBroadcast(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(2); err != nil {
		t.Fatal(err)
	}
	for r.HasPending(1) {
		if _, _, err := r.ExecNext(1); err != nil {
			t.Fatal(err)
		}
	}
	// Receive p1's self-send; the message to crashed p2 stays in flight.
	for i := 0; i < r.InFlightLen(); i++ {
		if r.InFlightAt(i).Peer == 1 {
			if _, err := r.ReceiveIndex(i); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if !r.Quiescent() {
		t.Errorf("messages to crashed processes must not block quiescence; %d in flight", r.InFlightLen())
	}
	if _, err := r.ReceiveInstance(r.InFlightAt(0).Msg); err == nil {
		t.Error("delivery to crashed process should fail")
	}
}

func TestRunFairDeterministic(t *testing.T) {
	run := func() string {
		r, err := New(Config{N: 3, NewAutomaton: newEcho})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := r.RunFair(RunOptions{Broadcasts: []BroadcastReq{{Proc: 1, Payload: "a"}, {Proc: 2, Payload: "b"}}})
		if err != nil {
			t.Fatal(err)
		}
		return tr.X.String()
	}
	if run() != run() {
		t.Error("RunFair is not deterministic")
	}
}

func TestRunRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) string {
		r, err := New(Config{N: 3, NewAutomaton: newEcho})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := r.RunRandom(RunOptions{Seed: seed, Broadcasts: []BroadcastReq{{Proc: 1, Payload: "a"}, {Proc: 2, Payload: "b"}}})
		if err != nil {
			t.Fatal(err)
		}
		return tr.X.String()
	}
	if run(7) != run(7) {
		t.Error("RunRandom with equal seeds diverged")
	}
	if run(7) == run(8) {
		t.Error("RunRandom with different seeds produced identical schedules (suspicious)")
	}
}

func TestRunRandomCrashInjection(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.RunRandom(RunOptions{
		Seed:       1,
		Broadcasts: []BroadcastReq{{Proc: 1, Payload: "a"}},
		CrashAt:    map[int]model.ProcID{0: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.X.Correct(2) {
		t.Error("p2 should have crashed")
	}
	if !tr.Complete {
		t.Error("run should still reach quiescence")
	}
}

func TestRunMaxEventsBounds(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.RunRandom(RunOptions{Seed: 1, MaxEvents: 2, Broadcasts: []BroadcastReq{{Proc: 1, Payload: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Complete {
		t.Error("bounded run should be incomplete")
	}
}

func TestAppLifecycle(t *testing.T) {
	r, err := New(Config{
		N:            2,
		NewAutomaton: newEcho,
		NewApp: func(id model.ProcID) App {
			return &decideOnDeliverApp{}
		},
		Inputs: []model.Value{"va", "vb"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.RunFair(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AppDecided(1) || !r.AppDecided(2) {
		t.Error("apps should have decided")
	}
	// The app-level propose/decide steps are recorded under the app object.
	var proposes, decides int
	for _, s := range tr.X.Steps {
		if s.Obj == DefaultAppObject {
			switch s.Kind {
			case model.KindPropose:
				proposes++
			case model.KindDecide:
				decides++
			}
		}
	}
	if proposes != 2 || decides != 2 {
		t.Errorf("app steps: %d proposes, %d decides", proposes, decides)
	}
}

// decideOnDeliverApp broadcasts its input and decides on first delivery.
type decideOnDeliverApp struct{ done bool }

func (a *decideOnDeliverApp) Init(env AppEnv, input model.Value) {
	env.Broadcast(model.Payload(input))
}
func (a *decideOnDeliverApp) OnDeliver(env AppEnv, _ model.ProcID, _ model.MsgID, payload model.Payload) {
	if !a.done {
		a.done = true
		env.Decide(model.Value(payload))
	}
	env.Decide("second-call-ignored")
}
func (a *decideOnDeliverApp) OnReturn(AppEnv, model.MsgID) {}

func TestAppDecideIsOneShot(t *testing.T) {
	r, err := New(Config{
		N:            1,
		NewAutomaton: newEcho,
		NewApp:       func(model.ProcID) App { return &decideOnDeliverApp{} },
		Inputs:       []model.Value{"v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.RunFair(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	decides := 0
	for _, s := range tr.X.Steps {
		if s.Kind == model.KindDecide && s.Obj == DefaultAppObject {
			decides++
		}
	}
	if decides != 1 {
		t.Errorf("app decided %d times, want 1", decides)
	}
}

// proposeThenActAutomaton emits a propose followed immediately by more
// actions in the same handler — the runtime must hold the later actions
// back until the decision fires (propose blocks, per the Env contract).
type proposeThenActAutomaton struct{}

func (proposeThenActAutomaton) Init(env *Env) {
	env.Propose(1, "v")
	env.Send(1, "after-propose")
	env.Internal("also-after")
}
func (proposeThenActAutomaton) OnBroadcast(*Env, model.MsgID, model.Payload) {}
func (proposeThenActAutomaton) OnReceive(*Env, model.ProcID, model.Payload)  {}
func (proposeThenActAutomaton) OnDecide(*Env, model.KSAID, model.Value)      {}

func TestActionsAfterProposeHeldUntilDecide(t *testing.T) {
	r, err := New(Config{N: 1, NewAutomaton: func(model.ProcID) Automaton { return proposeThenActAutomaton{} }})
	if err != nil {
		t.Fatal(err)
	}
	step, ok, _ := r.ExecNext(1)
	if !ok || step.Kind != model.KindPropose {
		t.Fatalf("first step = %v", step)
	}
	// The queued send must not be executable while blocked.
	if _, ok, _ := r.ExecNext(1); ok {
		t.Fatal("action executed while blocked on proposition")
	}
	if _, err := r.FireDecide(1); err != nil {
		t.Fatal(err)
	}
	step, ok, _ = r.ExecNext(1)
	if !ok || step.Kind != model.KindSend || step.Payload != "after-propose" {
		t.Fatalf("post-decide step = %v", step)
	}
	step, ok, _ = r.ExecNext(1)
	if !ok || step.Kind != model.KindInternal || step.Note != "also-after" {
		t.Fatalf("post-decide step 2 = %v", step)
	}
}

// TestActionQueueOrderAndReuse drives one action queue through bursts that
// drain fully or partly, then through a long steady state at depth 1,000
// (one push per pop, as a fair run with echoing processes reaches).
// Actions must leave in the order they came, a pop must move no queued
// action (so it costs O(1) at any depth), and in the steady state the
// queue must keep one backing array instead of regrowing it.
func TestActionQueueOrderAndReuse(t *testing.T) {
	var ps procState
	pushed, popped := 0, 0
	push := func(k int) {
		batch := make([]Action, k)
		for i := range batch {
			batch[i].Msg = model.MsgID(pushed)
			pushed++
		}
		ps.push(batch)
	}
	pop := func() {
		if a := ps.pop(); a.Msg != model.MsgID(popped) {
			t.Fatalf("popped m%d, want m%d", a.Msg, popped)
		}
		popped++
	}
	for round := 0; round < 200; round++ {
		push(1 + round%7)
		for i := 0; i < round%5 && ps.queued() > 0; i++ {
			pop()
		}
	}
	for ps.queued() > 0 {
		pop()
	}
	push(1000)
	for i := 0; i < 5000; i++ {
		push(1)
		next := &ps.pending[ps.head+1]
		pop()
		if &ps.pending[ps.head] != next {
			t.Fatal("a pop moved the queued actions; it must cost O(1) at any depth")
		}
	}
	base, size := &ps.pending[:1][0], cap(ps.pending)
	for i := 0; i < 5000; i++ {
		push(1)
		pop()
	}
	if &ps.pending[:1][0] != base || cap(ps.pending) != size {
		t.Errorf("steady-state queue moved to a new array (cap %d → %d)", size, cap(ps.pending))
	}
	if got := ps.queued(); got != 1000 || pushed-popped != 1000 {
		t.Errorf("queued() = %d with %d pushed and %d popped, want 1000", got, pushed, popped)
	}
}

func TestReceiveIndexValidation(t *testing.T) {
	r, err := New(Config{N: 1, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReceiveIndex(0); err == nil {
		t.Error("expected error for empty network")
	}
	if _, err := r.ReceiveIndex(-1); err == nil {
		t.Error("expected error for negative index")
	}
	if _, err := r.ReceiveInstance(42); err == nil {
		t.Error("expected error for unknown instance")
	}
}

func TestProcValidation(t *testing.T) {
	r, err := New(Config{N: 1, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.InvokeBroadcast(0, "x"); err == nil {
		t.Error("expected error for p0")
	}
	if _, err := r.InvokeBroadcast(2, "x"); err == nil {
		t.Error("expected error for p2 in 1-process system")
	}
	if r.HasPending(9) || r.Blocked(9) || r.Crashed(9) {
		t.Error("queries on unknown process should be false")
	}
	if r.OpenBroadcast(9) != model.NoMsg {
		t.Error("OpenBroadcast on unknown process should be NoMsg")
	}
	if err := r.Crash(9); err == nil {
		t.Error("expected error crashing unknown process")
	}
	if _, err := r.FireDecide(9); err == nil {
		t.Error("expected error firing decide on unknown process")
	}
}

func TestMsgIDsNeverCollide(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[model.MsgID]bool)
	for i := 0; i < 5; i++ {
		msg, err := r.InvokeBroadcast(1, model.Payload(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seen[msg] {
			t.Fatalf("broadcast id m%d reused", msg)
		}
		seen[msg] = true
		for r.HasPending(1) {
			step, ok, err := r.ExecNext(1)
			if err != nil || !ok {
				t.Fatal(err)
			}
			if step.Kind == model.KindSend {
				if seen[step.Msg] {
					t.Fatalf("send instance m%d collides", step.Msg)
				}
				seen[step.Msg] = true
			}
		}
	}
}

func TestEnvExportTakeActions(t *testing.T) {
	env := NewEnv(2, 3)
	if env.ID() != 2 || env.N() != 3 {
		t.Fatalf("env identity: %v %d", env.ID(), env.N())
	}
	env.Send(1, "a")
	env.Propose(4, "v")
	env.Deliver(7, 3, "c")
	env.ReturnBroadcast(7)
	env.Internal("n")
	acts := env.TakeActions(nil)
	if len(acts) != 5 {
		t.Fatalf("actions: %d", len(acts))
	}
	if acts[0].Kind != model.KindSend || acts[0].Peer != 1 || acts[0].Payload != "a" {
		t.Errorf("send action: %+v", acts[0])
	}
	if acts[1].Kind != model.KindPropose || acts[1].Obj != 4 || acts[1].Val != "v" {
		t.Errorf("propose action: %+v", acts[1])
	}
	if acts[2].Kind != model.KindDeliver || acts[2].Peer != 3 || acts[2].Msg != 7 {
		t.Errorf("deliver action: %+v", acts[2])
	}
	if acts[3].Kind != model.KindBroadcastReturn || acts[3].Msg != 7 {
		t.Errorf("return action: %+v", acts[3])
	}
	if acts[4].Kind != model.KindInternal || acts[4].Note != "n" {
		t.Errorf("internal action: %+v", acts[4])
	}
	// Drained: a second call appends nothing.
	if got := env.TakeActions(acts[:1]); len(got) != 1 {
		t.Errorf("TakeActions not draining: %d left", len(got)-1)
	}
}

func TestAppDecidedQueries(t *testing.T) {
	r, err := New(Config{
		N:            1,
		NewAutomaton: newEcho,
		NewApp:       func(model.ProcID) App { return &decideOnDeliverApp{} },
		Inputs:       []model.Value{"v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.AppDecided(1) {
		t.Error("not decided yet")
	}
	if r.AppDecided(9) {
		t.Error("unknown process cannot have decided")
	}
	if _, err := r.RunFair(RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !r.AppDecided(1) {
		t.Error("should have decided")
	}
}

func TestRunFairCrashInjection(t *testing.T) {
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.RunFair(RunOptions{
		Broadcasts: []BroadcastReq{{Proc: 1, Payload: "a"}, {Proc: 2, Payload: "b"}},
		CrashAt:    map[int]model.ProcID{1: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.X.Correct(2) {
		t.Error("p2 should have crashed under RunFair")
	}
	if !tr.Complete {
		t.Error("run should complete")
	}
}

func TestQuiescentWithPendingBroadcastsOfCrashed(t *testing.T) {
	// A queued upper-layer broadcast for a crashed process must not block
	// completeness.
	r, err := New(Config{N: 2, NewAutomaton: newEcho})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.RunRandom(RunOptions{
		Seed:       3,
		Broadcasts: []BroadcastReq{{Proc: 1, Payload: "a"}, {Proc: 2, Payload: "b"}, {Proc: 2, Payload: "c"}},
		CrashAt:    map[int]model.ProcID{0: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete {
		t.Error("crashed process's queued broadcasts must not block quiescence")
	}
}
