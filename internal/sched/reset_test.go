package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
	"nobroadcast/internal/workload"
)

// liveConfig is the explore-shaped configuration of cand: its k-SA
// solver app on inputs v1..vn, with the candidate's spec and k-SA checked
// live. Each call builds a fresh oracle: oracles keep state.
func liveConfig(cand broadcast.Candidate, n, k int) sched.Config {
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = model.Value(fmt.Sprintf("v%d", i+1))
	}
	return sched.Config{
		N: n, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(k),
		NewApp: cand.SolverFor(), Inputs: inputs,
		LiveSpecs: []spec.Spec{cand.Spec(k), spec.KSA(k)},
	}
}

func mustNew(t *testing.T, cfg sched.Config) *sched.Runtime {
	t.Helper()
	rt, err := sched.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// verdictText renders a monitor's verdicts by value.
func verdictText(vs []spec.SpecVerdict) string {
	var b strings.Builder
	for _, sv := range vs {
		fmt.Fprintf(&b, "%s@%d: %v\n", sv.Spec, sv.StepIdx, sv.Violation)
	}
	return b.String()
}

func encodeKTR(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runOutcome is what a run leaves behind: the .ktr bytes of its trace
// (cut at the violating step if one latched) and the live monitor's
// verdicts before and after Finish.
type runOutcome struct {
	ktr            []byte
	violated       bool
	live, finished string
}

func runStrategy(t *testing.T, rt *sched.Runtime, name string, opts sched.RunOptions) runOutcome {
	t.Helper()
	strat, err := sched.NewStrategy(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rt.Run(strat, opts)
	var lve *sched.LiveViolationError
	violated := errors.As(err, &lve)
	switch {
	case violated:
		tr = lve.Trace
	case err != nil:
		t.Fatal(err)
	}
	out := runOutcome{ktr: encodeKTR(t, tr), violated: violated, live: verdictText(rt.LiveMonitor().Verdicts())}
	rt.LiveMonitor().Finish(tr.Complete)
	out.finished = verdictText(rt.LiveMonitor().Verdicts())
	return out
}

// TestResetMatchesNew: a run on a runtime that ran another schedule and
// was then reset gives the same .ktr bytes and live verdicts as the same
// run on a fresh runtime, for every registry candidate under every
// strategy, with and without a crash injection.
func TestResetMatchesNew(t *testing.T) {
	const n, k = 3, 1
	latched, violated := 0, 0
	for _, cand := range broadcast.AllCandidates() {
		for _, name := range sched.StrategyNames() {
			for _, crashAt := range []map[int]model.ProcID{nil, {4: 2}} {
				opts := sched.RunOptions{Seed: 11, CrashAt: crashAt}
				want := runStrategy(t, mustNew(t, liveConfig(cand, n, k)), name, opts)

				// Dirty the runtime with other schedules, until one latches
				// a violation if any of a few does.
				rt := mustNew(t, liveConfig(cand, n, k))
				for seed := uint64(100); seed < 110; seed++ {
					rt.Reset(cand.OracleFor(k))
					runStrategy(t, rt, "random", sched.RunOptions{Seed: seed, CrashAt: map[int]model.ProcID{2: 3}})
					if v, _ := rt.LiveViolation(); v != nil {
						latched++
						break
					}
				}
				rt.Reset(cand.OracleFor(k))
				got := runStrategy(t, rt, name, opts)

				if !bytes.Equal(got.ktr, want.ktr) {
					t.Errorf("%s/%s crash=%v: reset run's trace differs from a fresh runtime's", cand.Name, name, crashAt)
				}
				if got.live != want.live || got.finished != want.finished {
					t.Errorf("%s/%s crash=%v: reset run's verdicts\n%s%swant\n%s%s", cand.Name, name, crashAt, got.live, got.finished, want.live, want.finished)
				}
				if want.violated {
					violated++
				}
			}
		}
	}
	// The cases must include resets that clear a latched violation and
	// runs that latch one.
	t.Logf("%d resets cleared a latched violation; %d compared runs latched one", latched, violated)
	if latched == 0 || violated == 0 {
		t.Fatalf("%d resets cleared a latched violation and %d compared runs latched one; want both > 0", latched, violated)
	}
}

// TestResetKeepsEarlierOutputs: the trace, execution, violation and
// monitor a runtime returned before Reset are unchanged by the runs after
// it, although those reuse the runtime's buffers.
func TestResetKeepsEarlierOutputs(t *testing.T) {
	cand, err := broadcast.Lookup("kbo")
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 3, 2
	rt := mustNew(t, liveConfig(cand, n, k))
	var lve *sched.LiveViolationError
	for seed := uint64(1); lve == nil; seed++ {
		if seed > 200 {
			t.Fatal("no kbo schedule among 200 seeds violates its spec")
		}
		rt.Reset(cand.OracleFor(k))
		if _, err := rt.RunRandom(sched.RunOptions{Seed: seed}); err != nil && !errors.As(err, &lve) {
			t.Fatal(err)
		}
	}
	x := rt.Execution()
	mon := rt.LiveMonitor()
	wantKTR := encodeKTR(t, lve.Trace)
	wantX := encodeKTR(t, &trace.Trace{X: x})
	wantV, wantIdx := *lve.V, lve.StepIdx
	wantVerdicts := verdictText(mon.Verdicts())

	for seed := uint64(1000); seed < 1010; seed++ {
		rt.Reset(cand.OracleFor(k))
		if _, err := rt.RunRandom(sched.RunOptions{Seed: seed, CrashAt: map[int]model.ProcID{7: 1}}); err != nil && !errors.As(err, new(*sched.LiveViolationError)) {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encodeKTR(t, lve.Trace), wantKTR) {
		t.Error("a violation's trace changed after Reset")
	}
	if !bytes.Equal(encodeKTR(t, &trace.Trace{X: x}), wantX) {
		t.Error("an execution returned before Reset changed after it")
	}
	if *lve.V != wantV || lve.StepIdx != wantIdx {
		t.Errorf("violation changed after Reset: %v at %d, was %v at %d", lve.V, lve.StepIdx, &wantV, wantIdx)
	}
	if got := verdictText(mon.Verdicts()); got != wantVerdicts {
		t.Errorf("the old monitor's verdicts changed after Reset:\n%swas\n%s", got, wantVerdicts)
	}
	if rt.LiveMonitor() == mon {
		t.Error("Reset kept the old monitor")
	}
}

// orderCheck wraps a recorder and, before every decision, checks the
// enabled view against the reference enumeration.
type orderCheck struct {
	*sched.Recorder
	t     *testing.T
	name  string
	steps int
}

func (o *orderCheck) Next(v *sched.Enabled, step int) int {
	want := sched.EnabledReference(v)
	if v.Len() != len(want) {
		o.t.Fatalf("%s step %d: view has %d events, reference %d", o.name, step, v.Len(), len(want))
	}
	for i, e := range want {
		if got := v.At(i); got != e {
			o.t.Fatalf("%s step %d: event %d is %v (net %d), reference %v (net %d)", o.name, step, i, got, got.Net, e, e.Net)
		}
	}
	o.steps++
	return o.Recorder.Next(v, step)
}

// strayAutomaton broadcasts like echo and also sends every broadcast to
// ids outside p1..pn, whose copies stay in flight undeliverable.
type strayAutomaton struct{ n int }

func (strayAutomaton) Init(*sched.Env) {}
func (a strayAutomaton) OnBroadcast(env *sched.Env, msg model.MsgID, payload model.Payload) {
	env.Send(0, payload)
	env.SendAll(payload)
	env.Send(model.ProcID(a.n+1), payload)
	env.Deliver(msg, env.ID(), payload)
	env.ReturnBroadcast(msg)
}
func (strayAutomaton) OnReceive(*sched.Env, model.ProcID, model.Payload) {}
func (strayAutomaton) OnDecide(*sched.Env, model.KSAID, model.Value)     {}

// TestEnabledViewMatchesReference: at every step of seeded runs with
// crashes, the view shows the events of the pre-view enumeration in the
// same order — for every registry candidate driven by its solver app and
// by queued upper-layer broadcasts, under every strategy, and for sends
// that name no process.
func TestEnabledViewMatchesReference(t *testing.T) {
	const n, k = 4, 2
	type run struct {
		name string
		cfg  func() sched.Config // a fresh oracle each run
		reqs []sched.BroadcastReq
	}
	reqs, err := workload.Generate(workload.Config{Kind: workload.Uniform, N: n, Messages: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var runs []run
	for _, cand := range broadcast.AllCandidates() {
		runs = append(runs,
			run{cand.Name + "/app", func() sched.Config { return liveConfig(cand, n, k) }, nil},
			run{cand.Name + "/broadcasts", func() sched.Config {
				return sched.Config{N: n, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(k)}
			}, reqs})
	}
	runs = append(runs, run{"stray", func() sched.Config {
		return sched.Config{N: n, NewAutomaton: func(model.ProcID) sched.Automaton { return strayAutomaton{n: n} }}
	}, reqs})
	checked := 0
	for _, r := range runs {
		for _, name := range sched.StrategyNames() {
			for seed := uint64(1); seed <= 3; seed++ {
				var crashAt map[int]model.ProcID
				if seed > 1 {
					crashAt = map[int]model.ProcID{int(3 * seed): model.ProcID(seed), int(20 * seed): 1}
				}
				strat, err := sched.NewStrategy(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				oc := &orderCheck{Recorder: sched.NewRecorder(strat), t: t, name: fmt.Sprintf("%s/%s/seed%d", r.name, name, seed)}
				_, err = mustNew(t, r.cfg()).Run(oc, sched.RunOptions{Seed: seed, CrashAt: crashAt, Broadcasts: r.reqs})
				if err != nil && !errors.As(err, new(*sched.LiveViolationError)) {
					t.Fatal(err)
				}
				checked += oc.steps
			}
		}
	}
	t.Logf("%d runs, %d decisions checked", len(runs)*3*3, checked)
}
