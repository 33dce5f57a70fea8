package core_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/core"
	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/sweep"
	"nobroadcast/internal/trace"
)

func mustCandidate(t *testing.T, name string) broadcast.Candidate {
	t.Helper()
	c, err := broadcast.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runPipeline(t *testing.T, name string, k int) *core.Result {
	t.Helper()
	res, err := core.RunImpossibility(mustCandidate(t, name), k, core.Options{})
	if err != nil {
		t.Fatalf("RunImpossibility(%s, k=%d): %v", name, k, err)
	}
	return res
}

func TestRunImpossibilityValidation(t *testing.T) {
	if _, err := core.RunImpossibility(mustCandidate(t, "kbo"), 1, core.Options{}); err == nil {
		t.Error("expected error for k=1 (Theorem 1 poses 1 < k < n)")
	}
}

// TestRunSolo: the solo execution α_i delivers N_i messages before the
// decision, and k-SA-Validity forces the solo decision to equal the input.
func TestRunSolo(t *testing.T) {
	c := mustCandidate(t, "first-k")
	rec, tr, err := core.RunSolo(c, 2, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Decision != rec.Input {
		t.Errorf("solo decision %q != input %q", rec.Decision, rec.Input)
	}
	if rec.Ni < 1 {
		t.Errorf("N_i = %d, want >= 1", rec.Ni)
	}
	// Only p_2 takes app-level steps; others crash at the start.
	for _, s := range tr.X.Steps {
		if s.Kind == model.KindDeliver && s.Proc != 2 {
			t.Errorf("crashed %v delivered a message", s.Proc)
		}
	}
	if tr.X.Correct(1) || tr.X.Correct(3) {
		t.Error("p1 and p3 should be crashed in alpha_2")
	}
}

// TestLemma9Pipeline (experiment E3): the pipeline outcome per candidate
// matches the paper's diagnosis.
func TestLemma9Pipeline(t *testing.T) {
	tests := []struct {
		name string
		k    int
		want core.Outcome
	}{
		// §1.4: the one-shot strawman is not compositional.
		{"first-k", 2, core.OutcomeNotCompositional},
		{"first-k", 3, core.OutcomeNotCompositional},
		// §3.2: the iterated strawman is not compositional.
		{"k-stepped", 2, core.OutcomeNotCompositional},
		{"k-stepped", 3, core.OutcomeNotCompositional},
		// §3.3: the SA-tagged strawman is not content-neutral.
		{"sa-tagged", 2, core.OutcomeNotContentNeutral},
		{"sa-tagged", 3, core.OutcomeNotContentNeutral},
		// k-BO: compositional and content-neutral, so the contradiction
		// goes all the way through — Theorem 1's reductio, and with it
		// the corollary that k-BO is not implementable on k-SA.
		{"kbo", 2, core.OutcomeAgreementViolated},
		{"kbo", 3, core.OutcomeAgreementViolated},
		// Total order on a k-SA oracle (k > 1): same shape — consensus
		// power cannot come from k-SA.
		{"total-order", 2, core.OutcomeAgreementViolated},
	}
	t.Parallel()
	// The table is a candidate × k sweep (experiment E3): run it on the
	// parallel sweep engine, one pipeline per cell.
	_, err := sweep.Run(context.Background(), len(tests), sweep.Options{},
		func(_ context.Context, cell sweep.Cell) (struct{}, error) {
			tt := tests[cell.Index]
			c, err := broadcast.Lookup(tt.name)
			if err != nil {
				return struct{}{}, err
			}
			res, err := core.RunImpossibility(c, tt.k, core.Options{})
			if err != nil {
				return struct{}{}, fmt.Errorf("RunImpossibility(%s, k=%d): %w", tt.name, tt.k, err)
			}
			if res.Outcome != tt.want {
				return struct{}{}, fmt.Errorf("%s k=%d: outcome = %v, want %v (detail: %s)", tt.name, tt.k, res.Outcome, tt.want, res.Detail)
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Error(err)
	}
}

// TestAgreementViolationShape: when the contradiction completes, the
// replay produced exactly k+1 distinct decisions equal to the solo
// decisions, and δ is admitted by the spec while k-SA-Agreement fails on
// the implemented object.
func TestAgreementViolationShape(t *testing.T) {
	res := runPipeline(t, "kbo", 2)
	if res.Outcome != core.OutcomeAgreementViolated {
		t.Fatalf("outcome: %v (%s)", res.Outcome, res.Detail)
	}
	if len(res.ReplayDecisions) != 3 {
		t.Fatalf("replay decisions: %v", res.ReplayDecisions)
	}
	distinct := make(map[model.Value]bool)
	for i, rec := range res.Solo {
		pid := model.ProcID(i + 1)
		if res.ReplayDecisions[pid] != rec.Decision {
			t.Errorf("replay of %v decided %q, solo decided %q", pid, res.ReplayDecisions[pid], rec.Decision)
		}
		distinct[res.ReplayDecisions[pid]] = true
	}
	if len(distinct) != 3 {
		t.Errorf("expected 3 distinct decisions, got %v", res.ReplayDecisions)
	}
	// δ admitted by the candidate spec, by construction of the outcome.
	c := mustCandidate(t, "kbo")
	if v := c.Spec(2).Check(res.Delta); v != nil {
		t.Errorf("delta should be admitted: %s", v)
	}
	// The decisions, recorded as a k-SA object trace, violate agreement.
	x := model.NewExecution(3)
	for p, v := range res.ReplayDecisions {
		x.Append(
			model.Step{Proc: p, Kind: model.KindPropose, Obj: 1, Val: v},
			model.Step{Proc: p, Kind: model.KindDecide, Obj: 1, Val: v},
		)
	}
	if v := spec.KSA(2).Check(trace.New(x)); v == nil {
		t.Error("the replayed decisions should violate 2-SA-Agreement")
	}
}

// TestNotCompositionalWitness: for first-k, β is admitted but γ is not —
// and the violation is the first-k ordering property.
func TestNotCompositionalWitness(t *testing.T) {
	res := runPipeline(t, "first-k", 2)
	if res.Outcome != core.OutcomeNotCompositional {
		t.Fatalf("outcome: %v (%s)", res.Outcome, res.Detail)
	}
	c := mustCandidate(t, "first-k")
	if v := c.Spec(2).Check(res.Beta); v != nil {
		t.Errorf("beta should be admitted: %s", v)
	}
	if v := c.Spec(2).Check(res.Gamma); v == nil {
		t.Error("gamma should be rejected")
	} else if !strings.Contains(v.Property, "First-k") {
		t.Errorf("unexpected violated property: %s", v)
	}
	if res.Delta != nil {
		t.Error("delta should not be built when compositionality already failed")
	}
}

// TestNotContentNeutralWitness: for sa-tagged, γ is admitted but δ is not.
func TestNotContentNeutralWitness(t *testing.T) {
	res := runPipeline(t, "sa-tagged", 2)
	if res.Outcome != core.OutcomeNotContentNeutral {
		t.Fatalf("outcome: %v (%s)", res.Outcome, res.Detail)
	}
	c := mustCandidate(t, "sa-tagged")
	if v := c.Spec(2).Check(res.Gamma); v != nil {
		t.Errorf("gamma should be admitted: %s", v)
	}
	if v := c.Spec(2).Check(res.Delta); v == nil {
		t.Error("delta should be rejected")
	}
}

// TestLemmaReportsIncluded: the pipeline re-verifies Lemmas 1-8 and 10 on
// the adversarial construction.
func TestLemmaReportsIncluded(t *testing.T) {
	res := runPipeline(t, "kbo", 2)
	if len(res.LemmaReports) == 0 {
		t.Fatal("no lemma reports")
	}
	for _, rep := range res.LemmaReports {
		if !rep.OK {
			t.Errorf("%s: %s", rep.Lemma, rep.Err)
		}
	}
}

// TestStalledCandidateClassified: a candidate whose implementation cannot
// progress solo is classified as OutcomeNotSoloProgressing.
func TestStalledCandidateClassified(t *testing.T) {
	c := broadcast.Candidate{
		Name:         "stalling",
		Spec:         func(int) spec.Spec { return spec.BasicBroadcast() },
		NewAutomaton: func(model.ProcID) sched.Automaton { return &stallingAutomaton{} },
		OracleK:      0,
	}
	res, err := core.RunImpossibility(c, 2, core.Options{MaxStepsPerPhase: 300, MaxSoloEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeNotSoloProgressing {
		t.Errorf("outcome = %v (%s)", res.Outcome, res.Detail)
	}
}

// stallingAutomaton delivers only its first broadcast message, gated
// through a shared k-SA object; every later message stalls forever. The
// solo solver needs one delivery (N = 1), so stage 1 passes, and the
// adversary's line 25 reset forces p_k to need a second own delivery —
// which never comes: stage 3 detects the stall.
type stallingAutomaton struct {
	broadcasts int
	msg        model.MsgID
	payload    model.Payload
}

func (s *stallingAutomaton) Init(*sched.Env) {}
func (s *stallingAutomaton) OnBroadcast(env *sched.Env, msg model.MsgID, payload model.Payload) {
	env.ReturnBroadcast(msg)
	s.broadcasts++
	if s.broadcasts == 1 {
		s.msg, s.payload = msg, payload
		env.Propose(1, model.Value(payload))
	}
	// Later broadcasts: wait for peers forever.
}
func (s *stallingAutomaton) OnReceive(*sched.Env, model.ProcID, model.Payload) {}
func (s *stallingAutomaton) OnDecide(env *sched.Env, _ model.KSAID, _ model.Value) {
	env.Deliver(s.msg, env.ID(), s.payload)
}

// TestNoSoloDecisionClassified: a solver that never decides solo is
// classified as OutcomeNoSoloDecision.
func TestNoSoloDecisionClassified(t *testing.T) {
	c := mustCandidate(t, "send-to-all")
	c.NewSolver = func(model.ProcID) sched.App { return &neverDecideApp{} }
	res, err := core.RunImpossibility(c, 2, core.Options{MaxSoloEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeNoSoloDecision {
		t.Errorf("outcome = %v (%s)", res.Outcome, res.Detail)
	}
}

type neverDecideApp struct{}

func (neverDecideApp) Init(env sched.AppEnv, input model.Value)                         { env.Broadcast(model.Payload(input)) }
func (neverDecideApp) OnDeliver(sched.AppEnv, model.ProcID, model.MsgID, model.Payload) {}
func (neverDecideApp) OnReturn(sched.AppEnv, model.MsgID)                               {}

func TestOutcomeString(t *testing.T) {
	outs := []core.Outcome{
		core.OutcomeNoSoloDecision, core.OutcomeNotSoloProgressing,
		core.OutcomeImplementationIncorrect, core.OutcomeNotCompositional,
		core.OutcomeNotContentNeutral, core.OutcomeAgreementViolated,
	}
	seen := make(map[string]bool)
	for _, o := range outs {
		s := o.String()
		if s == "" || strings.HasPrefix(s, "Outcome(") || seen[s] {
			t.Errorf("bad outcome name %q", s)
		}
		seen[s] = true
	}
	if got := core.Outcome(99).String(); got != "Outcome(99)" {
		t.Errorf("unknown outcome: %q", got)
	}
}

// TestReplayConformance: the replayer rejects an execution whose recorded
// broadcasts do not match the algorithm's behavior.
func TestReplayConformance(t *testing.T) {
	x := model.NewExecution(3)
	x.Append(
		model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 1, Payload: "not-the-input"},
		model.Step{Proc: 1, Kind: model.KindDeliver, Peer: 1, Msg: 1, Payload: "not-the-input"},
	)
	_, err := core.ReplayOnTrace(broadcast.NewFirstDecider(1), 1, 3, "my-input", trace.New(x))
	if err == nil {
		t.Error("expected conformance error: FirstDecider broadcasts its input")
	}
}

func TestReplayNeverDecides(t *testing.T) {
	x := model.NewExecution(3) // no deliveries
	_, err := core.ReplayOnTrace(broadcast.NewFirstDecider(1), 1, 3, "v", trace.New(x))
	if err == nil || !strings.Contains(err.Error(), "never decides") {
		t.Errorf("expected never-decides error, got %v", err)
	}
}

func TestReplayDecides(t *testing.T) {
	x := model.NewExecution(3)
	x.Append(
		model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 1, Payload: "v"},
		model.Step{Proc: 1, Kind: model.KindDeliver, Peer: 1, Msg: 1, Payload: "v"},
		model.Step{Proc: 1, Kind: model.KindBroadcastReturn, Msg: 1},
	)
	dec, err := core.ReplayOnTrace(broadcast.NewFirstDecider(1), 1, 3, "v", trace.New(x))
	if err != nil {
		t.Fatal(err)
	}
	if dec != "v" {
		t.Errorf("decided %q", dec)
	}
}

// TestPipelineWithDepthSolver: a solver needing depth deliveries forces
// N = depth > 1; the pipeline's multi-message substitution still works and
// the diagnoses are unchanged.
func TestPipelineWithDepthSolver(t *testing.T) {
	for _, depth := range []int{2, 3} {
		c := mustCandidate(t, "first-k")
		c.NewSolver = broadcast.NewDepthDecider(depth)
		res, err := core.RunImpossibility(c, 2, core.Options{})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.N != depth {
			t.Errorf("depth %d: N = %d, want %d", depth, res.N, depth)
		}
		for _, rec := range res.Solo {
			if rec.Ni != depth {
				t.Errorf("depth %d: %v has N_i = %d", depth, rec.Proc, rec.Ni)
			}
		}
		if res.Outcome != core.OutcomeNotCompositional {
			t.Errorf("depth %d: outcome = %v (%s)", depth, res.Outcome, res.Detail)
		}

		c2 := mustCandidate(t, "kbo")
		c2.NewSolver = broadcast.NewDepthDecider(depth)
		res2, err := core.RunImpossibility(c2, 2, core.Options{})
		if err != nil {
			t.Fatalf("depth %d kbo: %v", depth, err)
		}
		if res2.Outcome != core.OutcomeAgreementViolated {
			t.Errorf("depth %d kbo: outcome = %v (%s)", depth, res2.Outcome, res2.Detail)
		}
	}
}

// TestImplementationIncorrectClassified (stage 4): a candidate whose own
// specification rejects the adversarial β is classified as an incorrect
// implementation — the k-SA → B direction of the equivalence fails. The
// First-1 order allows one distinct first-delivered message, which the
// N = 2 construction (forced by a depth-2 solver) violates: "First-1-Order:
// First-k violated at step 8".
func TestImplementationIncorrectClassified(t *testing.T) {
	c := mustCandidate(t, "send-to-all")
	c.Spec = func(int) spec.Spec { return spec.FirstKOrder(1) }
	c.NewSolver = broadcast.NewDepthDecider(2) // forces N = 2
	res, err := core.RunImpossibility(c, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeImplementationIncorrect {
		t.Errorf("outcome = %v (%s)", res.Outcome, res.Detail)
	}
	if want := "First-1-Order: First-k violated at step 8"; !strings.HasPrefix(res.Detail, want) {
		t.Errorf("detail = %q, want prefix %q", res.Detail, want)
	}
	if res.Gamma != nil {
		t.Error("gamma should not be built when beta is already rejected")
	}
}

// TestRunSoloDetectsInvalidSolver: a solver whose solo decision is not its
// input breaks k-SA-Validity; RunSolo reports it instead of feeding the
// pipeline garbage.
func TestRunSoloDetectsInvalidSolver(t *testing.T) {
	c := mustCandidate(t, "send-to-all")
	c.NewSolver = func(model.ProcID) sched.App { return constDecideApp{} }
	if _, _, err := core.RunSolo(c, 2, 1, core.Options{}); err == nil {
		t.Error("expected k-SA-Validity error for the constant-deciding solver")
	}
}

type constDecideApp struct{}

func (constDecideApp) Init(env sched.AppEnv, input model.Value) {
	env.Broadcast(model.Payload(input))
}
func (constDecideApp) OnDeliver(env sched.AppEnv, _ model.ProcID, _ model.MsgID, _ model.Payload) {
	env.Decide("always-the-same")
}
func (constDecideApp) OnReturn(sched.AppEnv, model.MsgID) {}

// TestPipelineObservability: with a Registry attached, RunImpossibility
// records one span per pipeline phase and the stage events, and threads
// the registry into the scheduler and adversary underneath.
func TestPipelineObservability(t *testing.T) {
	c, err := broadcast.Lookup("kbo")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	var events bytes.Buffer
	reg.AttachEvents(obs.NewEventLog(&events))
	res, err := core.RunImpossibility(c, 2, core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeAgreementViolated {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	names := make(map[string]int)
	for _, s := range reg.Spans() {
		names[s.Name]++
	}
	for _, want := range []string{
		"pipeline.solo", "pipeline.adversary", "pipeline.nsolo-check",
		"pipeline.spec-beta", "pipeline.restriction", "pipeline.renaming",
		"pipeline.replay",
	} {
		if names[want] != 1 {
			t.Errorf("span %q recorded %d times, want 1 (spans: %v)", want, names[want], names)
		}
	}
	// kbo runs 3 solo phases + the adversary's phases: one span per phase.
	if names["adversary.phase.p1"] != 1 {
		t.Errorf("adversary phase spans missing: %v", names)
	}
	if reg.Counter("sched.steps").Value() == 0 {
		t.Error("scheduler metrics not threaded through the pipeline")
	}
	if reg.Counter("core.pipelines").Value() != 1 {
		t.Error("core.pipelines not counted")
	}
	for _, want := range []string{`"event":"pipeline.start"`, `"event":"pipeline.solo_run"`, `"event":"pipeline.outcome"`, `"outcome":`} {
		if !bytes.Contains(events.Bytes(), []byte(want)) {
			t.Errorf("event log missing %s", want)
		}
	}
}

// TestPipelineOutcomeEventOnEarlyExit: classified early exits (e.g. a
// non-compositional spec) still emit the terminal outcome event.
func TestPipelineOutcomeEventOnEarlyExit(t *testing.T) {
	c, err := broadcast.Lookup("first-k")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	var events bytes.Buffer
	reg.AttachEvents(obs.NewEventLog(&events))
	res, err := core.RunImpossibility(c, 2, core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeNotCompositional {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !bytes.Contains(events.Bytes(), []byte(`"event":"pipeline.outcome"`)) {
		t.Error("outcome event missing on early-exit path")
	}
}
