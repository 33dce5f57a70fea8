// Package core implements the paper's primary contribution as an
// executable pipeline: the proof of Theorem 1 ("no content-neutral and
// compositional broadcast abstraction is equivalent to k-set agreement in
// CAMP_n[∅] for 1 < k < n"), instantiated on concrete candidate
// abstractions.
//
// For a candidate abstraction B — given as a specification, an
// implementation 𝓑 of B in CAMP_{k+1}[k-SA], and a solver 𝓐 of k-SA in
// CAMP_{k+1}[B] — the pipeline retraces the proof:
//
//  1. Solo executions (Lemma 9 setup): for each process p_i, run 𝓐 with
//     input i while every other process crashes initially; record the
//     messages p_i B-delivers before deciding (N_i of them) and the
//     decided value.
//  2. N := max(1, N_1, ..., N_{k+1}).
//  3. Adversarial construction (Lemma 10): run Algorithm 1 against 𝓑 to
//     obtain the N-solo execution β.
//  4. Check the candidate's specification admits β — if not, 𝓑 is not a
//     correct implementation of B on k-SA (the k-SA → B direction of the
//     equivalence fails; for k-BO this is the paper's corollary).
//  5. Restriction (compositionality): γ := β restricted to the first N_i
//     counted messages of each p_i. If the spec rejects γ, the spec is
//     not compositional — the witness the paper gives for the strawmen of
//     Sections 1.4 and 3.2.
//  6. Renaming (content-neutrality): δ := γ with each counted message
//     renamed to the corresponding solo-run message. If the spec rejects
//     δ, the spec is not content-neutral — the witness for Section 3.3.
//  7. Replay (the contradiction): for each p_i, replay 𝓐 against p_i's
//     events in δ. Indistinguishability from the solo run α_i forces p_i
//     to decide its own value: k+1 distinct decisions on one k-SA object,
//     violating k-SA-Agreement. If the spec admitted δ, the candidate
//     cannot be both content-neutral and compositional and equivalent to
//     k-SA — Theorem 1's contradiction, realized on this candidate.
//
// Every possible outcome refutes one hypothesis of the equivalence claim;
// the pipeline reports which.
package core

import (
	"fmt"

	"nobroadcast/internal/adversary"
	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// Outcome classifies how the equivalence claim of a candidate fails (or
// which stage of the pipeline could not proceed).
type Outcome int

// The outcomes, ordered by pipeline stage.
const (
	// OutcomeNoSoloDecision: the solver 𝓐 does not decide when running
	// alone — it fails k-SA-Termination in the wait-free model (t = n-1),
	// so B → k-SA does not hold with this solver.
	OutcomeNoSoloDecision Outcome = iota + 1
	// OutcomeNotSoloProgressing: the implementation 𝓑 stalls running
	// solo; by Lemma 7 a correct implementation cannot, so k-SA → B does
	// not hold with this implementation.
	OutcomeNotSoloProgressing
	// OutcomeImplementationIncorrect: the adversarial execution β is not
	// admitted by the candidate's own specification: 𝓑 does not implement
	// B (for k-BO, the corollary of Section 1.3).
	OutcomeImplementationIncorrect
	// OutcomeNotCompositional: β is admitted but its restriction γ is
	// not — the specification violates Definition 2.
	OutcomeNotCompositional
	// OutcomeNotContentNeutral: γ is admitted but its renaming δ is not —
	// the specification violates Definition 3.
	OutcomeNotContentNeutral
	// OutcomeAgreementViolated: δ is admitted and the replay of 𝓐 on δ
	// decides k+1 distinct values — the full Theorem 1 contradiction: a
	// content-neutral, compositional B equivalent to k-SA cannot exist,
	// so one of the candidate's claims is false.
	OutcomeAgreementViolated
)

var outcomeNames = map[Outcome]string{
	OutcomeNoSoloDecision:          "solver does not decide solo (B does not solve k-SA wait-free)",
	OutcomeNotSoloProgressing:      "implementation makes no solo progress (Lemma 7 witness)",
	OutcomeImplementationIncorrect: "adversarial execution violates the candidate's own specification (k-SA does not implement B)",
	OutcomeNotCompositional:        "specification is not compositional (restriction of an admissible execution rejected)",
	OutcomeNotContentNeutral:       "specification is not content-neutral (injective renaming of an admissible execution rejected)",
	OutcomeAgreementViolated:       "k-SA-Agreement violated on the substituted execution: k+1 distinct decisions (Theorem 1 contradiction)",
}

// String names the outcome.
func (o Outcome) String() string {
	if s, ok := outcomeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// SoloRecord is the outcome of one solo execution α_i.
type SoloRecord struct {
	Proc model.ProcID
	// Input is the value proposed (distinct per process).
	Input model.Value
	// Decision is the value decided solo; by k-SA-Validity it equals
	// Input.
	Decision model.Value
	// DeliveredPayloads lists the contents of the messages p_i
	// B-delivered before deciding (the m_{i,1..N_i} of Lemma 9).
	DeliveredPayloads []model.Payload
	// Ni is len(DeliveredPayloads).
	Ni int
}

// Result is the full pipeline outcome for one candidate.
type Result struct {
	Candidate string
	K         int
	// N is max(1, N_1, ..., N_{k+1}).
	N       int
	Outcome Outcome
	// Detail is the stage-specific evidence (spec violation text, replay
	// decisions, ...).
	Detail string
	// Solo holds the per-process solo records (stage 1).
	Solo []SoloRecord
	// Adversary holds the Lemma 10 construction (stages 3-4), nil if the
	// pipeline failed earlier.
	Adversary *adversary.Result
	// LemmaReports are the mechanical Lemma 1-8/10 checks on the
	// construction.
	LemmaReports []adversary.LemmaReport
	// Beta, Gamma, Delta are the three executions of the Lemma 9
	// argument (nil for stages not reached).
	Beta, Gamma, Delta *trace.Trace
	// ReplayDecisions maps each process to the value it decides when 𝓐
	// is replayed against δ (stage 7).
	ReplayDecisions map[model.ProcID]model.Value
}

// Options tunes the pipeline.
type Options struct {
	// MaxSoloEvents bounds each solo execution (default 50000).
	MaxSoloEvents int
	// MaxStepsPerPhase is passed to the adversary (default 100000).
	MaxStepsPerPhase int
	// Obs receives pipeline observability: one span per phase of
	// RunImpossibility (solo runs, adversary, N-solo check, spec check on
	// β, restriction, renaming, replay), stage events, and — threaded
	// down — the sched/adversary metrics of the underlying runs. Nil
	// disables recording.
	Obs *obs.Registry
}

func (o Options) maxSolo() int {
	if o.MaxSoloEvents <= 0 {
		return 50000
	}
	return o.MaxSoloEvents
}

// soloInput is the distinct input value of process i in its solo run.
func soloInput(i model.ProcID) model.Value {
	return model.Value(fmt.Sprintf("solo-input-%d", int(i)))
}

// RunSolo executes α_i: process i runs the candidate's solver over the
// candidate's implementation while every other process crashes before
// taking a step.
func RunSolo(c broadcast.Candidate, k int, i model.ProcID, opts Options) (*SoloRecord, *trace.Trace, error) {
	n := k + 1
	inputs := make([]model.Value, n)
	for j := range inputs {
		inputs[j] = soloInput(model.ProcID(j + 1))
	}
	rt, err := sched.New(sched.Config{
		N:            n,
		NewAutomaton: c.NewAutomaton,
		Oracle:       c.OracleFor(k),
		NewApp:       c.SolverFor(),
		Inputs:       inputs,
		Obs:          opts.Obs,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: solo run: %w", err)
	}
	// Crash everyone but p_i before any scheduled event. (Init-time app
	// broadcasts of crashed processes were invoked before the crash; the
	// crash discards their queued actions, so no step of theirs executes.)
	for j := 1; j <= n; j++ {
		if model.ProcID(j) != i {
			if err := rt.Crash(model.ProcID(j)); err != nil {
				return nil, nil, fmt.Errorf("core: solo run: %w", err)
			}
		}
	}
	tr, err := rt.RunFair(sched.RunOptions{MaxEvents: opts.maxSolo()})
	if err != nil {
		return nil, nil, fmt.Errorf("core: solo run: %w", err)
	}
	tr.Name = fmt.Sprintf("alpha_%d(%s,k=%d)", int(i), c.Name, k)

	rec := &SoloRecord{Proc: i, Input: soloInput(i)}
	decided := false
	for _, s := range tr.X.Steps {
		if s.Proc != i {
			continue
		}
		switch {
		case s.Kind == model.KindDeliver && !decided:
			rec.DeliveredPayloads = append(rec.DeliveredPayloads, s.Payload)
		case s.Kind == model.KindDecide && s.Obj == sched.DefaultAppObject:
			decided = true
			rec.Decision = s.Val
		}
	}
	rec.Ni = len(rec.DeliveredPayloads)
	if !decided {
		return rec, tr, nil // caller classifies as OutcomeNoSoloDecision
	}
	if rec.Decision != rec.Input {
		// k-SA-Validity forces the solo decision to be the input.
		return nil, tr, fmt.Errorf("core: solo run of %v decided %q, not its input %q (k-SA-Validity broken by the solver)", i, rec.Decision, rec.Input)
	}
	return rec, tr, nil
}

// RunImpossibility retraces Theorem 1's proof on the candidate.
func RunImpossibility(c broadcast.Candidate, k int, opts Options) (*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: Theorem 1 concerns 1 < k < n; got k=%d", k)
	}
	reg := opts.Obs
	res := &Result{Candidate: c.Name, K: k}
	reg.Counter("core.pipelines").Inc()
	reg.Emit("pipeline.start", obs.Str("candidate", c.Name), obs.Int("k", int64(k)))
	// finish stamps the terminal event on every classified return path.
	finish := func() (*Result, error) {
		reg.Counter("core.outcomes").Inc()
		reg.Emit("pipeline.outcome",
			obs.Str("candidate", c.Name), obs.Int("k", int64(k)), obs.Int("n", int64(res.N)),
			obs.Str("outcome", res.Outcome.String()))
		return res, nil
	}

	// Stage 1: solo executions.
	soloSpan := reg.StartSpan("pipeline.solo")
	for i := 1; i <= k+1; i++ {
		rec, _, err := RunSolo(c, k, model.ProcID(i), opts)
		if err != nil {
			return nil, err
		}
		res.Solo = append(res.Solo, *rec)
		reg.Emit("pipeline.solo_run",
			obs.Str("candidate", c.Name), obs.Int("proc", int64(i)),
			obs.Int("ni", int64(rec.Ni)), obs.Str("decision", string(rec.Decision)))
		if rec.Decision == "" {
			soloSpan.End()
			res.Outcome = OutcomeNoSoloDecision
			res.Detail = fmt.Sprintf("%v never decides running alone", rec.Proc)
			return finish()
		}
	}
	soloSpan.End()

	// Stage 2: N.
	res.N = 1
	for _, rec := range res.Solo {
		if rec.Ni > res.N {
			res.N = rec.Ni
		}
	}

	// Stage 3: the adversarial N-solo construction (Lemma 10).
	advSpan := reg.StartSpan("pipeline.adversary")
	adv, err := adversary.Run(adversary.Options{
		K: k, N: res.N,
		NewAutomaton:     c.NewAutomaton,
		MaxStepsPerPhase: opts.MaxStepsPerPhase,
		Obs:              opts.Obs,
	})
	advSpan.End()
	if err != nil {
		var stall *adversary.ErrNotSoloProgressing
		if asStall(err, &stall) {
			res.Outcome = OutcomeNotSoloProgressing
			res.Detail = err.Error()
			return finish()
		}
		return nil, err
	}
	res.Adversary = adv
	res.Beta = adv.Beta
	checkSpan := reg.StartSpan("pipeline.nsolo-check")
	reports, ok := adv.Verify()
	checkSpan.End()
	res.LemmaReports = reports
	if !ok {
		return nil, fmt.Errorf("core: adversarial construction failed its own lemma checks: %+v", reports)
	}

	// Stage 4: does the candidate's spec admit β? The derived traces are
	// judged by streaming each once through the spec's online checker
	// (checkStreaming) — a violation's step index then points into the
	// derived trace.
	s := c.Spec(k)
	betaSpan := reg.StartSpan("pipeline.spec-beta")
	v := checkStreaming(s, adv.Beta)
	betaSpan.End()
	if v != nil {
		res.Outcome = OutcomeImplementationIncorrect
		res.Detail = v.String()
		return finish()
	}

	// Stage 5: restriction γ (compositionality).
	restrictSpan := reg.StartSpan("pipeline.restriction")
	keep := make(map[model.MsgID]bool)
	subst := make(map[model.MsgID]model.Payload)
	for i := 1; i <= k+1; i++ {
		pid := model.ProcID(i)
		rec := res.Solo[i-1]
		counted := adv.Counted[pid]
		for j := 0; j < rec.Ni; j++ {
			keep[counted[j]] = true
			subst[counted[j]] = rec.DeliveredPayloads[j]
		}
	}
	gamma := &trace.Trace{
		X:        adv.Beta.X.RestrictBroadcastOnly(keep),
		Complete: false,
		Name:     fmt.Sprintf("gamma(%s,k=%d,N=%d)", c.Name, k, res.N),
	}
	res.Gamma = gamma
	v = checkStreaming(s, gamma)
	restrictSpan.End()
	if v != nil {
		res.Outcome = OutcomeNotCompositional
		res.Detail = v.String()
		return finish()
	}

	// Stage 6: renaming δ (content-neutrality). Each counted message
	// becomes the corresponding solo-run message; distinct message
	// instances keep distinct identities, so the substitution is
	// injective on messages.
	renameSpan := reg.StartSpan("pipeline.renaming")
	delta := &trace.Trace{
		X:        gamma.X.RenameByMsg(subst),
		Complete: false,
		Name:     fmt.Sprintf("delta(%s,k=%d,N=%d)", c.Name, k, res.N),
	}
	res.Delta = delta
	v = checkStreaming(s, delta)
	renameSpan.End()
	if v != nil {
		res.Outcome = OutcomeNotContentNeutral
		res.Detail = v.String()
		return finish()
	}

	// Stage 7: replay 𝓐 against δ per process — indistinguishable from
	// the solo runs, so each process decides its own value.
	replaySpan := reg.StartSpan("pipeline.replay")
	res.ReplayDecisions = make(map[model.ProcID]model.Value, k+1)
	distinct := make(map[model.Value]bool)
	for i := 1; i <= k+1; i++ {
		pid := model.ProcID(i)
		dec, err := ReplayOnTrace(c.SolverFor()(pid), pid, k+1, soloInput(pid), delta)
		if err != nil {
			return nil, fmt.Errorf("core: replaying %v on delta: %w", pid, err)
		}
		res.ReplayDecisions[pid] = dec
		distinct[dec] = true
		if dec != res.Solo[i-1].Decision {
			return nil, fmt.Errorf("core: replay of %v on delta decided %q, solo run decided %q: indistinguishability broken", pid, dec, res.Solo[i-1].Decision)
		}
	}
	replaySpan.End()
	if len(distinct) <= k {
		return nil, fmt.Errorf("core: replay produced only %d distinct decisions; expected %d (pipeline invariant)", len(distinct), k+1)
	}
	res.Outcome = OutcomeAgreementViolated
	res.Detail = fmt.Sprintf("%d distinct values decided on one %d-SA object: %v", len(distinct), k, res.ReplayDecisions)
	return finish()
}

// checkStreaming judges a trace by streaming it once through the spec's
// online checker, which blames the leaf violated earliest. s.Check agrees
// on admissibility but blames a composite's first violated leaf in
// declaration order, so the Detail of a rejection can differ from it.
func checkStreaming(s spec.Spec, t *trace.Trace) *spec.Violation {
	return spec.RunChecker(spec.NewCheckerFor(s, t.X.N), t)
}

func asStall(err error, target **adversary.ErrNotSoloProgressing) bool {
	e, ok := err.(*adversary.ErrNotSoloProgressing)
	if ok {
		*target = e
	}
	return ok
}
