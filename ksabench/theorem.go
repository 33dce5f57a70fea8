package main

import (
	"errors"
	"fmt"

	"nobroadcast/internal/adversary"
	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/core"
	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// theoremKs are the agreement degrees the theorem workload cycles over.
var theoremKs = []int{2, 3, 4, 5, 6}

// theoremCycle is the number of (candidate, k) cases in one cycle.
var theoremCycle = len(theoremKs) * len(broadcast.Names())

type theoremCase struct {
	cand broadcast.Candidate
	k    int
}

// theorem runs the Theorem 1 pipeline, core.RunImpossibility, over every
// registered candidate at every k in theoremKs, in a fixed cyclic order
// whose starting point the seed picks.
type theorem struct {
	cases  []theoremCase
	offset int
}

func newTheorem(seed uint64, _ *tracer) instance {
	w := &theorem{}
	for _, c := range broadcast.AllCandidates() {
		for _, k := range theoremKs {
			w.cases = append(w.cases, theoremCase{c, k})
		}
	}
	w.offset = int(rng.Derive(seed, 0) % uint64(len(w.cases)))
	return w
}

func (w *theorem) setup() error { return nil }
func (w *theorem) close()       {}

// wantOutcome is the pinned outcome of the pipeline per candidate, the
// same at every k in theoremKs.
func wantOutcome(name string) core.Outcome {
	switch name {
	case "mutual":
		return core.OutcomeNoSoloDecision
	case "first-k", "k-stepped":
		return core.OutcomeNotCompositional
	case "sa-tagged":
		return core.OutcomeNotContentNeutral
	}
	return core.OutcomeAgreementViolated
}

func (w *theorem) op(i int, tr *tracer) error {
	tc := w.cases[(w.offset+i)%len(w.cases)]
	var got core.Outcome
	if tr == nil {
		res, err := core.RunImpossibility(tc.cand, tc.k, core.Options{})
		if err != nil {
			return err
		}
		got = res.Outcome
	} else {
		var err error
		if got, err = w.traced(i, tc, tr); err != nil {
			return err
		}
	}
	if want := wantOutcome(tc.cand.Name); got != want {
		return fmt.Errorf("theorem %s k=%d: outcome %q, want %q", tc.cand.Name, tc.k, got, want)
	}
	return nil
}

// traced re-drives one pipeline through the public calls
// RunImpossibility makes, timing each layer.
func (w *theorem) traced(op int, tc theoremCase, tr *tracer) (core.Outcome, error) {
	c, k := tc.cand, tc.k
	solo := make([]*core.SoloRecord, k+1)
	end := tr.span(op, "core.solo")
	for i := range solo {
		rec, _, err := core.RunSolo(c, k, model.ProcID(i+1), core.Options{})
		if err != nil {
			end()
			return 0, err
		}
		if rec.Decision == "" {
			end()
			return core.OutcomeNoSoloDecision, nil
		}
		solo[i] = rec
	}
	end()
	n := 1
	for _, rec := range solo {
		n = max(n, rec.Ni)
	}

	end = tr.span(op, "adversary.run")
	adv, err := adversary.Run(adversary.Options{K: k, N: n, NewAutomaton: c.NewAutomaton})
	end()
	var stall *adversary.ErrNotSoloProgressing
	if errors.As(err, &stall) {
		return core.OutcomeNotSoloProgressing, nil
	}
	if err != nil {
		return 0, err
	}
	tr.count("adversary.alpha_steps", float64(adv.Alpha.X.Len()))
	end = tr.span(op, "adversary.verify")
	reports, ok := adv.Verify()
	end()
	if !ok {
		return 0, fmt.Errorf("theorem %s k=%d: lemma checks failed: %+v", c.Name, k, reports)
	}

	s := c.Spec(k)
	admits := func(t *trace.Trace) bool {
		defer tr.span(op, "spec.check")()
		return spec.RunChecker(spec.NewCheckerFor(s, t.X.N), t) == nil
	}
	if !admits(adv.Beta) {
		return core.OutcomeImplementationIncorrect, nil
	}
	end = tr.span(op, "model.derive")
	keep := make(map[model.MsgID]bool)
	subst := make(map[model.MsgID]model.Payload)
	for i, rec := range solo {
		counted := adv.Counted[model.ProcID(i+1)]
		for j := 0; j < rec.Ni; j++ {
			keep[counted[j]] = true
			subst[counted[j]] = rec.DeliveredPayloads[j]
		}
	}
	gamma := &trace.Trace{X: adv.Beta.X.RestrictBroadcastOnly(keep)}
	end()
	if !admits(gamma) {
		return core.OutcomeNotCompositional, nil
	}
	end = tr.span(op, "model.derive")
	delta := &trace.Trace{X: gamma.X.RenameByMsg(subst)}
	end()
	if !admits(delta) {
		return core.OutcomeNotContentNeutral, nil
	}

	defer tr.span(op, "core.replay")()
	distinct := make(map[model.Value]bool)
	for i, rec := range solo {
		pid := model.ProcID(i + 1)
		dec, err := core.ReplayOnTrace(c.SolverFor()(pid), pid, k+1, rec.Input, delta)
		if err != nil {
			return 0, err
		}
		if dec != rec.Decision {
			return 0, fmt.Errorf("theorem %s k=%d: replay of %v decided %q, solo run %q", c.Name, k, pid, dec, rec.Decision)
		}
		distinct[dec] = true
	}
	if len(distinct) != k+1 {
		return 0, fmt.Errorf("theorem %s k=%d: %d distinct replay decisions, want %d", c.Name, k, len(distinct), k+1)
	}
	return core.OutcomeAgreementViolated, nil
}

func (w *theorem) layers(tr *tracer) map[string]float64 {
	return map[string]float64{
		"core.solo_ms":          tr.perOp("core.solo", 1e6),
		"adversary.run_ms":      tr.perOp("adversary.run", 1e6),
		"adversary.verify_ms":   tr.perOp("adversary.verify", 1e6),
		"adversary.alpha_steps": tr.perOp("adversary.alpha_steps", 1),
		"spec.check_ms":         tr.perOp("spec.check", 1e6),
		"model.derive_ms":       tr.perOp("model.derive", 1e6),
		"core.replay_ms":        tr.perOp("core.replay", 1e6),
	}
}
