package adversary

import (
	"cmp"
	"fmt"
	"slices"

	"nobroadcast/internal/model"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// This file implements the mechanical verification of the adversarial
// construction: the N-solo checker of Definition 5, and Verify, which
// re-establishes Lemmas 1-8 (α is admitted by CAMP_{k+1}[k-SA]) and
// Lemma 10's conclusion (β is N-solo) on the concrete trace.

// CheckNSolo verifies Definition 5 on an execution: witness maps each
// process to N messages it broadcast, and for every pair of distinct
// processes p_i, p_j, p_i must B-deliver all of witness[p_i] before
// B-delivering any message of witness[p_j]. It returns nil if the
// execution is N-solo with this witness, else a description of the
// failure.
func CheckNSolo(t *trace.Trace, n int, witness map[model.ProcID][]model.MsgID) error {
	ix := trace.BuildIndex(t)
	procs := make([]model.ProcID, 0, len(witness))
	for p := range witness {
		procs = append(procs, p)
	}
	for _, p := range procs {
		if len(witness[p]) != n {
			return fmt.Errorf("adversary: %v has %d witness messages, want %d", p, len(witness[p]), n)
		}
		for _, m := range witness[p] {
			info, ok := ix.Broadcasts[m]
			if !ok || info.From != p {
				return fmt.Errorf("adversary: witness m%d of %v was not broadcast by %v", m, p, p)
			}
		}
	}
	for _, pi := range procs {
		pos := ix.DeliveryPos[pi]
		// Last delivery position of p_i's own witness messages.
		lastOwn := -1
		for _, m := range witness[pi] {
			q, ok := pos[m]
			if !ok {
				return fmt.Errorf("adversary: %v never B-delivers its own witness m%d", pi, m)
			}
			if q > lastOwn {
				lastOwn = q
			}
		}
		for _, pj := range procs {
			if pj == pi {
				continue
			}
			for _, m := range witness[pj] {
				if q, ok := pos[m]; ok && q < lastOwn {
					return fmt.Errorf("adversary: %v B-delivers %v's witness m%d (position %d) before finishing its own witness (position %d)", pi, pj, m, q, lastOwn)
				}
			}
		}
	}
	return nil
}

// FindNSoloWitness searches an execution for an N-solo witness: for each
// process it tries the last N messages the process broadcast and
// delivered. It returns the witness if the execution is N-solo with it.
func FindNSoloWitness(t *trace.Trace, n int) (map[model.ProcID][]model.MsgID, error) {
	ix := trace.BuildIndex(t)
	witness := make(map[model.ProcID][]model.MsgID, t.X.N)
	for p := 1; p <= t.X.N; p++ {
		pid := model.ProcID(p)
		var own []model.MsgID
		for _, m := range ix.BroadcastSeq[pid] {
			if _, ok := ix.DeliveryPos[pid][m]; ok {
				own = append(own, m)
			}
		}
		if len(own) < n {
			return nil, fmt.Errorf("adversary: %v broadcast-and-delivered only %d messages, need %d", pid, len(own), n)
		}
		witness[pid] = own[len(own)-n:]
	}
	if err := CheckNSolo(t, n, witness); err != nil {
		return nil, err
	}
	return witness, nil
}

// LemmaReport records the outcome of one mechanical lemma check.
type LemmaReport struct {
	Lemma string
	OK    bool
	Err   string
}

// Verify re-establishes the paper's lemmas on the concrete construction:
//
//	Lemma 1-3: k-SA-Validity/Agreement/Termination on α and every γ_i
//	Lemma 4-5: SR-Validity/No-Duplication on α and every γ_i
//	Lemma 6:   well-formedness of α and every γ_i
//	Lemma 7:   α is finite (trivially: Run returned)
//	Lemma 8:   SR-Termination on α (the line 26 flush emptied the network)
//	Lemma 10:  β is N-solo with the counted witness
//
// It returns one report per lemma; Ok reports whether all passed.
func (r *Result) Verify() (reports []LemmaReport, ok bool) {
	add := func(lemma string, err error) {
		rep := LemmaReport{Lemma: lemma, OK: err == nil}
		if err != nil {
			rep.Err = err.Error()
		}
		reports = append(reports, rep)
	}
	violationErr := func(v *spec.Violation) error {
		if v == nil {
			return nil
		}
		return fmt.Errorf("%s", v.String())
	}

	gammas := make([]*trace.Trace, 0, r.K+1)
	for i := 1; i <= r.K+1; i++ {
		gammas = append(gammas, r.Gamma(model.ProcID(i)))
	}
	// α's verdicts are the ones the live checkers latched while Algorithm
	// 1 ran (Result.Live); a spec Run did not monitor fails its lemma.
	alphaErr := func(s spec.Spec) error {
		if r.Live != nil {
			if v, ok := r.Live.Verdict(s.Name()); ok {
				return violationErr(v)
			}
		}
		return fmt.Errorf("%s was not monitored while alpha ran", s.Name())
	}
	onAll := func(lemma string, s spec.Spec) {
		if err := alphaErr(s); err != nil {
			add(lemma+" (alpha)", err)
			return
		}
		for i, g := range gammas {
			if err := violationErr(s.Check(g)); err != nil {
				add(fmt.Sprintf("%s (gamma_%d)", lemma, i+1), err)
				return
			}
		}
		add(lemma, nil)
	}

	// Lemmas 1-2 and 4-5 are the safety halves of the k-SA and channel
	// specifications (liveness is skipped on incomplete traces).
	onAll("Lemma 1-2 (k-SA-Validity, k-SA-Agreement)", spec.KSA(r.K))
	onAll("Lemma 4-5 (SR-Validity, SR-No-Duplication)", spec.Channels())
	onAll("Lemma 6 (Well-Formed)", spec.WellFormed())

	// Lemma 3 (k-SA-Termination): every propose in α is followed by a
	// decide by the same process on the same object.
	add("Lemma 3 (k-SA-Termination)", checkEveryProposeDecides(r.Alpha))
	for i, g := range gammas {
		if err := checkEveryProposeDecides(g); err != nil {
			add(fmt.Sprintf("Lemma 3 (gamma_%d)", i+1), err)
		}
	}

	// Lemma 7: α finite — Run returned, so record the step count.
	add(fmt.Sprintf("Lemma 7 (termination, |alpha| = %d steps)", r.Alpha.X.Len()), nil)

	// Lemma 8: every sent message was received (line 26 flush).
	add("Lemma 8 (SR-Termination)", checkAllSendsReceived(r.Alpha))

	// Lemma 10: β is N-solo with the counted witness.
	add("Lemma 10 (beta is N-solo)", CheckNSolo(r.Beta, r.N, r.Counted))

	ok = true
	for _, rep := range reports {
		if !rep.OK {
			ok = false
		}
	}
	return reports, ok
}

// checkEveryProposeDecides verifies that each propose step is eventually
// followed by a decide by the same process on the same object. Of several
// open proposals it names the lowest process, then the lowest object.
func checkEveryProposeDecides(t *trace.Trace) error {
	type key struct {
		p   model.ProcID
		obj model.KSAID
	}
	open := make(map[key]bool)
	for _, s := range t.X.Steps {
		switch s.Kind {
		case model.KindPropose:
			open[key{s.Proc, s.Obj}] = true
		case model.KindDecide:
			delete(open, key{s.Proc, s.Obj})
		}
	}
	if len(open) == 0 {
		return nil
	}
	keys := make([]key, 0, len(open))
	for k := range open {
		keys = append(keys, k)
	}
	low := slices.MinFunc(keys, func(a, b key) int { return cmp.Or(cmp.Compare(a.p, b.p), cmp.Compare(a.obj, b.obj)) })
	return fmt.Errorf("%v proposed on %v but never decides", low.p, low.obj)
}

// checkAllSendsReceived verifies SR-Termination positionally: every send
// has a matching receive.
func checkAllSendsReceived(t *trace.Trace) error {
	sent := make(map[model.MsgID]bool)
	for _, s := range t.X.Steps {
		switch s.Kind {
		case model.KindSend:
			sent[s.Msg] = true
		case model.KindReceive:
			delete(sent, s.Msg)
		}
	}
	if len(sent) > 0 {
		return fmt.Errorf("%d sent messages were never received", len(sent))
	}
	return nil
}
