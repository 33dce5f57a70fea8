package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/explore"
	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// The hunt workload's exploration: kbo's k-BO attempt at n=3, k=2,
// under 16 random schedules, the first violation delta-debugged.
const (
	huntN         = 3
	huntK         = 2
	huntSchedules = 16
)

// hunt runs one violation hunt per op, each with its own seed derived
// from the workload seed.
type hunt struct {
	seed   uint64
	cand   broadcast.Candidate
	inputs []model.Value
}

func newHunt(seed uint64, _ *tracer) instance { return &hunt{seed: seed} }

func (w *hunt) setup() error {
	var err error
	w.cand, err = broadcast.Lookup("kbo")
	for i := 1; i <= huntN; i++ {
		w.inputs = append(w.inputs, model.Value(fmt.Sprintf("v%d", i)))
	}
	return err
}

func (w *hunt) close() {}

func (w *hunt) options(i, minimize, workers int) explore.Options {
	return explore.Options{
		Candidate: w.cand.Name, N: huntN, K: huntK, Strategy: "random",
		Schedules: huntSchedules, Minimize: minimize, Workers: workers,
		Seed: rng.Derive(w.seed, uint64(i)),
	}
}

func (w *hunt) op(i int, tr *tracer) error {
	res, err := explore.Run(context.Background(), w.options(i, 1, 0))
	if err != nil {
		return err
	}
	if len(res.Findings) > res.Violations {
		return fmt.Errorf("hunt: %d findings but %d violations", len(res.Findings), res.Violations)
	}
	var cex *trace.Trace
	for _, f := range res.Findings {
		if cex, err = w.checkFinding(f); err != nil {
			return err
		}
	}
	if tr != nil {
		return w.traced(i, res, cex, tr)
	}
	return nil
}

// checkFinding decodes a finding's minimized counterexample and checks
// that a fresh monitor rejects it for the same spec and property.
func (w *hunt) checkFinding(f explore.Finding) (*trace.Trace, error) {
	if f.MinLen > f.ScheduleLen {
		return nil, fmt.Errorf("hunt cell %d: minimized length %d exceeds schedule length %d", f.Cell, f.MinLen, f.ScheduleLen)
	}
	t, err := trace.DecodeBinary(bytes.NewReader(f.KTR))
	if err != nil {
		return nil, fmt.Errorf("hunt cell %d: counterexample: %w", f.Cell, err)
	}
	v := w.monitor(t.X.Steps)
	if v == nil || v.Spec != f.Spec || v.Property != f.Property {
		return nil, fmt.Errorf("hunt cell %d: counterexample re-checks to %v, want %s/%s", f.Cell, v, f.Spec, f.Property)
	}
	return t, nil
}

// monitor feeds steps to a fresh monitor of the specs the hunt checks
// live and returns the first violation.
func (w *hunt) monitor(steps []model.Step) *spec.Violation {
	m := spec.NewMonitor(huntN, w.cand.Spec(huntK), spec.KSA(huntK))
	for _, s := range steps {
		if v := m.Feed(s); v != nil {
			return v
		}
	}
	return nil
}

func (w *hunt) runtime() (*sched.Runtime, error) {
	return sched.New(sched.Config{
		N:            huntN,
		NewAutomaton: w.cand.NewAutomaton,
		Oracle:       w.cand.OracleFor(huntK),
		NewApp:       w.cand.SolverFor(),
		Inputs:       w.inputs,
		LiveSpecs:    []spec.Spec{w.cand.Spec(huntK), spec.KSA(huntK)},
	})
}

// traced re-drives the op's 16 schedules directly on sched, replays the
// violating ones, feeds their traces to a monitor and encodes the
// counterexample, timing each layer; sweep.overhead_us compares the
// direct runs with a search-only explore.Run on one worker.
func (w *hunt) traced(op int, res *explore.Result, cex *trace.Trace, tr *tracer) error {
	tr.count("explore.violations", float64(res.Violations))
	tr.count("explore.total_steps", float64(res.TotalSteps))
	tr.count("explore.replays", float64(res.Replays))
	for _, f := range res.Findings {
		tr.count("explore.min_len", float64(f.MinLen))
	}

	t0 := time.Now()
	search, err := explore.Run(context.Background(), w.options(op, -1, 1))
	searchOnly := time.Since(t0)
	if err != nil {
		return err
	}
	opSeed := rng.Derive(w.seed, uint64(op))
	violations := 0
	var direct time.Duration
	for c := 0; c < huntSchedules; c++ {
		opts := sched.RunOptions{Seed: rng.Derive(opSeed, uint64(c)), MaxEvents: explore.DefaultMaxEvents}
		t0 := time.Now()
		end := tr.span(op, "sched.new")
		rt, err := w.runtime()
		end()
		if err != nil {
			return err
		}
		strat, err := sched.NewStrategy("random", 0)
		if err != nil {
			return err
		}
		rec := sched.NewRecorder(strat)
		end = tr.span(op, "sched.search")
		_, err = rt.Run(rec, opts)
		end()
		direct += time.Since(t0)
		var lve *sched.LiveViolationError
		if !errors.As(err, &lve) {
			if err != nil {
				return err
			}
			continue
		}
		violations++
		decisions := append([]sched.Event(nil), rec.Decisions()...)
		end = tr.span(op, "sched.new")
		rt, err = w.runtime()
		end()
		if err != nil {
			return err
		}
		end = tr.span(op, "sched.replay")
		_, err = rt.Run(sched.NewReplay(decisions), opts)
		end()
		var again *sched.LiveViolationError
		if !errors.As(err, &again) || !spec.SameVerdict(again.V, lve.V) {
			return fmt.Errorf("hunt schedule %d: replay gave %v, want %v", c, err, lve.V)
		}
		end = tr.span(op, "spec.live_feed")
		v := w.monitor(lve.Trace.X.Steps)
		end()
		tr.count("spec.live_feed_steps", float64(lve.Trace.X.Len()))
		if !spec.SameVerdict(v, lve.V) {
			return fmt.Errorf("hunt schedule %d: monitor gave %v, live checker %v", c, v, lve.V)
		}
	}
	if violations != res.Violations || violations != search.Violations {
		return fmt.Errorf("hunt: %d direct violations, explore found %d and %d", violations, res.Violations, search.Violations)
	}
	tr.count("sweep.overhead", float64((searchOnly - direct).Nanoseconds()))
	if cex != nil {
		var buf bytes.Buffer
		end := tr.span(op, "trace.encode")
		err := cex.EncodeBinary(&buf)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *hunt) layers(tr *tracer) map[string]float64 {
	return map[string]float64{
		"explore.violations":         tr.perOp("explore.violations", 1),
		"explore.total_steps":        tr.perOp("explore.total_steps", 1),
		"explore.replays":            tr.perOp("explore.replays", 1),
		"explore.min_len":            tr.perCall("explore.min_len", 1),
		"sched.new_us":               tr.perCall("sched.new", 1e3),
		"sched.search_ms":            tr.perOp("sched.search", 1e6),
		"sched.replay_us":            tr.perCall("sched.replay", 1e3),
		"spec.live_feed_ns_per_step": tr.per("spec.live_feed", tr.total["spec.live_feed_steps"], 1),
		"trace.encode_us":            tr.perCall("trace.encode", 1e3),
		"sweep.overhead_us":          tr.perOp("sweep.overhead", 1e3*huntSchedules),
	}
}
