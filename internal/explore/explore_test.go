package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// smokeOptions is the seeded-fault exploration used across tests: the
// send-to-all candidate does not solve k-set-agreement for k < n, so
// its FirstDecider solver violates k-SA-Agreement under essentially
// every schedule — a guaranteed target for the hunting machinery.
func smokeOptions() Options {
	return Options{
		Candidate: "send-to-all", N: 3, K: 1,
		Strategy: "random", Schedules: 16, Seed: 42,
	}
}

// TestExploreFindsAndMinimizes: the exploration finds violations, delta-
// debugs them to a shorter decision prefix, and the minimized .ktr trace
// decodes to a violating execution that the batch checker confirms.
func TestExploreFindsAndMinimizes(t *testing.T) {
	res, err := Run(context.Background(), smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("send-to-all with k<n should violate k-SA-Agreement")
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings minimized")
	}
	for _, f := range res.Findings {
		if f.Property != "k-SA-Agreement" {
			t.Fatalf("unexpected violated property %q", f.Property)
		}
		if f.MinLen == 0 || f.MinLen > f.ScheduleLen {
			t.Fatalf("minimized length %d vs schedule length %d", f.MinLen, f.ScheduleLen)
		}
		tr, err := trace.DecodeBinary(bytes.NewReader(f.KTR))
		if err != nil {
			t.Fatalf("minimized trace does not decode: %v", err)
		}
		if tr.Complete {
			t.Fatal("a violation-truncated trace must not be complete")
		}
		if tr.X.Len() != f.MinSteps {
			t.Fatalf("decoded %d steps, finding says %d", tr.X.Len(), f.MinSteps)
		}
		// The minimized execution violates the same property post hoc.
		v := spec.KSA(1).Check(tr)
		if v == nil || v.Property != f.Property {
			t.Fatalf("batch re-check of minimized trace: %v", v)
		}
	}
}

// TestExploreReproducesFromSeed: a finding's reported seed alone —
// plugged into a fresh runtime with the same parameters — reproduces the
// violation, the contract the CLI prints findings under.
func TestExploreReproducesFromSeed(t *testing.T) {
	o := smokeOptions()
	res, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Findings[0]
	cand, err := broadcast.Lookup(o.Candidate)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []model.Value{"v1", "v2", "v3"}
	rt, err := sched.New(sched.Config{
		N: o.N, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(o.K),
		NewApp: cand.SolverFor(), Inputs: inputs,
		LiveSpecs: []spec.Spec{cand.Spec(o.K), spec.KSA(o.K)},
	})
	if err != nil {
		t.Fatal(err)
	}
	strat, err := sched.NewStrategy(o.Strategy, o.Depth)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(strat, sched.RunOptions{Seed: f.Seed, MaxEvents: res.MaxEvents})
	var lve *sched.LiveViolationError
	if !errors.As(err, &lve) {
		t.Fatalf("want LiveViolationError from seed %d, got %v", f.Seed, err)
	}
	if lve.V.Property != f.Property || lve.StepIdx != f.StepIdx {
		t.Fatalf("seed %d reproduced (%s, step %d), finding says (%s, step %d)",
			f.Seed, lve.V.Property, lve.StepIdx, f.Property, f.StepIdx)
	}
}

// TestExploreDeterministicAcrossWorkers: the whole Result — counts,
// findings, minimized .ktr bytes — is byte-identical at any worker
// count (satellite: same seed + same strategy ⇒ same artifact at
// -workers 1/4/GOMAXPROCS).
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	encode := func(workers int) []byte {
		o := smokeOptions()
		o.Strategy = "pct"
		o.Depth = 3
		o.Crashes = 1
		o.Workers = workers
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := encode(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := encode(w); !bytes.Equal(got, want) {
			t.Fatalf("result at %d workers diverged from serial run", w)
		}
	}
}

// TestExploreFindsKBO: the headline hunt — the k-bounded-order candidate
// (the abstraction the paper refutes) violates its own ordering spec at
// n=4, k=2 under both samplers, and each finding minimizes to a strictly
// shorter replayable .ktr counterexample. EXPERIMENTS.md E22 records the
// full-scale version of this run (400 schedules per sampler).
func TestExploreFindsKBO(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		depth    int
		seed     uint64
	}{
		{strategy: "random", seed: 1},
		{strategy: "pct", depth: 3, seed: 1},
	} {
		t.Run(tc.strategy, func(t *testing.T) {
			res, err := Run(context.Background(), Options{
				Candidate: "kbo", N: 4, K: 2,
				Strategy: tc.strategy, Depth: tc.depth,
				Schedules: 8, Seed: tc.seed, Minimize: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violations == 0 || len(res.Findings) == 0 {
				t.Fatalf("no kbo ordering violation in 8 schedules (seed %d is known to hit)", tc.seed)
			}
			f := res.Findings[0]
			if f.Property != "k-Bounded-Order" {
				t.Fatalf("violated %s/%s, want k-Bounded-Order", f.Spec, f.Property)
			}
			if f.MinLen <= 0 || f.MinLen >= f.ScheduleLen {
				t.Fatalf("minimized to %d of %d decisions, want 0 < MinLen < ScheduleLen", f.MinLen, f.ScheduleLen)
			}
			tr, err := trace.DecodeBinary(bytes.NewReader(f.KTR))
			if err != nil {
				t.Fatal(err)
			}
			cand, err := broadcast.Lookup("kbo")
			if err != nil {
				t.Fatal(err)
			}
			if v := cand.Spec(2).Check(tr); v == nil || v.Property != f.Property {
				t.Fatalf("batch re-check of minimized kbo trace: %v", v)
			}
		})
	}
}

// TestExploreRecordsSchedMetrics: an exploration given a registry passes
// it to its runtimes, so the registry holds sched.* metrics, and the
// Result is the one an uninstrumented run returns.
func TestExploreRecordsSchedMetrics(t *testing.T) {
	o := smokeOptions()
	o.Obs = obs.New()
	res, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Obs.Counter("sched.steps").Value(); n <= 0 {
		t.Errorf("sched.steps = %d, want > 0", n)
	}
	if n := o.Obs.Histogram("sched.pending_depth").Snapshot().Count; n == 0 {
		t.Error("sched.pending_depth is empty")
	}
	bare, err := Run(context.Background(), smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	want, _ := json.Marshal(bare)
	if !bytes.Equal(got, want) {
		t.Error("the registry changed the Result")
	}
}

// TestExploreValidation: unusable parameter combinations are rejected
// before any work is spent.
func TestExploreValidation(t *testing.T) {
	bad := []Options{
		{Candidate: "no-such", N: 3, K: 1, Strategy: "random", Schedules: 1},
		{Candidate: "send-to-all", N: 0, K: 1, Strategy: "random", Schedules: 1},
		{Candidate: "send-to-all", N: 3, K: 4, Strategy: "random", Schedules: 1},
		{Candidate: "send-to-all", N: 3, K: 1, Strategy: "random", Schedules: 0},
		{Candidate: "send-to-all", N: 3, K: 1, Strategy: "random", Schedules: 1, Crashes: 3},
		{Candidate: "send-to-all", N: 3, K: 1, Strategy: "zigzag", Schedules: 1},
	}
	for i, o := range bad {
		if _, err := Run(context.Background(), o); err == nil {
			t.Errorf("case %d: options %+v accepted", i, o)
		}
	}
}

// TestDdmin: the minimizer isolates the decisions a synthetic predicate
// depends on and the result is 1-minimal.
func TestDdmin(t *testing.T) {
	full := make([]sched.Event, 20)
	for i := range full {
		full[i] = sched.Event{Net: i}
	}
	needs := func(sub []sched.Event, net int) bool {
		for _, e := range sub {
			if e.Net == net {
				return true
			}
		}
		return false
	}
	tests := 0
	min, err := ddmin(full, func(sub []sched.Event) (bool, error) {
		tests++
		return needs(sub, 3) && needs(sub, 7), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(min) != 2 || min[0].Net != 3 || min[1].Net != 7 {
		t.Fatalf("ddmin kept %v", min)
	}
	if tests == 0 || tests > 200 {
		t.Fatalf("ddmin used %d tests", tests)
	}
}
