// Package explore hunts for specification-violating schedules: it fans
// seeds out across the schedule space of one broadcast candidate through
// internal/sweep, runs each seed under a pluggable sched.Strategy
// (random or PCT priority-based sampling) with the candidate's spec and
// k-SA checked live, and delta-debugs every violating schedule down to a
// minimized decision prefix recorded as a wire-format-v1 (.ktr) trace.
//
// This is the model checker ROADMAP item 3 describes: the deterministic
// runtime supplies replayability, the online checkers supply fail-fast
// verdicts, and the sweep engine supplies scale. Determinism is end to
// end — every cell's randomness derives positionally from the root seed
// (rng.Derive), results collect in cell order, and minimization replays
// are pure functions of the recorded decisions — so a Result, including
// the minimized .ktr bytes, is bit-identical at any worker count, and
// any finding reproduces from its reported seed alone.
package explore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/sweep"
)

// Default bounds.
const (
	// DefaultMaxEvents bounds one schedule. Solver-driven runs quiesce
	// within a few hundred events at explorable system sizes; the bound
	// only cuts pathological schedules.
	DefaultMaxEvents = 5000
	// DefaultMinimize is how many violating schedules are delta-debugged
	// per exploration (the rest are counted but not minimized).
	DefaultMinimize = 3
)

// Options configures one exploration.
type Options struct {
	// Candidate names the broadcast abstraction under test (registry
	// name, e.g. "kbo" or "send-to-all").
	Candidate string
	// N is the number of processes, K the agreement degree: each run
	// drives the candidate's k-SA solver app with inputs v1..vN and
	// checks the candidate's own spec plus k-set-agreement live.
	N, K int
	// Strategy names the schedule sampler: "random", "pct", or "fair"
	// (fair explores nothing — every cell replays the same schedule —
	// but is allowed for baselines). Depth parameterizes "pct".
	Strategy string
	Depth    int
	// Schedules is the number of seeds to explore.
	Schedules int
	// Seed is the root seed; schedule i runs with rng.Derive(Seed, i).
	Seed uint64
	// MaxEvents bounds each schedule; zero selects DefaultMaxEvents.
	MaxEvents int
	// Crashes injects that many seeded crash faults per schedule (must
	// leave at least one process alive: 0 <= Crashes < N). Ordinals and
	// victims derive from the cell seed.
	Crashes int
	// Workers bounds the sweep pool; zero means GOMAXPROCS. The worker
	// count never changes the Result.
	Workers int
	// Minimize caps how many violating schedules are delta-debugged;
	// zero selects DefaultMinimize, negative disables minimization.
	Minimize int
	// Obs, when non-nil, receives exploration instrumentation (counters
	// explore.schedules / explore.violations / explore.steps /
	// explore.minimize_replays, histogram explore.min_len) on top of the
	// sweep's own metrics and the sched.* metrics of every search and
	// minimization run.
	Obs *obs.Registry
}

func (o Options) maxEvents() int {
	if o.MaxEvents <= 0 {
		return DefaultMaxEvents
	}
	return o.MaxEvents
}

func (o Options) minimize() int {
	switch {
	case o.Minimize == 0:
		return DefaultMinimize
	case o.Minimize < 0:
		return 0
	}
	return o.Minimize
}

// Finding is one violating schedule, minimized when within the
// exploration's Minimize budget (MinLen/MinSteps/KTR are zero otherwise).
type Finding struct {
	// Cell is the schedule's position in the sweep; Seed its derived
	// seed. Re-running the strategy with this seed (same candidate, n,
	// k, crashes, event bound) reproduces the violation exactly.
	Cell int    `json:"cell"`
	Seed uint64 `json:"seed"`
	// Spec/Property/Detail identify the violated property; StepIdx is
	// the violating step in the original schedule.
	Spec     string `json:"spec"`
	Property string `json:"property"`
	Detail   string `json:"detail,omitempty"`
	StepIdx  int    `json:"step_idx"`
	// ScheduleLen is the number of scheduler decisions up to the
	// violation; MinLen the decision count after delta-debugging and
	// MinSteps the recorded steps of the minimized run.
	ScheduleLen int `json:"schedule_len"`
	MinLen      int `json:"min_len,omitempty"`
	MinSteps    int `json:"min_steps,omitempty"`
	// KTR is the minimized violating trace in wire format v1
	// (application/x-ksatrace), ending at the violating step.
	KTR []byte `json:"ktr,omitempty"`
}

// Result is one exploration's deterministic outcome: identical Options
// (including Seed) produce byte-identical Results at any worker count.
// Wall-clock figures (schedules/sec) deliberately live outside, in obs
// metrics and caller-side timing, to keep the Result cacheable by value.
type Result struct {
	Candidate  string    `json:"candidate"`
	Strategy   string    `json:"strategy"`
	Depth      int       `json:"depth,omitempty"`
	N          int       `json:"n"`
	K          int       `json:"k"`
	Schedules  int       `json:"schedules"`
	Seed       uint64    `json:"seed"`
	MaxEvents  int       `json:"max_events"`
	Crashes    int       `json:"crashes,omitempty"`
	Violations int       `json:"violations"`
	TotalSteps int       `json:"total_steps"`
	Replays    int       `json:"minimize_replays,omitempty"`
	Findings   []Finding `json:"findings"`
}

// cellOut is one schedule's outcome inside the sweep.
type cellOut struct {
	steps     int
	v         *spec.Violation
	decisions []sched.Event
}

// engine carries the per-exploration constants shared by search and
// minimization runs.
type engine struct {
	opts   Options
	cand   broadcast.Candidate
	inputs []model.Value
}

// validate resolves the candidate and rejects unusable parameter
// combinations.
func newEngine(o Options) (*engine, error) {
	cand, err := broadcast.Lookup(o.Candidate)
	if err != nil {
		return nil, err
	}
	if o.N < 1 || o.N > 64 {
		return nil, fmt.Errorf("explore: n must be in [1,64], got %d", o.N)
	}
	if o.K < 1 || o.K > o.N {
		return nil, fmt.Errorf("explore: k must be in [1,n], got %d", o.K)
	}
	if o.Schedules < 1 {
		return nil, fmt.Errorf("explore: schedules must be positive, got %d", o.Schedules)
	}
	if o.Crashes < 0 || o.Crashes >= o.N {
		return nil, fmt.Errorf("explore: crashes must be in [0,n), got %d", o.Crashes)
	}
	if _, err := sched.NewStrategy(o.Strategy, o.Depth); err != nil {
		return nil, err
	}
	inputs := make([]model.Value, o.N)
	for i := range inputs {
		inputs[i] = model.Value(fmt.Sprintf("v%d", i+1))
	}
	return &engine{opts: o, cand: cand, inputs: inputs}, nil
}

// runtime builds a fresh, identically-configured runtime for one run.
func (e *engine) runtime() (*sched.Runtime, error) {
	return sched.New(sched.Config{
		N:            e.opts.N,
		NewAutomaton: e.cand.NewAutomaton,
		Oracle:       e.cand.OracleFor(e.opts.K),
		NewApp:       e.cand.SolverFor(),
		Inputs:       e.inputs,
		LiveSpecs:    []spec.Spec{e.cand.Spec(e.opts.K), spec.KSA(e.opts.K)},
		Obs:          e.opts.Obs,
	})
}

// crashPlan derives the cell's seeded crash injections. The stream is
// separate from the strategy's (positional derivation off the cell
// seed), so the same faults hit whatever the strategy picks. Ordinals
// land early in the run — crashes beyond quiescence would be no-ops.
func (e *engine) crashPlan(cellSeed uint64) map[int]model.ProcID {
	if e.opts.Crashes == 0 {
		return nil
	}
	src := rng.New(rng.Derive(cellSeed, 0x6372617368)) // "crash"
	plan := make(map[int]model.ProcID, e.opts.Crashes)
	window := 64 * e.opts.N
	for len(plan) < e.opts.Crashes {
		plan[1+src.Intn(window)] = model.ProcID(1 + src.Intn(e.opts.N))
	}
	return plan
}

// runOptions builds the RunOptions for one cell seed.
func (e *engine) runOptions(cellSeed uint64) sched.RunOptions {
	return sched.RunOptions{
		Seed:      cellSeed,
		MaxEvents: e.opts.maxEvents(),
		CrashAt:   e.crashPlan(cellSeed),
	}
}

// search runs one schedule, recording its decisions. A live violation is
// a successful outcome (captured in the cellOut); any other run error is
// a genuine failure.
func (e *engine) search(c sweep.Cell) (cellOut, error) {
	rt, err := e.runtime()
	if err != nil {
		return cellOut{}, err
	}
	strat, err := sched.NewStrategy(e.opts.Strategy, e.opts.Depth)
	if err != nil {
		return cellOut{}, err
	}
	rec := sched.NewRecorder(strat)
	if _, err := rt.Drive(rec, e.runOptions(c.Seed)); err != nil {
		return cellOut{}, err
	}
	out := cellOut{steps: rt.StepCount()}
	if v, _ := rt.LiveViolation(); v != nil {
		out.v = v
		out.decisions = append([]sched.Event(nil), rec.Decisions()...)
	}
	return out, nil
}

// reproduces resets rt, replays a decision sequence on it and reports
// whether the replay still violates the same property. It builds no
// trace: a ddmin candidate needs only the verdict.
func (e *engine) reproduces(rt *sched.Runtime, decisions []sched.Event, want *spec.Violation, opts sched.RunOptions) (bool, error) {
	rt.Reset(e.cand.OracleFor(e.opts.K))
	if _, err := rt.Drive(sched.NewReplay(decisions), opts); err != nil {
		return false, err
	}
	v, _ := rt.LiveViolation()
	return v != nil && v.Spec == want.Spec && v.Property == want.Property, nil
}

// Run explores the schedule space. The returned Result is deterministic
// in Options; ctx cancels both the sweep and the minimization phase.
func Run(ctx context.Context, o Options) (*Result, error) {
	sh, err := Scan(ctx, o, 0, o.Schedules)
	if err != nil {
		return nil, err
	}
	return Merge(o, []*Shard{sh})
}

// Shard is the outcome of scanning one contiguous cell range [Lo, Hi) of
// an exploration. Because every cell's randomness derives positionally
// from the root seed, a Shard is a pure function of (Options, Lo, Hi):
// the same range scanned on any host, at any worker count, inside any
// partitioning, yields the same Shard — which is what lets a coordinator
// fan ranges out to a fleet and still merge a byte-identical Result.
type Shard struct {
	Lo         int            `json:"lo"`
	Hi         int            `json:"hi"`
	Violations int            `json:"violations"`
	TotalSteps int            `json:"total_steps"`
	Findings   []ShardFinding `json:"findings,omitempty"`
}

// ShardFinding carries one minimized finding plus the replay count its
// minimization spent. Replays stay per-finding (not summed into the
// shard) because the merged Result counts only the replays of the
// findings it keeps: a shard minimizes up to the budget within its own
// range, but globally-late findings are dropped at merge time and their
// replay cost must not leak into the deterministic Result.
type ShardFinding struct {
	Finding
	Replays int `json:"replays"`
}

// Scan explores the cell range [lo, hi) of the schedule space described
// by o. Cell seeds derive from the cell's GLOBAL index — rng.Derive(Seed,
// cell), not the position within this shard — so any partitioning of
// [0, Schedules) into Scan calls is bit-identical to one full-range run.
// Per-shard findings are minimized up to o's budget (a finding that is
// within the budget globally is necessarily within it in its own shard).
func Scan(ctx context.Context, o Options, lo, hi int) (*Shard, error) {
	e, err := newEngine(o)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > o.Schedules || lo >= hi {
		return nil, fmt.Errorf("explore: shard range [%d,%d) outside schedules [0,%d)", lo, hi, o.Schedules)
	}
	outs, err := sweep.Run(ctx, hi-lo, sweep.Options{
		Workers: o.Workers,
		Seed:    o.Seed,
		Obs:     o.Obs,
	}, func(ctx context.Context, c sweep.Cell) (cellOut, error) {
		// Global positional seed: cell lo+c.Index of the exploration, not
		// cell c.Index of this shard.
		return e.search(sweep.Cell{Index: lo + c.Index, Seed: rng.Derive(o.Seed, uint64(lo+c.Index))})
	})
	if err != nil {
		return nil, err
	}

	sh := &Shard{Lo: lo, Hi: hi}
	reg := o.Obs
	replays := 0
	for i, out := range outs {
		cell := lo + i
		sh.TotalSteps += out.steps
		if out.v == nil {
			continue
		}
		sh.Violations++
		if len(sh.Findings) >= o.minimize() {
			continue
		}
		f := Finding{
			Cell: cell, Seed: rng.Derive(o.Seed, uint64(cell)),
			Spec: out.v.Spec, Property: out.v.Property, Detail: out.v.Detail,
			StepIdx: out.v.StepIdx, ScheduleLen: len(out.decisions),
		}
		min, r, err := e.minimizeFinding(ctx, out, f.Seed)
		if err != nil {
			return nil, err
		}
		replays += r
		if min != nil {
			f.MinLen = min.len
			f.MinSteps = min.steps
			f.KTR = min.ktr
			reg.Histogram("explore.min_len").Observe(int64(min.len))
		}
		sh.Findings = append(sh.Findings, ShardFinding{Finding: f, Replays: r})
	}
	reg.Counter("explore.schedules").Add(int64(hi - lo))
	reg.Counter("explore.violations").Add(int64(sh.Violations))
	reg.Counter("explore.steps").Add(int64(sh.TotalSteps))
	reg.Counter("explore.minimize_replays").Add(int64(replays))
	return sh, nil
}

// Merge assembles shards covering [0, o.Schedules) into the Result a
// single full-range run would produce, byte-identical: violation and
// step totals sum; findings concatenate in cell order up to the minimize
// budget (each shard over-collects at most its own budget, so the first
// budget findings globally are all present); Replays counts only the
// minimizations of the findings kept. Shards may arrive in any order but
// must tile the range exactly.
func Merge(o Options, shards []*Shard) (*Result, error) {
	ordered := make([]*Shard, len(shards))
	copy(ordered, shards)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Lo < ordered[j].Lo })
	next := 0
	for _, sh := range ordered {
		if sh == nil {
			return nil, fmt.Errorf("explore: merge: missing shard at cell %d", next)
		}
		if sh.Lo != next || sh.Hi <= sh.Lo {
			return nil, fmt.Errorf("explore: merge: shard [%d,%d) does not continue coverage at cell %d", sh.Lo, sh.Hi, next)
		}
		next = sh.Hi
	}
	if next != o.Schedules {
		return nil, fmt.Errorf("explore: merge: shards cover [0,%d), want [0,%d)", next, o.Schedules)
	}

	res := &Result{
		Candidate: o.Candidate, Strategy: o.Strategy, Depth: o.Depth,
		N: o.N, K: o.K, Schedules: o.Schedules, Seed: o.Seed,
		MaxEvents: o.maxEvents(), Crashes: o.Crashes,
		Findings: []Finding{},
	}
	for _, sh := range ordered {
		res.Violations += sh.Violations
		res.TotalSteps += sh.TotalSteps
		for _, sf := range sh.Findings {
			if len(res.Findings) >= o.minimize() {
				break
			}
			res.Replays += sf.Replays
			res.Findings = append(res.Findings, sf.Finding)
		}
	}
	return res, nil
}

// minimized is the outcome of delta-debugging one finding.
type minimized struct {
	len   int
	steps int
	ktr   []byte
}

// minimizeFinding ddmin-reduces the finding's decision sequence and
// encodes the minimized violating run as a .ktr trace. All its replays
// run on one runtime, reset before each.
func (e *engine) minimizeFinding(ctx context.Context, out cellOut, cellSeed uint64) (*minimized, int, error) {
	rt, err := e.runtime()
	if err != nil {
		return nil, 0, err
	}
	opts := e.runOptions(cellSeed)
	replays := 0
	test := func(decisions []sched.Event) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		replays++
		return e.reproduces(rt, decisions, out.v, opts)
	}
	min, err := ddmin(out.decisions, test)
	if err != nil {
		return nil, replays, err
	}
	// Re-execute the minimized schedule once more for its trace; by
	// construction it still violates the same property.
	replays++
	rt.Reset(e.cand.OracleFor(e.opts.K))
	_, err = rt.Run(sched.NewReplay(min), opts)
	var lve *sched.LiveViolationError
	if err != nil && !errors.As(err, &lve) {
		return nil, replays, err
	}
	if lve == nil || lve.V.Spec != out.v.Spec || lve.V.Property != out.v.Property {
		return nil, replays, fmt.Errorf("explore: minimized schedule (%d decisions) stopped reproducing %s/%s", len(min), out.v.Spec, out.v.Property)
	}
	var ktr bytes.Buffer
	if err := lve.Trace.EncodeBinary(&ktr); err != nil {
		return nil, replays, err
	}
	return &minimized{len: len(min), steps: lve.Trace.X.Len(), ktr: ktr.Bytes()}, replays, nil
}
