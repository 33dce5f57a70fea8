package sched

import (
	"fmt"
	"sort"

	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
)

// This file defines the pluggable scheduling layer: a Strategy owns the
// one decision the run loop delegates — which enabled event executes
// next. The deterministic fair schedule and the seeded uniform-random
// schedule (previously monolithic loops in run.go) are strategies, as is
// the PCT priority-based sampler used by internal/explore to hunt for
// violating schedules. The paper's adversarial scheduler remains separate
// (internal/adversary drives the event primitives directly; it needs to
// interleave construction bookkeeping between steps, not just pick).

// EventKind enumerates the scheduler's choices.
type EventKind uint8

// The event kinds a scheduler picks among.
const (
	// EventExec executes the process's next queued action.
	EventExec EventKind = iota
	// EventDecide fires the process's pending k-SA decision.
	EventDecide
	// EventReceive delivers an in-flight point-to-point message.
	EventReceive
	// EventInvoke invokes the process's next queued upper-layer broadcast.
	EventInvoke
)

// String names the kind for logs and minimized-schedule dumps.
func (k EventKind) String() string {
	switch k {
	case EventExec:
		return "exec"
	case EventDecide:
		return "decide"
	case EventReceive:
		return "receive"
	case EventInvoke:
		return "invoke"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one enabled scheduler choice. Proc is the acting process (the
// receiver, for EventReceive). For EventReceive, Net is the message's
// current index in the in-flight queue — valid only for the step it was
// enumerated for — while Msg and From identify the message instance
// stably (replay matching uses From, which survives re-execution with a
// different event prefix; Msg is allocation-order dependent).
type Event struct {
	Kind EventKind
	Proc model.ProcID
	Net  int
	Msg  model.MsgID
	From model.ProcID
}

// String renders the event for schedule dumps.
func (e Event) String() string {
	if e.Kind == EventReceive {
		return fmt.Sprintf("receive(%v<-%v m%d)", e.Proc, e.From, e.Msg)
	}
	return fmt.Sprintf("%s(%v)", e.Kind, e.Proc)
}

// StopRun is the sentinel a Strategy returns from Next to end the run
// before the event bound: the recorded prefix becomes the run's trace.
// Replay strategies use it when their decision sequence is exhausted.
const StopRun = -1

// Strategy picks the next event of a run. The run loop (Runtime.Run)
// calls Begin once, then Next once per step with the non-empty view of
// the currently enabled events; Next returns the index of the event to
// execute, or StopRun to end the run at the current prefix.
//
// Determinism contract: a Strategy must be a pure function of (a) the
// RunOptions it saw at Begin — in particular all randomness must come
// from a generator seeded by opts.Seed — and (b) the sequence of enabled
// sets it has been shown. It must not retain the view across calls (the
// next step changes it), must not consult wall clocks, global
// generators, or map iteration order, and must not mutate the runtime.
// Replays with equal seeds then produce bit-identical traces, which
// Lemma 9's indistinguishability machinery and the explore/sweep fan-out
// both rely on.
type Strategy interface {
	// Name identifies the strategy ("fair", "random", "pct", ...).
	Name() string
	// Begin resets the strategy for a fresh run on rt. Strategies are
	// single-run state machines; reusing one for another run requires no
	// more than the Begin call.
	Begin(rt *Runtime, opts RunOptions)
	// Next returns the index into enabled of the event to execute at
	// step (0-based count of executed events), or StopRun. enabled is
	// non-empty and must not be retained.
	Next(enabled *Enabled, step int) int
}

// CrashPointer is optionally implemented by strategies whose schedules
// honor RunOptions.CrashAt injections only at specific points. The run
// loop asks before every step; strategies that do not implement it have
// due crashes applied before every step (the historical RunRandom
// timing). The fair strategy implements it to preserve the historical
// RunFair timing: crashes fire at process-slot boundaries, never inside
// a round's delivery pass.
type CrashPointer interface {
	AtCrashPoint() bool
}

// NewFair returns the deterministic fair strategy: each round lets every
// process p_1..p_n invoke one queued upper-layer broadcast if possible
// and take one action or decision, then delivers every message that was
// in flight when the round's delivery pass began, oldest first. Message
// transit is thus bounded by one round — a convenient synchronous-looking
// special case of the asynchronous model. Ignores opts.Seed.
func NewFair() Strategy { return &fairStrategy{} }

// NewRandom returns the seeded uniform-random strategy: each step picks
// uniformly among the enabled events, driven by a generator seeded with
// opts.Seed. The historical RunRandom schedule, bit for bit.
func NewRandom() Strategy { return &randomStrategy{} }

// fairStrategy replays the historical RunFair round structure one pick
// at a time: slot phase (process p invokes, then decides-or-executes),
// then the delivery phase over the messages in flight at its start.
type fairStrategy struct {
	rt *Runtime
	n  int
	// deliver is false in the slot phase (process p's slot, invoked set
	// once the slot consumed its invoke pick) and true in the delivery
	// phase (budget old messages left to consider; skip dead-receiver
	// messages parked at the queue front).
	deliver bool
	p       int
	invoked bool
	budget  int
	skip    int
}

func (s *fairStrategy) Name() string { return "fair" }

func (s *fairStrategy) Begin(rt *Runtime, opts RunOptions) {
	*s = fairStrategy{rt: rt, n: rt.cfg.N, p: 1}
}

func (s *fairStrategy) Next(enabled *Enabled, step int) int {
	// Two sweeps: the first covers the remaining slots of the current
	// round plus its delivery phase; after wrapping, the second covers a
	// full fresh round. A non-empty enabled set guarantees a pick within
	// one full round, so the second sweep always succeeds.
	for sweep := 0; sweep < 2; sweep++ {
		for !s.deliver && s.p <= s.n {
			pid := model.ProcID(s.p)
			if !s.invoked {
				if i := enabled.find(EventInvoke, pid); i >= 0 {
					s.invoked = true
					return i
				}
			}
			// The slot's one action: a pending decision fires, else the
			// next queued action executes. Either way the slot ends.
			i := enabled.find(EventDecide, pid)
			if i < 0 {
				i = enabled.find(EventExec, pid)
			}
			s.p++
			s.invoked = false
			if i >= 0 {
				return i
			}
		}
		if !s.deliver {
			// Deliver everything currently in flight to live processes.
			// Receivers may send more; those wait for the next round.
			s.deliver = true
			s.budget = len(s.rt.network)
			s.skip = 0
		}
		for s.budget > 0 {
			if i := enabled.receive(s.skip); i >= 0 {
				s.budget--
				return i
			}
			// The oldest unconsidered message targets a crashed process:
			// it stays parked at the queue front and the scan moves on.
			s.skip++
			s.budget--
		}
		// Delivery pass exhausted: wrap to the next round.
		s.deliver = false
		s.p = 1
		s.invoked = false
	}
	// Unreachable: enabled was non-empty and a full round considers
	// every process and every deliverable message.
	return 0
}

// AtCrashPoint implements CrashPointer: the historical RunFair honored
// crash injections at the start of each process slot — never between a
// slot's invoke and its action, and never inside a delivery pass. A
// delivery phase with no deliverable old message left is already at the
// next round's first slot boundary.
func (s *fairStrategy) AtCrashPoint() bool {
	if !s.deliver {
		return !s.invoked && s.p <= s.n
	}
	for i := s.skip; i < s.skip+s.budget && i < len(s.rt.network); i++ {
		if ps, err := s.rt.proc(s.rt.network[i].to); err == nil && !ps.crashed {
			return false // a deliverable old message remains: mid-pass
		}
	}
	return true
}

// randomStrategy picks uniformly among the enabled events.
type randomStrategy struct {
	src *rng.Source
}

func (s *randomStrategy) Name() string { return "random" }

func (s *randomStrategy) Begin(rt *Runtime, opts RunOptions) {
	s.src = rng.New(opts.Seed)
}

func (s *randomStrategy) Next(enabled *Enabled, step int) int {
	return s.src.Intn(enabled.Len())
}

// DefaultPCTDepth is the number of priority change points a PCT strategy
// uses when none is configured.
const DefaultPCTDepth = 3

// NewPCT returns a PCT-style priority-based sampler [Burckhardt et al.,
// ASPLOS 2010], adapted to the message-passing runtime: the schedulable
// entities are processes (exec/decide/invoke events) and in-flight
// message instances (receive events). Every entity draws a random high
// priority on first sight and the highest-priority enabled event runs;
// at depth step ordinals drawn uniformly from the run's event budget,
// the entity about to be scheduled is demoted below every initial
// priority. Each run is thus a schedule with at most depth priority
// inversions — the shape that surfaces bugs needing d ordering
// "accidents" with probability ≥ 1/(n·k^(d-1)) in the original analysis,
// and empirically finds ordering violations far faster than uniform
// sampling. depth <= 0 selects DefaultPCTDepth. Seeded by opts.Seed.
func NewPCT(depth int) Strategy {
	if depth <= 0 {
		depth = DefaultPCTDepth
	}
	return &pctStrategy{depth: depth}
}

// pctEntity is one schedulable unit: a process, or (for receive events)
// a message instance.
type pctEntity struct {
	proc model.ProcID
	msg  model.MsgID
}

func eventEntity(e Event) pctEntity {
	if e.Kind == EventReceive {
		return pctEntity{msg: e.Msg}
	}
	return pctEntity{proc: e.Proc}
}

type pctStrategy struct {
	depth   int
	src     *rng.Source
	prio    map[pctEntity]uint64
	change  map[int]bool
	demoted uint64
}

func (s *pctStrategy) Name() string { return "pct" }

func (s *pctStrategy) Begin(rt *Runtime, opts RunOptions) {
	s.src = rng.New(opts.Seed)
	s.prio = make(map[pctEntity]uint64)
	s.change = make(map[int]bool, s.depth)
	s.demoted = 0
	// Change points are drawn over the full event budget; draws landing
	// on the same ordinal merge (a run then has fewer inversions), and
	// ordinals past the actual run length never fire. Both are standard
	// PCT behavior — the d inversions are "at most d".
	for i := 0; i < s.depth; i++ {
		s.change[s.src.Intn(opts.maxEvents())] = true
	}
}

// priority returns the entity's priority, drawing a fresh high one (top
// bit set, so always above the 0..depth-1 demotion band) on first sight.
// First-sight order follows the deterministic enabled order, so the
// generator stream — and with it the whole schedule — is a pure function
// of the seed.
func (s *pctStrategy) priority(ent pctEntity) uint64 {
	p, ok := s.prio[ent]
	if !ok {
		p = s.src.Uint64() | 1<<63
		s.prio[ent] = p
	}
	return p
}

func (s *pctStrategy) pick(enabled *Enabled) int {
	best, bestP := 0, uint64(0)
	for i, n := 0, enabled.Len(); i < n; i++ {
		if p := s.priority(eventEntity(enabled.At(i))); i == 0 || p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

func (s *pctStrategy) Next(enabled *Enabled, step int) int {
	best := s.pick(enabled)
	if s.change[step] {
		// Change point: demote the entity about to run below every
		// initial priority and schedule under the new order. Demotions
		// keep their relative age (0, 1, 2, ...), as in the original
		// algorithm.
		s.prio[eventEntity(enabled.At(best))] = s.demoted
		s.demoted++
		best = s.pick(enabled)
	}
	return best
}

// NewReplay returns a strategy that re-executes a recorded decision
// sequence (see Recorder). Each step the next decision is matched
// against the enabled events — by (kind, process) for process events;
// receives prefer the exact message instance and fall back to the
// oldest in-flight message with the same (receiver, sender). Replaying
// an unmodified recorded sequence is therefore bit-exact (the run
// evolves identically, so every instance id lines up), while a
// subsequence — MsgIDs renumber once any event is dropped — replays as
// "execute these decisions, in order, as far as they still apply".
// Decisions that match nothing enabled are skipped, and when the
// sequence is exhausted the run stops (StopRun). That skip-and-stop
// semantics is exactly the re-execution the delta-debugging minimizer in
// internal/explore needs: a minimized candidate either reproduces the
// violation under the live checkers or it does not, and correctness
// never depends on the matching being semantically exact.
func NewReplay(decisions []Event) Strategy {
	return &replayStrategy{decisions: decisions}
}

type replayStrategy struct {
	decisions []Event
	cursor    int
}

func (s *replayStrategy) Name() string { return "replay" }

func (s *replayStrategy) Begin(rt *Runtime, opts RunOptions) { s.cursor = 0 }

// match returns the index of the enabled event the decision applies to,
// or -1. An exact instance-id match wins (bit-exact full-sequence
// replay); otherwise the oldest same-(receiver, sender) message stands
// in — MsgIDs are allocated in execution order, so dropping an earlier
// event renumbers every later message and exact-id-only matching would
// make every minimization candidate vacuous. Process events precede the
// receives in the view, so each kind of decision scans only its part.
func match(enabled *Enabled, d Event) int {
	if d.Kind != EventReceive {
		return enabled.find(d.Kind, d.Proc)
	}
	fallback := -1
	for i, n := len(enabled.procs), enabled.Len(); i < n; i++ {
		e := enabled.At(i)
		if e.Proc != d.Proc || e.From != d.From {
			continue
		}
		if e.Msg == d.Msg {
			return i
		}
		if fallback < 0 {
			fallback = i
		}
	}
	return fallback
}

func (s *replayStrategy) Next(enabled *Enabled, step int) int {
	for s.cursor < len(s.decisions) {
		d := s.decisions[s.cursor]
		s.cursor++
		if i := match(enabled, d); i >= 0 {
			return i
		}
	}
	return StopRun
}

// Recorder wraps a strategy and records the event chosen at every step,
// producing the decision sequence NewReplay re-executes. The wrapper is
// transparent: it forwards Begin/Next/AtCrashPoint, so a recorded run is
// bit-identical to an unrecorded one.
type Recorder struct {
	inner     Strategy
	decisions []Event
}

// NewRecorder wraps inner.
func NewRecorder(inner Strategy) *Recorder { return &Recorder{inner: inner} }

// Name implements Strategy.
func (r *Recorder) Name() string { return r.inner.Name() }

// Begin implements Strategy, clearing the recorded sequence.
func (r *Recorder) Begin(rt *Runtime, opts RunOptions) {
	r.decisions = r.decisions[:0]
	r.inner.Begin(rt, opts)
}

// Next implements Strategy.
func (r *Recorder) Next(enabled *Enabled, step int) int {
	i := r.inner.Next(enabled, step)
	if i >= 0 && i < enabled.Len() {
		r.decisions = append(r.decisions, enabled.At(i))
	}
	return i
}

// AtCrashPoint implements CrashPointer by delegation; an ungated inner
// strategy keeps the default apply-anywhere timing.
func (r *Recorder) AtCrashPoint() bool {
	if cp, ok := r.inner.(CrashPointer); ok {
		return cp.AtCrashPoint()
	}
	return true
}

// Decisions returns the recorded sequence. The slice aliases the
// recorder's buffer; copy it before the next Begin.
func (r *Recorder) Decisions() []Event { return r.decisions }

// StrategyNames lists the selectable strategy names for CLI help.
func StrategyNames() []string { return []string{"fair", "random", "pct"} }

// NewStrategy resolves a strategy by name ("fair", "random", "pct");
// pctDepth parameterizes "pct" (<= 0 selects DefaultPCTDepth).
func NewStrategy(name string, pctDepth int) (Strategy, error) {
	switch name {
	case "fair":
		return NewFair(), nil
	case "random":
		return NewRandom(), nil
	case "pct":
		return NewPCT(pctDepth), nil
	}
	return nil, fmt.Errorf("sched: unknown strategy %q (have %v)", name, StrategyNames())
}

// crashSchedule is the run loop's normalized view of RunOptions.CrashAt:
// injections sorted by (ordinal, process), applied in that deterministic
// order when due. (The historical RunFair iterated the map per slot, so
// two injections becoming due at the same slot fired in random map
// order; the sort fixes that without moving any single injection.)
type crashSchedule struct {
	points []crashPoint
	next   int
}

type crashPoint struct {
	at int
	p  model.ProcID
}

func newCrashSchedule(crashAt map[int]model.ProcID) crashSchedule {
	if len(crashAt) == 0 {
		return crashSchedule{}
	}
	pts := make([]crashPoint, 0, len(crashAt))
	for at, p := range crashAt {
		pts = append(pts, crashPoint{at: at, p: p})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].at != pts[j].at {
			return pts[i].at < pts[j].at
		}
		return pts[i].p < pts[j].p
	})
	return crashSchedule{points: pts}
}

// pending reports whether any injection is still unapplied.
func (c *crashSchedule) pending() bool { return c.next < len(c.points) }

// apply crashes every process whose injection ordinal has been reached.
// Crashing an already-crashed process is ignored.
func (c *crashSchedule) apply(r *Runtime, count int) error {
	for c.next < len(c.points) && c.points[c.next].at <= count {
		p := c.points[c.next].p
		c.next++
		if r.Crashed(p) {
			continue
		}
		if err := r.Crash(p); err != nil {
			return err
		}
	}
	return nil
}
