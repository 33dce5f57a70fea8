// Package adversary implements the paper's adversarial scheduler
// (Algorithm 1): given any deterministic algorithm 𝓑 implementing a
// broadcast abstraction B in the model CAMP_{k+1}[k-SA], it constructs the
// execution α_{k,N,B,𝓑} of Definition 4, in which every process B-delivers
// N of its own messages before any message of any other process.
//
// The package also provides:
//
//   - the β projection (broadcast events of α) and the γ_i per-process
//     restrictions of Definition 4;
//   - the N-solo checker of Definition 5;
//   - Verify, a mechanical re-proof of Lemmas 1-8 on the produced trace
//     (the execution is admitted by CAMP_{k+1}[k-SA]) and of Lemma 10's
//     conclusion (β is N-solo).
//
// The scheduler is transcribed line by line; comments reference the line
// numbers of Algorithm 1 in the paper.
package adversary

import (
	"fmt"

	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// Synch is the content of every message broadcast by the adversary, as in
// the paper (processes repeatedly sync-broadcast SYNCH).
const Synch model.Payload = "SYNCH"

// Options configures a run of the adversarial scheduler.
type Options struct {
	// K is the agreement degree; the system has K+1 processes. K > 1, as
	// in Section 4.2.
	K int
	// N is the number of solo self-deliveries to force per process. N > 0.
	N int
	// NewAutomaton builds the candidate implementation 𝓑 for one process.
	NewAutomaton func(id model.ProcID) sched.Automaton
	// MaxStepsPerPhase bounds each phase of the while loop (line 5). If a
	// phase exceeds it, 𝓑 makes no solo progress — a witness for the
	// Lemma 7 contradiction — and Run returns ErrNotSoloProgressing.
	// Zero selects the default (100000).
	MaxStepsPerPhase int
	// Obs receives Algorithm 1 line-level progress: per-phase spans and
	// step histograms, solo-delivery watermarks (local_del), reset and
	// adoption counters, and structured phase/reset/adoption events. It
	// is also threaded into the underlying sched runtime. Nil disables
	// all recording.
	Obs *obs.Registry
}

func (o Options) maxSteps() int {
	if o.MaxStepsPerPhase <= 0 {
		return 100000
	}
	return o.MaxStepsPerPhase
}

// ErrNotSoloProgressing reports that the candidate implementation stalled:
// some process, running solo, could not B-deliver N of its own messages.
// By Lemma 7 this cannot happen to a correct implementation — the stall is
// itself a correctness counterexample (the solo execution γ_i would then
// be an admissible execution in which BC-Global-CS-Termination or
// BC-Local-Termination fails).
type ErrNotSoloProgressing struct {
	Proc  model.ProcID
	Phase int
	Steps int
}

func (e *ErrNotSoloProgressing) Error() string {
	return fmt.Sprintf("adversary: %v stalled in phase %d after %d steps: the implementation makes no solo progress (Lemma 7 witness)", e.Proc, e.Phase, e.Steps)
}

// Result is the outcome of the adversarial construction.
type Result struct {
	// K and N echo the options.
	K, N int
	// Alpha is the execution α_{k,N,B,𝓑} (an execution prefix:
	// Complete=false, liveness is not claimed).
	Alpha *trace.Trace
	// Beta is the broadcast projection β of Definition 4.
	Beta *trace.Trace
	// Counted maps each process to its N counted messages — the messages
	// whose self-delivery advanced local_del from 0 to N without a reset
	// (the grey boxes of Figure 1). These are the witness messages of the
	// N-solo property.
	Counted map[model.ProcID][]model.MsgID
	// Resets counts executions of line 25.
	Resets int
	// Adoptions counts executions of the line 18 branch: propositions on
	// which p_{k+1} was compelled to adopt p_k's value to preserve
	// k-SA-Agreement.
	Adoptions int
	// FlushStart is the α step index where the line 26 flush begins.
	FlushStart int
	// ResetBoundary is the α step index reached when the last reset
	// occurred (0 if none): p_k's steps before it belong to every γ_i.
	ResetBoundary int
	// Broadcasts counts sync-broadcast invocations per process.
	Broadcasts map[model.ProcID]int
	// Live holds the incremental checkers that observed α as it was
	// built: the Lemma 1-6 spec checks (k-SA, SR channels,
	// well-formedness) ran online during Algorithm 1, and Verify reads
	// their latched verdicts instead of rescanning α.
	Live *spec.Monitor
	// oracle retains the decision table for the continuation runtime.
	oracle *tableOracle
	// runtime retains the driven runtime so callers can extend the run
	// (Extend) after the construction.
	runtime *sched.Runtime
}

// tableOracle implements the decision table of Algorithm 1, lines 16-20:
// processes decide their own value, except p_{k+1}, which adopts p_k's
// value whenever p_1..p_k have all decided on the object (line 17-18).
// After Finish it degrades to a free k-SA oracle seeded with the table, so
// the run can be extended while preserving k-SA-Agreement.
type tableOracle struct {
	k       int
	decided map[model.KSAID]map[model.ProcID]model.Value
	// lastProposed records the last proposal handled, so the scheduler
	// can evaluate the line 21 condition right after a propose step.
	lastObj  model.KSAID
	finished bool
	// adoptions counts executions of the line 18 branch (p_{k+1} adopting
	// p_k's value).
	adoptions int
	// reg observes proposals and adoptions (nil-safe).
	reg       *obs.Registry
	proposals *obs.Counter
	adopted   *obs.Counter
}

var _ sched.Oracle = (*tableOracle)(nil)

func newTableOracle(k int, reg *obs.Registry) *tableOracle {
	return &tableOracle{
		k:         k,
		decided:   make(map[model.KSAID]map[model.ProcID]model.Value),
		reg:       reg,
		proposals: reg.Counter("adversary.oracle.proposals"),
		adopted:   reg.Counter("adversary.adoptions"),
	}
}

// allLowDecided reports ∀j ≤ k: decided[obj][j] ≠ ⊥ (the condition of
// lines 17 and 21).
func (o *tableOracle) allLowDecided(obj model.KSAID) bool {
	m := o.decided[obj]
	for j := 1; j <= o.k; j++ {
		if _, ok := m[model.ProcID(j)]; !ok {
			return false
		}
	}
	return true
}

// distinct returns the distinct values decided on obj.
func (o *tableOracle) distinct(obj model.KSAID) []model.Value {
	seen := make(map[model.Value]bool)
	var out []model.Value
	for j := 1; j <= o.k+1; j++ {
		if v, ok := o.decided[obj][model.ProcID(j)]; ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Propose implements sched.Oracle.
func (o *tableOracle) Propose(obj model.KSAID, proc model.ProcID, v model.Value) model.Value {
	m := o.decided[obj]
	if m == nil {
		m = make(map[model.ProcID]model.Value)
		o.decided[obj] = m
	}
	if o.finished {
		// Free mode for run extensions: keep k-SA-Agreement with respect
		// to the values already in the table.
		if w, ok := m[proc]; ok {
			return w // one-shot replay guard; should not happen
		}
		dv := o.distinct(obj)
		for _, d := range dv {
			if d == v {
				m[proc] = v
				return v
			}
		}
		if len(dv) < o.k {
			m[proc] = v
			return v
		}
		m[proc] = dv[len(dv)-1]
		return m[proc]
	}
	o.lastObj = obj
	o.proposals.Inc()
	// Lines 17-19.
	if int(proc) == o.k+1 && o.allLowDecided(obj) {
		m[proc] = m[model.ProcID(o.k)]
		o.adoptions++
		o.adopted.Inc()
		o.reg.Emit("adversary.adoption",
			obs.Int("obj", int64(obj)), obs.Int("proc", int64(proc)),
			obs.Str("proposed", string(v)), obs.Str("adopted", string(m[proc])))
	} else {
		m[proc] = v
	}
	return m[proc]
}

// Finish switches the oracle to free mode for run extensions.
func (o *tableOracle) Finish() { o.finished = true }

// Run executes adversarial_scheduler(k, N, B, 𝓑) — Algorithm 1.
func Run(opts Options) (*Result, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("adversary: K must be at least 2 (the construction poses k > 1), got %d", opts.K)
	}
	if opts.N < 1 {
		return nil, fmt.Errorf("adversary: N must be positive, got %d", opts.N)
	}
	if opts.NewAutomaton == nil {
		return nil, fmt.Errorf("adversary: NewAutomaton is required")
	}
	k, n := opts.K, opts.N
	reg := opts.Obs
	oracle := newTableOracle(k, reg)
	rt, err := sched.New(sched.Config{
		N:            k + 1,
		NewAutomaton: opts.NewAutomaton,
		Oracle:       oracle,
		Obs:          reg,
		// The Lemma 1-6 checks run incrementally while Algorithm 1
		// drives the run; Verify consumes the latched verdicts.
		LiveSpecs: []spec.Spec{spec.KSA(k), spec.Channels(), spec.WellFormed()},
	})
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}
	met := newAdvMetrics(reg)

	res := &Result{
		K:          k,
		N:          n,
		Counted:    make(map[model.ProcID][]model.MsgID, k+1),
		Broadcasts: make(map[model.ProcID]int, k+1),
		oracle:     oracle,
		runtime:    rt,
	}

	// Line 3: sequential phases, p_1 through p_{k+1}.
	for i := 1; i <= k+1; i++ {
		pi := model.ProcID(i)
		localDel := 0 // line 4
		var counted []model.MsgID
		// step = ⊥ initially; sync tracking of the current
		// sync-broadcast: it has returned from B.broadcast and the
		// message has been B-delivered locally.
		syncOpen := false
		var syncMsg model.MsgID
		returned, deliveredOwn := false, false
		steps := 0

		span := met.phaseEnter(reg, i)

		for localDel < n { // line 5
			steps++
			if steps > opts.maxSteps() {
				return nil, &ErrNotSoloProgressing{Proc: pi, Phase: i, Steps: steps - 1}
			}
			// Lines 6-7: invoke a fresh sync-broadcast when none is in
			// progress or the previous one completed.
			if !syncOpen || (returned && deliveredOwn) {
				msg, err := rt.InvokeBroadcast(pi, Synch)
				if err != nil {
					return nil, fmt.Errorf("adversary: invoking sync-broadcast on %v: %w", pi, err)
				}
				syncMsg, syncOpen, returned, deliveredOwn = msg, true, false, false
				res.Broadcasts[pi]++
				met.broadcast()
				continue
			}
			// Line 8: p_i's next local step in C(α), according to 𝓑.
			step, ok, err := rt.ExecNext(pi)
			if err != nil {
				return nil, fmt.Errorf("adversary: executing %v: %w", pi, err)
			}
			if !ok {
				// The implementation is waiting for events only other
				// processes could produce: no solo progress.
				return nil, &ErrNotSoloProgressing{Proc: pi, Phase: i, Steps: steps - 1}
			}
			switch step.Kind {
			case model.KindSend:
				if step.Peer == pi {
					// Lines 10-11: self-sends are received immediately.
					if _, err := rt.ReceiveInstance(step.Msg); err != nil {
						return nil, fmt.Errorf("adversary: self-receive at %v: %w", pi, err)
					}
					met.selfReceive()
				}
				// Lines 12-13: sends to other processes stay in flight
				// (the runtime's network is the scheduler's `sent` set).
			case model.KindDeliver:
				if step.Peer == pi {
					// Lines 14-15: p_i B-delivers one of its own messages.
					localDel++
					met.watermark(localDel)
					if localDel >= 1 {
						counted = append(counted, step.Msg)
					}
					if step.Msg == syncMsg {
						deliveredOwn = true
					}
				}
			case model.KindBroadcastReturn:
				if step.Msg == syncMsg {
					returned = true
				}
			case model.KindPropose:
				// Lines 16-19 ran inside the oracle when the propose
				// action executed; line 20 appends the decision.
				if _, err := rt.FireDecide(pi); err != nil {
					return nil, fmt.Errorf("adversary: firing decision at %v: %w", pi, err)
				}
				// Lines 21-25.
				if i == k && oracle.allLowDecided(step.Obj) {
					if err := flushKToKPlus1(rt, k); err != nil {
						return nil, err
					}
					localDel = -1
					counted = nil
					res.Resets++
					res.ResetBoundary = rt.StepCount()
					met.reset(reg, i, res.ResetBoundary)
				}
			}
		}
		res.Counted[pi] = counted
		met.phaseExit(reg, span, i, steps, len(counted))
	}

	// Line 26: every message still in flight is received.
	res.FlushStart = rt.StepCount()
	flushSpan := reg.StartSpan("adversary.flush")
	flushed := 0
	for rt.InFlightLen() > 0 {
		if _, err := rt.ReceiveIndex(0); err != nil {
			return nil, fmt.Errorf("adversary: final flush: %w", err)
		}
		flushed++
	}
	met.flushed(flushed)
	flushSpan.End()

	res.Adoptions = oracle.adoptions

	// Line 27: return α (a prefix — liveness is not claimed for it).
	res.Alpha = &trace.Trace{X: rt.Execution(), Complete: false, Name: fmt.Sprintf("alpha(k=%d,N=%d)", k, n)}
	res.Beta = &trace.Trace{X: res.Alpha.X.ProjectBroadcast(), Complete: false, Name: fmt.Sprintf("beta(k=%d,N=%d)", k, n)}
	if mon := rt.LiveMonitor(); mon != nil {
		// α is a prefix, not a complete run; Finish(false) skips the
		// liveness clauses, matching Check on Complete=false.
		mon.Finish(false)
		res.Live = mon
	}
	return res, nil
}

// flushKToKPlus1 implements lines 22-24: p_{k+1} receives every in-flight
// message sent to it by p_k, in send order. One forward pass suffices: a
// reception only queues p_{k+1}'s actions, so no message enters the
// network mid-flush, and receiving the message at index i shifts its
// successors down by one, so the scan stays at i.
func flushKToKPlus1(rt *sched.Runtime, k int) error {
	pk, pk1 := model.ProcID(k), model.ProcID(k+1)
	for i := 0; i < rt.InFlightLen(); {
		if f := rt.InFlightAt(i); f.Proc != pk || f.Peer != pk1 {
			i++
			continue
		}
		if _, err := rt.ReceiveIndex(i); err != nil {
			return fmt.Errorf("adversary: flushing p_k->p_{k+1}: %w", err)
		}
	}
	return nil
}

// Extend continues the run past α under a fair schedule until quiescence
// (or maxEvents), with the oracle in free mode. The returned trace extends
// α: it is used by experiment E10 to complete deliveries and exhibit
// ordering-specification violations that α only sets up.
func (r *Result) Extend(maxEvents int) (*trace.Trace, error) {
	if r.runtime == nil {
		return nil, fmt.Errorf("adversary: result has no retained runtime")
	}
	r.oracle.Finish()
	tr, err := r.runtime.RunFair(sched.RunOptions{MaxEvents: maxEvents})
	if err != nil {
		return nil, fmt.Errorf("adversary: extending run: %w", err)
	}
	tr.Name = fmt.Sprintf("alpha-extended(k=%d,N=%d)", r.K, r.N)
	return tr, nil
}

// Gamma builds the execution γ_{k,N,B,𝓑,i} of Definition 4: the steps of
// p_i strictly before the line 26 flush, together with the steps of p_k
// succeeded by a reset of local_del on line 25.
func (r *Result) Gamma(i model.ProcID) *trace.Trace {
	x := r.Alpha.X
	out := model.NewExecution(x.N)
	pk := model.ProcID(r.K)
	for idx, s := range x.Steps {
		include := (s.Proc == i && idx < r.FlushStart) ||
			(s.Proc == pk && idx < r.ResetBoundary)
		if include {
			out.Append(s)
		}
	}
	return &trace.Trace{X: out, Complete: false, Name: fmt.Sprintf("gamma(k=%d,N=%d,i=%d)", r.K, r.N, int(i))}
}
