// Package conformance differentially checks the repository's two runtimes
// against each other. DESIGN §4 claims "two runtimes, one automaton model":
// an algorithm verified on the deterministic step-driven runtime
// (internal/sched) runs unchanged on the concurrent goroutine runtime
// (internal/net). This package turns that claim into a tested invariant:
// it runs the same broadcast automaton family under the same workload
// script on both runtimes, projects both recorded traces to per-process
// broadcast-event sequences, and asserts
//
//   - identical specification verdicts (the candidate's own spec admits
//     both traces, or rejects both for the same property) — with one
//     sanctioned asymmetry: for candidates marked ScheduleSensitive (the
//     paper's doomed attempts, e.g. kbo) a concurrent-side violation
//     under a deterministic-side pass is a found counterexample schedule,
//     the expected refutation, not a divergence; and
//   - identical per-process delivery sequences, on fault-free runs of
//     candidates whose delivery order is deterministic (single
//     broadcaster, FIFO-or-stronger ordering).
//
// Message identities are runtime-specific, so cross-runtime comparison
// uses the identity-erased projections of internal/trace (events keyed by
// origin and content; workload payloads are unique per message).
//
// A net.FaultPlan may be applied to the concurrent side only, in which
// case the harness shows which specification clauses survive the model
// violation: safety must still hold (drops and duplicates never excuse a
// mis-ordered or duplicated delivery), while liveness is vacuous on the
// now-incomplete trace.
package conformance

import (
	"context"
	"fmt"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
	"nobroadcast/internal/workload"
)

// Config parameterizes one differential run.
type Config struct {
	// Candidate is the broadcast abstraction under test. Required.
	Candidate broadcast.Candidate
	// N is the number of processes; K the workload's agreement degree.
	N, K int
	// Requests is the workload script: the broadcast requests submitted,
	// in order, to both runtimes. When empty it is generated from
	// Workload.
	Requests []sched.BroadcastReq
	// Workload generates Requests when none are given (its N is forced to
	// Config.N).
	Workload workload.Config
	// Seed feeds the concurrent runtime's delay generator and fault plan.
	Seed uint64
	// MaxDelay is the concurrent runtime's transit-delay bound (default
	// 100µs; enough to exercise reordering without slowing the run).
	MaxDelay time.Duration
	// Faults, if set, is applied to the concurrent runtime only.
	Faults *net.FaultPlan
	// WaitTimeout bounds the concurrent side's convergence wait (default
	// 10s).
	WaitTimeout time.Duration
}

// Side is one runtime's recorded half of a differential run.
type Side struct {
	// Trace is the recorded execution.
	Trace *trace.Trace
	// Verdict is the candidate specification's judgment of Trace (nil =
	// admissible).
	Verdict *spec.Violation
	// Deliveries is the identity-erased per-process delivery sequence.
	Deliveries map[model.ProcID][]trace.DeliveryEvent
}

// Comparison is the verdict comparison of a deterministic run against a
// concurrent one, shared by Run and RunSockets.
type Comparison struct {
	// VerdictsAgree reports that both sides are admissible, or both are
	// rejected for the same property.
	VerdictsAgree bool
	// CounterexampleFound reports the one sanctioned verdict asymmetry:
	// the deterministic fair schedule passed while the concurrent side
	// violated the spec, on a candidate marked ScheduleSensitive (a
	// doomed attempt). The concurrent side found a refuting schedule —
	// the paper's expected outcome — so Check does not treat it as a
	// divergence.
	CounterexampleFound bool
	// DeliveriesAgree reports that every process delivered the identical
	// sequence of (origin, content) pairs on both sides.
	DeliveriesAgree bool
	// DeliverySetsAgree reports the weaker set-equality: every process
	// delivered the same multiset of messages on both sides, in some
	// order.
	DeliverySetsAgree bool
	// DeterministicOrder reports whether the strict sequence check
	// applies: fault-free, single broadcaster, and a candidate with
	// deterministic delivery order.
	DeterministicOrder bool
}

// Result is the outcome of one differential run.
type Result struct {
	Sched, Net Side
	Comparison
	// NetLive is the verdict the candidate spec's incremental checker
	// latched while the concurrent run was still in flight (the same
	// spec.Monitor the recorder feeds under its mutex), with liveness
	// clauses evaluated against the run's actual convergence status.
	NetLive *spec.Violation
	// LiveAgrees reports that the live verdict and the post-hoc batch
	// verdict of the concurrent trace agree on admissibility. Only
	// nil-ness is compared: a composite spec's batch check blames the
	// first violated member in declaration order while the live monitor
	// blames the first in time order, so Property may legitimately
	// differ; admissibility never does.
	LiveAgrees bool
	// NetComplete reports that the concurrent side converged: every
	// broadcast returned and every process delivered the full script.
	NetComplete bool
	// NetStats is the concurrent network's final counter snapshot
	// (fault-injection experiments read the net.faults.* counts here).
	NetStats net.StatsSnapshot
}

// baseline applies the defaults, then executes the script on the
// deterministic runtime under the fair scheduler and returns its trace:
// the side every concurrent run is compared against.
func (cfg *Config) baseline() (*trace.Trace, error) {
	if cfg.Candidate.NewAutomaton == nil {
		return nil, fmt.Errorf("conformance: Candidate is required")
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("conformance: N must be positive, got %d", cfg.N)
	}
	if cfg.K < 1 {
		cfg.K = 1
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 100 * time.Microsecond
	}
	if cfg.WaitTimeout == 0 {
		cfg.WaitTimeout = 10 * time.Second
	}
	if len(cfg.Requests) == 0 {
		w := cfg.Workload
		w.N = cfg.N
		if w.Messages == 0 {
			w.Messages = 3 * cfg.N
		}
		reqs, err := workload.Generate(w)
		if err != nil {
			return nil, err
		}
		cfg.Requests = reqs
	}
	rt, err := sched.New(sched.Config{
		N:            cfg.N,
		NewAutomaton: cfg.Candidate.NewAutomaton,
		Oracle:       cfg.Candidate.OracleFor(cfg.K),
	})
	if err != nil {
		return nil, err
	}
	tr, err := rt.RunFair(sched.RunOptions{Broadcasts: cfg.Requests})
	if err != nil {
		return nil, err
	}
	if !tr.Complete {
		return nil, fmt.Errorf("conformance: deterministic run did not quiesce (%d steps)", tr.X.Len())
	}
	return tr, nil
}

// singleBroadcaster reports whether every request names the same process.
func singleBroadcaster(reqs []sched.BroadcastReq) bool {
	for _, r := range reqs[1:] {
		if r.Proc != reqs[0].Proc {
			return false
		}
	}
	return len(reqs) > 0
}

func sameVerdict(a, b *spec.Violation) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Property == b.Property
}

func sameSequences(a, b map[model.ProcID][]trace.DeliveryEvent, n int) bool {
	for p := 1; p <= n; p++ {
		da, db := a[model.ProcID(p)], b[model.ProcID(p)]
		if len(da) != len(db) {
			return false
		}
		for i := range da {
			if da[i] != db[i] {
				return false
			}
		}
	}
	return true
}

func sameSets(a, b map[model.ProcID][]trace.DeliveryEvent, n int) bool {
	for p := 1; p <= n; p++ {
		da, db := a[model.ProcID(p)], b[model.ProcID(p)]
		if len(da) != len(db) {
			return false
		}
		count := make(map[trace.DeliveryEvent]int, len(da))
		for _, d := range da {
			count[d]++
		}
		for _, d := range db {
			count[d]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
	}
	return true
}

// compare judges the deterministic trace and a concurrent side's trace
// against the candidate's spec sp and compares their projections.
func compare(cfg *Config, sp spec.Spec, schedTr, tr *trace.Trace) (base, other Side, c Comparison) {
	base = Side{Trace: schedTr, Verdict: sp.Check(schedTr), Deliveries: trace.ProjectDeliveries(schedTr)}
	other = Side{Trace: tr, Verdict: sp.Check(tr), Deliveries: trace.ProjectDeliveries(tr)}
	return base, other, Comparison{
		VerdictsAgree:       sameVerdict(base.Verdict, other.Verdict),
		CounterexampleFound: cfg.Candidate.ScheduleSensitive && base.Verdict == nil && other.Verdict != nil,
		DeliveriesAgree:     sameSequences(base.Deliveries, other.Deliveries, cfg.N),
		DeliverySetsAgree:   sameSets(base.Deliveries, other.Deliveries, cfg.N),
		DeterministicOrder: cfg.Faults == nil && cfg.Candidate.DeterministicOrder &&
			singleBroadcaster(cfg.Requests),
	}
}

// divergence returns a descriptive error on any divergence between the
// deterministic side and the concurrent side called name: disagreeing
// verdicts, a fault-free concurrent run that failed to converge or
// delivered different message sets, or — for deterministic-order cases —
// different delivery sequences.
func (c *Comparison) divergence(cfg *Config, name string, base, other Side, complete bool) error {
	cand := cfg.Candidate.Name
	if !c.VerdictsAgree && !c.CounterexampleFound {
		return fmt.Errorf("conformance: %s verdicts diverge: sched=%v %s=%v", cand, base.Verdict, name, other.Verdict)
	}
	if cfg.Faults == nil {
		if !complete {
			return fmt.Errorf("conformance: %s fault-free %s run did not converge", cand, name)
		}
		if !c.DeliverySetsAgree {
			return fmt.Errorf("conformance: %s per-process delivery sets diverge across runtimes", cand)
		}
	}
	if c.DeterministicOrder && !c.DeliveriesAgree {
		return fmt.Errorf("conformance: %s per-process delivery sequences diverge on a deterministic-order run", cand)
	}
	return nil
}

// drive runs the script on a started concurrent side.
func drive(cfg *Config, c net.Cluster, name string) (bool, error) {
	complete, err := net.Drive(context.TODO(), c, cfg.N, cfg.Requests, cfg.WaitTimeout)
	if err != nil {
		return false, fmt.Errorf("conformance: %s side: %w", name, err)
	}
	return complete, nil
}

// Run executes the script on both runtimes and compares the projections.
// It returns an error only when a run itself fails; disagreements are
// reported in the Result (use Check for a pass/fail answer). The
// candidate's own spec runs incrementally inside the concurrent
// runtime's recorder while the run is in flight; its latched verdict is
// the differential counterpart to the post-hoc batch check.
func Run(cfg Config) (*Result, error) {
	schedTr, err := cfg.baseline()
	if err != nil {
		return nil, err
	}
	sp := cfg.Candidate.Spec(cfg.K)
	nw, err := net.New(net.Config{
		N:            cfg.N,
		NewAutomaton: cfg.Candidate.NewAutomaton,
		K:            cfg.Candidate.OracleDegree(cfg.K),
		MaxDelay:     cfg.MaxDelay,
		Seed:         cfg.Seed,
		Faults:       cfg.Faults,
		RecordTrace:  true,
		LiveSpecs:    []spec.Spec{sp},
	})
	if err != nil {
		return nil, err
	}
	defer nw.Stop()
	complete, err := drive(&cfg, nw, "net")
	if err != nil {
		return nil, err
	}
	nw.Stop()
	tr := nw.Trace()
	tr.Complete = complete
	res := &Result{NetComplete: complete, NetStats: nw.StatsSnapshot()}
	for _, sv := range nw.FinishLive(complete) {
		if sv.Spec == sp.Name() {
			res.NetLive = sv.Violation
		}
	}
	res.Sched, res.Net, res.Comparison = compare(&cfg, sp, schedTr, tr)
	res.LiveAgrees = (res.NetLive == nil) == (res.Net.Verdict == nil)
	return res, nil
}

// Check runs the differential comparison and returns a descriptive error
// on any divergence (see Comparison), or when the live and batch verdicts
// of the concurrent trace disagree.
func Check(cfg Config) (*Result, error) {
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if !res.LiveAgrees {
		return res, fmt.Errorf("conformance: %s live and batch verdicts diverge on the concurrent trace: live=%v batch=%v",
			cfg.Candidate.Name, res.NetLive, res.Net.Verdict)
	}
	return res, res.divergence(&cfg, "net", res.Sched, res.Net, res.NetComplete)
}
