package broadcast

import (
	"fmt"
	"sort"

	"nobroadcast/internal/model"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
)

// Candidate bundles everything the proof pipeline and the cmd tools need
// to know about one broadcast abstraction: its specification (the
// predicate defining admissible executions), its implementation in
// CAMP_n[k-SA], and how it uses the k-SA oracle.
type Candidate struct {
	// Name identifies the abstraction ("send-to-all", "kbo", ...).
	Name string
	// Describe is a one-line human description.
	Describe string
	// Spec builds the abstraction's specification; k parameterizes the
	// ordering degree where applicable (ignored otherwise).
	Spec func(k int) spec.Spec
	// NewAutomaton builds the implementation 𝓑 for one process.
	NewAutomaton func(id model.ProcID) sched.Automaton
	// OracleK reports the agreement degree of the k-SA oracle the
	// implementation needs: 0 means "no oracle used", -1 means "the
	// workload's k", and 1 means consensus.
	OracleK int
	// SolvesKSA reports whether the solver app over this abstraction
	// solves k-SA (the B → k-SA direction of the claimed equivalence).
	SolvesKSA bool
	// DeterministicOrder reports that, on a fault-free run with a single
	// broadcaster, every process must deliver in exactly the broadcast
	// order — regardless of scheduling or runtime. The conformance
	// harness (internal/conformance) uses it to assert identical
	// per-process delivery sequences across the two runtimes.
	DeterministicOrder bool
	// ScheduleSensitive reports that the implementation's spec compliance
	// depends on the schedule: the deterministic fair scheduler admits its
	// runs, while adversarial or genuinely concurrent schedules can
	// violate the spec. Set for the doomed attempts the paper refutes
	// (kbo). The conformance harness accepts a concurrent-side violation
	// paired with a deterministic-side pass for such candidates — the
	// concurrent runtime found a counterexample schedule, which is the
	// expected outcome, not a runtime divergence.
	ScheduleSensitive bool
	// NewSolver builds the k-SA-solving app 𝓐 matched to this
	// abstraction. Nil means the generic FirstDecider.
	NewSolver func(id model.ProcID) sched.App
}

// SolverFor returns the candidate's k-SA solver app factory.
func (c Candidate) SolverFor() func(id model.ProcID) sched.App {
	if c.NewSolver != nil {
		return c.NewSolver
	}
	return NewFirstDecider
}

// OracleDegree returns the agreement degree of the k-SA oracle the
// candidate's implementation needs for a workload of agreement degree k.
// An implementation that uses no oracle gets a consensus oracle it never
// consults, which satisfies the runtimes.
func (c Candidate) OracleDegree(k int) int {
	switch c.OracleK {
	case 0:
		return 1
	case -1:
		return k
	default:
		return c.OracleK
	}
}

// OracleFor returns the oracle the candidate's implementation needs for a
// workload of agreement degree k.
func (c Candidate) OracleFor(k int) sched.Oracle {
	return sched.NewFreeOracle(c.OracleDegree(k))
}

// candidates is the registry, keyed by name.
var candidates = map[string]Candidate{
	"send-to-all": {
		Name:         "send-to-all",
		Describe:     "basic broadcast: send to all, deliver on receipt (Section 3.1)",
		Spec:         func(int) spec.Spec { return spec.SendToAll() },
		NewAutomaton: NewSendToAll,
		OracleK:      0,
	},
	"reliable": {
		Name:         "reliable",
		Describe:     "reliable broadcast by message echo [13]",
		Spec:         func(int) spec.Spec { return spec.BasicBroadcast() },
		NewAutomaton: NewReliable,
		OracleK:      0,
	},
	"fifo": {
		Name:               "fifo",
		Describe:           "FIFO broadcast: per-sender delivery order [3,24]",
		Spec:               func(int) spec.Spec { return spec.FIFOBroadcast() },
		NewAutomaton:       NewFIFO,
		OracleK:            0,
		DeterministicOrder: true,
	},
	"causal": {
		Name:               "causal",
		Describe:           "causal broadcast: vector-clock gated delivery [24]",
		Spec:               func(int) spec.Spec { return spec.CausalBroadcast() },
		NewAutomaton:       NewCausal,
		OracleK:            0,
		DeterministicOrder: true,
	},
	"mutual": {
		Name:         "mutual",
		Describe:     "mutual broadcast: register-equivalent quorum-echo pattern [9] (needs a correct majority)",
		Spec:         func(int) spec.Spec { return spec.MutualBroadcast() },
		NewAutomaton: NewMutual,
		OracleK:      0,
	},
	"total-order": {
		Name:         "total-order",
		Describe:     "total order broadcast on consensus rounds [7,21]",
		Spec:         func(int) spec.Spec { return spec.TotalOrderBroadcast() },
		NewAutomaton: NewTotalOrder,
		OracleK:      1,
		SolvesKSA:    true, // with k = 1: consensus
		// Not DeterministicOrder: plain total order fixes one agreed
		// delivery sequence per run, not the broadcast order — consensus
		// rounds may elect single-sender messages out of send order when
		// the transport reorders their arrival.
	},
	"first-k": {
		Name:         "first-k",
		Describe:     "one-shot strawman: a k-SA object elects the first deliveries (Section 1.4)",
		Spec:         spec.FirstKBroadcast,
		NewAutomaton: NewFirstK,
		OracleK:      -1,
		SolvesKSA:    true,
	},
	"k-stepped": {
		Name:         "k-stepped",
		Describe:     "iterated strawman: per-step k-SA elections (Section 3.2)",
		Spec:         spec.KSteppedBroadcast,
		NewAutomaton: NewKStepped,
		OracleK:      -1,
		SolvesKSA:    true,
	},
	"sa-tagged": {
		Name:         "sa-tagged",
		Describe:     "non-content-neutral strawman: ordering applies only to SA(ksa,v) messages (Section 3.3)",
		Spec:         spec.SATaggedBroadcast,
		NewAutomaton: NewSATagged,
		OracleK:      -1,
		SolvesKSA:    true,
		NewSolver:    NewSATagDecider,
	},
	"kbo": {
		Name:              "kbo",
		Describe:          "k-Bounded Order broadcast attempt on k-SA rounds [15] (doomed in message passing)",
		Spec:              spec.KBOBroadcast,
		NewAutomaton:      NewKBOAttempt,
		OracleK:           -1,
		SolvesKSA:         true,
		ScheduleSensitive: true,
	},
}

// Lookup returns the registered candidate with the given name.
func Lookup(name string) (Candidate, error) {
	c, ok := candidates[name]
	if !ok {
		return Candidate{}, fmt.Errorf("broadcast: unknown abstraction %q (have %v)", name, Names())
	}
	return c, nil
}

// Names lists the registered abstraction names, sorted.
func Names() []string {
	out := make([]string, 0, len(candidates))
	for name := range candidates {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AllCandidates returns the registered candidates sorted by name.
func AllCandidates() []Candidate {
	names := Names()
	out := make([]Candidate, len(names))
	for i, n := range names {
		out[i] = candidates[n]
	}
	return out
}
