// Package spec provides machine-checkable specifications: predicates over
// recorded executions. It covers the three property families of the paper —
// the send/receive channel properties (Section 2), the broadcast
// abstraction properties (Section 3.1) and ordering predicates (Section
// 3.2), and the k-set-agreement properties (Section 4.1) — together with
// testers for the two symmetry properties the paper introduces:
// compositionality (Definition 2) and content-neutrality (Definition 3).
//
// # Safety versus liveness
//
// Safety specifications are prefix-monotone violation detectors: once a
// finite trace violates them, every extension does too, so checking them on
// an execution prefix is sound. Liveness specifications (the termination
// properties) are only evaluated on traces marked Complete, i.e. runs that
// terminated with every correct process quiescent and no message in flight;
// on incomplete traces they vacuously pass.
package spec

import (
	"fmt"

	"nobroadcast/internal/trace"
)

// Violation describes why a trace is not admitted by a specification.
// A nil *Violation means the trace is admissible.
type Violation struct {
	// Spec is the name of the violated specification.
	Spec string
	// Property is the specific property within the spec, using the
	// paper's names (e.g. "BC-Validity", "k-SA-Agreement").
	Property string
	// Detail is a human-readable account of the counterexample.
	Detail string
	// StepIdx is the index of the violating step when identifiable, else -1.
	StepIdx int
}

// String renders the violation for logs and test failures.
func (v *Violation) String() string {
	if v == nil {
		return "admissible"
	}
	where := ""
	if v.StepIdx >= 0 {
		where = fmt.Sprintf(" at step %d", v.StepIdx)
	}
	return fmt.Sprintf("%s: %s violated%s: %s", v.Spec, v.Property, where, v.Detail)
}

// Spec is a specification: a predicate on executions, given as a name and
// the ordered list of leaf properties it conjoins. Section 3.1 builds every
// broadcast abstraction this way: the Basic-Broadcast leaf (the four
// universal properties) plus one ordering leaf.
type Spec struct {
	name   string
	leaves []leaf
}

// Name returns the specification's name.
func (s Spec) Name() string { return s.name }

// Check returns nil if the trace is admitted, else a description of the
// violation. Every leaf is checked over the whole trace and the first
// violated leaf in declaration order is blamed; /v1/run, conformance,
// cmd/checker and the adversary's lemma checks report this rule. The
// online checker of NewCheckerFor blames the leaf violated earliest
// instead: the two rules can blame different leaves of a composite, never
// differ on admissibility.
func (s Spec) Check(t *trace.Trace) *Violation {
	m := NewMonitor(t.X.N, s)
	for i := range t.X.Steps {
		m.FeedStep(&t.X.Steps[i])
	}
	m.Finish(t.Complete)
	for _, j := range m.specs[0].leaves {
		if v := m.leaves[j].v; v != nil {
			return v
		}
	}
	return nil
}

// leafSpec is the one-leaf spec named after its leaf.
func leafSpec(key string, mk func(n int) leafChecker) Spec {
	return Spec{name: key, leaves: []leaf{{key: key, mk: mk}}}
}

// All combines specifications; the composite admits a trace iff every
// component does. Its leaves are the components' leaves, in order.
func All(name string, specs ...Spec) Spec {
	var leaves []leaf
	for _, s := range specs {
		leaves = append(leaves, s.leaves...)
	}
	return Spec{name: name, leaves: leaves}
}

// WellFormed checks the machine-checkable parts of Definition 1
// (well-formed executions): only processes p_1..p_n take steps, no process
// takes a step after crashing, and broadcast invocations and responses
// alternate per process (an operation is only invoked after the previous
// invocation returned). The third condition of Definition 1 — conformance
// of the steps to the algorithm — is enforced by construction by the
// deterministic runtime and is not re-derivable from a trace alone.
func WellFormed() Spec {
	return leafSpec("Well-Formed", func(n int) leafChecker { return newWellFormedChecker(n) })
}
