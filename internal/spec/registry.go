package spec

import (
	"fmt"
	"sort"
)

// The registry names every specification this package defines, for the
// CLIs (cmd/checker -spec) and for table-driven tests that want to sweep
// the full spec inventory (prefix monotonicity, online-vs-reference
// differentials) without maintaining a parallel list.

// Entry is one named specification constructor.
type Entry struct {
	// Key is the CLI name.
	Key string
	// Parameterized reports that New uses its k argument (ignored
	// otherwise).
	Parameterized bool
	// New constructs the spec.
	New func(k int) Spec
	// Liveness reports that the spec includes clauses evaluated only on
	// complete traces (so it is not a pure prefix-monotone safety spec).
	Liveness bool
	// ExactStep reports that the spec has one leaf and that both its
	// online checker and Check latch at exactly the step index its
	// reference predicate reports; other references report -1 or
	// scan-order witnesses. Used by the differential tests.
	ExactStep bool
}

// Registry returns every named specification, sorted by key.
func Registry() []Entry {
	entries := []Entry{
		{Key: "well-formed", New: func(int) Spec { return WellFormed() }, ExactStep: true},
		{Key: "channels", New: func(int) Spec { return Channels() }, Liveness: true, ExactStep: true},
		{Key: "basic", New: func(int) Spec { return SendToAll() }, Liveness: true, ExactStep: true},
		{Key: "send-to-all", New: func(int) Spec { return SendToAll() }, Liveness: true, ExactStep: true},
		{Key: "ksa", Parameterized: true, New: func(k int) Spec { return KSA(k) }, Liveness: true, ExactStep: true},

		// Pure ordering predicates (leaf safety specs).
		{Key: "fifo-order", New: func(int) Spec { return FIFOOrder() }, ExactStep: true},
		{Key: "causal-order", New: func(int) Spec { return CausalOrder() }, ExactStep: true},
		{Key: "total-order-only", New: func(int) Spec { return TotalOrder() }},
		{Key: "kbo-order", Parameterized: true, New: func(k int) Spec { return KBOOrder(k) }},
		{Key: "first-k-order", Parameterized: true, New: func(k int) Spec { return FirstKOrder(k) }},
		{Key: "k-stepped-order", Parameterized: true, New: func(k int) Spec { return KSteppedOrder(k) }},
		{Key: "sa-tagged-order", Parameterized: true, New: func(k int) Spec { return SATaggedOrder(k) }},
		{Key: "mutual-order", New: func(int) Spec { return MutualOrder() }},
		{Key: "scd-order", New: func(int) Spec { return SCDOrder() }},
		{Key: "kscd-order", Parameterized: true, New: func(k int) Spec { return KSCDOrder(k) }},

		// Composites: ordering plus the universal broadcast properties.
		{Key: "fifo", New: func(int) Spec { return FIFOBroadcast() }, Liveness: true},
		{Key: "causal", New: func(int) Spec { return CausalBroadcast() }, Liveness: true},
		{Key: "total-order", New: func(int) Spec { return TotalOrderBroadcast() }, Liveness: true},
		{Key: "kbo", Parameterized: true, New: func(k int) Spec { return KBOBroadcast(k) }, Liveness: true},
		{Key: "k-stepped", Parameterized: true, New: func(k int) Spec { return KSteppedBroadcast(k) }, Liveness: true},
		{Key: "first-k", Parameterized: true, New: func(k int) Spec { return FirstKBroadcast(k) }, Liveness: true},
		{Key: "sa-tagged", Parameterized: true, New: func(k int) Spec { return SATaggedBroadcast(k) }, Liveness: true},
		{Key: "mutual", New: func(int) Spec { return MutualBroadcast() }, Liveness: true},
		{Key: "uniform-reliable", New: func(int) Spec { return UniformReliable() }, Liveness: true},
		{Key: "scd", New: func(int) Spec { return SCDBroadcast() }, Liveness: true},
		{Key: "kscd", Parameterized: true, New: func(k int) Spec { return KSCDBroadcast(k) }, Liveness: true},
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries
}

// ByName resolves a registry key to a constructed spec; k is used by
// parameterized entries.
func ByName(name string, k int) (Spec, error) {
	for _, e := range Registry() {
		if e.Key == name {
			if e.Parameterized && k < 1 {
				return Spec{}, fmt.Errorf("spec %q requires k >= 1, got %d", name, k)
			}
			return e.New(k), nil
		}
	}
	return Spec{}, fmt.Errorf("unknown spec %q", name)
}

// Names returns every registry key, sorted.
func Names() []string {
	es := Registry()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Key
	}
	return out
}
