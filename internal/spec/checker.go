package spec

import (
	"cmp"
	"fmt"
	"slices"

	"nobroadcast/internal/model"
	"nobroadcast/internal/trace"
)

// This file is the checking layer. A Spec is a name and an ordered list of
// leaf properties, and each leaf has an online checker that consumes one
// step at a time and keeps only summary state (FIFO cursors, vector-clock
// frontiers, conflict sets, decision tables) instead of the whole trace.
// The Monitor alone runs leaves: it builds one checker per distinct leaf
// of the specs it checks, so a leaf that several specs share (the
// Basic-Broadcast leaf of every broadcast abstraction) runs once per step,
// and it derives every spec's verdict from that one leaf table. The
// whole-trace reference predicates the leaves are tested against live in
// this package's tests.

// Checker is an online specification checker. Feed consumes the next step
// of the execution and returns a violation as soon as one exists; Finish
// evaluates the end-of-trace (liveness) clauses, with complete reporting
// whether the run terminated with every correct process quiescent (the
// same meaning as trace.Trace.Complete — liveness is vacuous otherwise).
//
// Checkers latch: once Feed or Finish has returned a violation, every
// later call returns the same violation. This is the online counterpart
// of prefix-monotonicity — a violated prefix stays violated in every
// extension. The StepIdx of a violation returned by Feed refers to the
// position of the offending step in the fed sequence.
//
// A Checker is single-goroutine; callers that feed from several
// goroutines must serialize (the concurrent runtime feeds under its trace
// recorder's mutex).
type Checker interface {
	Feed(s model.Step) *Violation
	Finish(complete bool) *Violation
}

// leaf is one property of a spec: key is the Violation.Spec name its
// checker reports (with k, e.g. "2-BO-Order") and mk builds that checker
// for an n-process execution. Leaves with equal keys are the same
// property, so a Monitor builds one checker for all of them.
type leaf struct {
	key string
	mk  func(n int) leafChecker
}

// leafChecker is a leaf's online checker. feed consumes step i of the
// execution and returns a violation as soon as one exists; s is valid
// only during the call. slot is the Monitor's number for s.Msg in the
// namespace of s's kind (see idTable; -1 for a kind that names no
// message), so a leaf indexes its per-message state by slot and never
// looks an id up itself. kinds is the set of step kinds feed reads: on a
// step of any other kind feed would change nothing and return nil, so the
// Monitor does not call it. finish evaluates the end-of-trace clauses.
// The Monitor owns the latch: it stops feeding a leaf once feed has
// returned a violation, and calls finish at most once, only on a leaf
// that has not.
type leafChecker interface {
	feed(i int, s *model.Step, slot int) *Violation
	kinds() kindSet
	finish(complete bool) *Violation
}

// kindSet is a set of step kinds: bit k for each valid kind k, and bit 0
// for every invalid one.
type kindSet uint16

// allKinds holds every kind, invalid ones included.
const allKinds = ^kindSet(0)

func kindsOf(ks ...model.StepKind) kindSet {
	var set kindSet
	for _, k := range ks {
		set |= kindBit(k)
	}
	return set
}

func kindBit(k model.StepKind) kindSet {
	if !k.Valid() {
		return 1
	}
	return 1 << k
}

// safety is embedded by the leaves that have no end-of-trace clause.
type safety struct{}

func (safety) finish(bool) *Violation { return nil }

// slotless is embedded by the leaves whose feed ignores its slot. A
// Monitor all of whose leaves embed it numbers no message id.
type slotless struct{}

func (slotless) ignoresSlot() {}

// sortedKeys returns a map's keys in ascending order. Every witness a
// leaf picks from a map goes through it, so the choice, and the verdict
// text, is a function of the trace alone.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// RunChecker streams an entire trace through a checker and returns its
// verdict: the first per-step violation, else the Finish-time verdict.
func RunChecker(c Checker, t *trace.Trace) *Violation {
	for _, s := range t.X.Steps {
		if v := c.Feed(s); v != nil {
			return v
		}
	}
	return c.Finish(t.Complete)
}

// NewCheckerFor returns the online checker of s: a Monitor of s alone. It
// blames the leaf violated at the earliest step, where s.Check blames the
// first violated leaf in declaration order.
func NewCheckerFor(s Spec, n int) Checker { return NewMonitor(n, s) }

// SameVerdict reports whether two violations agree as verdicts: both nil,
// or naming the same spec and property. Details and step indices are not
// compared: a reference predicate and a leaf checker may pick different
// witnesses of the same violated property.
func SameVerdict(a, b *Violation) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || (a.Spec == b.Spec && a.Property == b.Property)
}

// SpecVerdict is one spec's latched verdict inside a Monitor.
type SpecVerdict struct {
	Spec      string
	Violation *Violation // nil = no violation observed (so far)
	StepIdx   int        // index of the latching step, -1 for Finish-time or none
}

// Monitor checks several specifications over one step stream. It is the
// unit the runtimes embed for live checking, and a Monitor of one spec is
// that spec's Checker. It keeps one entry per distinct leaf of its specs,
// feeds each leaf every step of a kind it reads until that leaf latches,
// and derives each spec's verdict from its leaves' entries: the leaf
// violated at the earliest step, the first declared on a tie; failing
// that, the first declared leaf violated at Finish. Unless every leaf
// ignores slots, it also numbers every message id once (its idTable) and
// hands each leaf the step's slot; a Monitor of slot-free leaves hands
// them -1. Feed returns the overall first violation (nil until one
// occurs), so callers can fail fast while the monitor keeps collecting
// verdicts for the remaining specs.
type Monitor struct {
	step     model.Step // the step Feed copied; leaves get a pointer to it
	steps    int
	ids      idTable
	leaves   []monLeaf
	specs    []monSpec
	first    *Violation
	firstIdx int
	finished bool
	numbered bool // some leaf reads slots, so every step's id is numbered
}

// monLeaf is one distinct leaf's checker and latched verdict.
type monLeaf struct {
	key   string
	ck    leafChecker
	kinds kindSet // ck.kinds()
	v     *Violation
	idx   int // the step that latched v, -1 when v latched at Finish or is nil
}

// monSpec is one monitored spec: its leaves' entries in declaration order.
type monSpec struct {
	name   string
	leaves []int
}

// NewMonitor builds a monitor over the given specs for an n-process
// execution.
func NewMonitor(n int, specs ...Spec) *Monitor {
	total := 0
	for _, s := range specs {
		total += len(s.leaves)
	}
	m := &Monitor{firstIdx: -1, leaves: make([]monLeaf, 0, total), specs: make([]monSpec, len(specs))}
	entries := make([]int, 0, total)
	for i, s := range specs {
		start := len(entries)
		for _, l := range s.leaves {
			entries = append(entries, m.entry(l, n))
		}
		m.specs[i] = monSpec{name: s.name, leaves: entries[start:]}
	}
	return m
}

// entry returns the index of l's entry, building its checker on first use.
func (m *Monitor) entry(l leaf, n int) int {
	for j := range m.leaves {
		if m.leaves[j].key == l.key {
			return j
		}
	}
	ck := l.mk(n)
	if _, free := ck.(interface{ ignoresSlot() }); !free {
		m.numbered = true
	}
	m.leaves = append(m.leaves, monLeaf{key: l.key, ck: ck, kinds: ck.kinds(), idx: -1})
	return len(m.leaves) - 1
}

// Feed advances every leaf that has not latched by one step and returns
// the overall first violation (latched). The step is copied once, into the
// monitor; leaves read it through a pointer.
func (m *Monitor) Feed(s model.Step) *Violation {
	m.step = s
	return m.FeedStep(&m.step)
}

// FeedStep is Feed on a step the caller keeps valid for the call, which
// spares the copy: Spec.Check passes the trace's own steps, the
// deterministic runtime the step its log just stored, and /v1/check the
// steps of its decode batch. Neither the Monitor nor its leaves keep the
// pointer after the call.
func (m *Monitor) FeedStep(s *model.Step) *Violation {
	i := m.steps
	m.steps++
	slot := -1
	if m.numbered {
		slot = m.ids.stepSlot(s)
	}
	bit := kindBit(s.Kind)
	latched := false
	for j := range m.leaves {
		l := &m.leaves[j]
		if l.v != nil || l.kinds&bit == 0 {
			continue
		}
		if v := l.ck.feed(i, s, slot); v != nil {
			l.v, l.idx, latched = v, i, true
		}
	}
	if latched && m.first == nil {
		m.first, m.firstIdx = m.firstVerdict()
	}
	return m.first
}

// Finish evaluates the end-of-trace clauses of every leaf that has not
// latched. It is idempotent.
func (m *Monitor) Finish(complete bool) *Violation {
	if m.finished {
		return m.first
	}
	m.finished = true
	for j := range m.leaves {
		if l := &m.leaves[j]; l.v == nil {
			l.v = l.ck.finish(complete)
		}
	}
	if m.first == nil {
		m.first, m.firstIdx = m.firstVerdict()
	}
	return m.first
}

// verdict derives a spec's verdict from its leaves' slots.
func (m *Monitor) verdict(sp *monSpec) (v *Violation, idx int) {
	idx = -1
	for _, j := range sp.leaves {
		l := &m.leaves[j]
		switch {
		case l.v == nil:
		case l.idx >= 0 && (idx < 0 || l.idx < idx): // latched at an earlier step
			v, idx = l.v, l.idx
		case l.idx < 0 && v == nil: // violated at Finish, and no leaf before it
			v = l.v
		}
	}
	return v, idx
}

// firstVerdict is the verdict of the first spec, in monitor order, that
// has one.
func (m *Monitor) firstVerdict() (*Violation, int) {
	for i := range m.specs {
		if v, idx := m.verdict(&m.specs[i]); v != nil {
			return v, idx
		}
	}
	return nil, -1
}

// Violation returns the overall first violation and the index of the step
// that latched it (-1 when none, or when it latched at Finish).
func (m *Monitor) Violation() (*Violation, int) { return m.first, m.firstIdx }

// Steps returns how many steps have been fed.
func (m *Monitor) Steps() int { return m.steps }

// Verdict returns the latched verdict for the named spec; ok reports
// whether that spec is monitored at all.
func (m *Monitor) Verdict(specName string) (v *Violation, ok bool) {
	for i := range m.specs {
		if m.specs[i].name == specName {
			v, _ = m.verdict(&m.specs[i])
			return v, true
		}
	}
	return nil, false
}

// Verdicts returns every monitored spec's latched verdict, in monitor
// order.
func (m *Monitor) Verdicts() []SpecVerdict {
	out := make([]SpecVerdict, len(m.specs))
	for i := range m.specs {
		v, idx := m.verdict(&m.specs[i])
		out[i] = SpecVerdict{Spec: m.specs[i].name, Violation: v, StepIdx: idx}
	}
	return out
}

// String summarizes the monitor state for logs.
func (m *Monitor) String() string {
	bad := 0
	for i := range m.specs {
		if v, _ := m.verdict(&m.specs[i]); v != nil {
			bad++
		}
	}
	return fmt.Sprintf("monitor{%d specs, %d steps, %d violated}", len(m.specs), m.steps, bad)
}
