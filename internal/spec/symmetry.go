package spec

import (
	"fmt"

	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/trace"
)

// This file implements testers for the paper's two symmetry properties.
//
// Both properties quantify over all executions admitted by a specification;
// on a concrete admissible trace, the testers check the property's
// conclusion for that trace: every restriction (Definition 2) and every
// injective renaming (Definition 3) of the trace must remain admissible.
// A single failing restriction or renaming is a counterexample proving the
// specification non-compositional or non-content-neutral; passing all
// generated transformations is (necessarily) evidence, not proof.

// SymmetryOptions tunes the transformation generators.
type SymmetryOptions struct {
	// MaxExhaustiveMsgs bounds exhaustive subset enumeration: if the
	// trace broadcasts at most this many messages, all 2^m subsets are
	// tried. Zero selects the default (12).
	MaxExhaustiveMsgs int
	// RandomSubsets is the number of random subsets tried beyond the
	// structured ones when exhaustive enumeration is off. Zero selects
	// the default (64).
	RandomSubsets int
	// RandomRenamings is the number of random payload permutations tried
	// in addition to the structured renamings. Zero selects the default (8).
	RandomRenamings int
	// Seed feeds the deterministic generator.
	Seed uint64
	// ExtraRenamings are tried verbatim (after injectivity validation).
	ExtraRenamings []model.Renaming
}

func (o SymmetryOptions) withDefaults() SymmetryOptions {
	if o.MaxExhaustiveMsgs == 0 {
		o.MaxExhaustiveMsgs = 12
	}
	if o.RandomSubsets == 0 {
		o.RandomSubsets = 64
	}
	if o.RandomRenamings == 0 {
		o.RandomRenamings = 8
	}
	return o
}

// CompositionalityReport is the outcome of CheckCompositional.
type CompositionalityReport struct {
	// Holds is true when every generated restriction stayed admissible.
	Holds bool
	// Checked counts the restrictions evaluated.
	Checked int
	// WitnessSubset is a message subset whose restriction is inadmissible
	// (nil when Holds).
	WitnessSubset []model.MsgID
	// Violation is the spec violation on the witness restriction.
	Violation *Violation
}

// CheckCompositional tests Definition 2 on a concrete trace: for the spec
// to be compositional, the restriction of the admissible trace t onto any
// subset of its messages must remain admissible. It returns an error if t
// itself is not admitted by s (the property's precondition fails).
func CheckCompositional(s Spec, t *trace.Trace, opts SymmetryOptions) (*CompositionalityReport, error) {
	opts = opts.withDefaults()
	if v := s.Check(t); v != nil {
		return nil, fmt.Errorf("spec: base trace not admitted by %s: %s", s.Name(), v)
	}
	msgs := t.X.Messages()
	rep := &CompositionalityReport{Holds: true}
	try := func(keep map[model.MsgID]bool) bool {
		restricted := &trace.Trace{X: t.X.Restrict(keep), Complete: t.Complete, Name: t.Name}
		rep.Checked++
		if v := s.Check(restricted); v != nil {
			rep.Holds = false
			rep.Violation = v
			rep.WitnessSubset = sortedKeys(keep)
			return false
		}
		return true
	}

	if len(msgs) <= opts.MaxExhaustiveMsgs {
		total := 1 << len(msgs)
		for mask := 0; mask < total; mask++ {
			keep := make(map[model.MsgID]bool, len(msgs))
			for i, m := range msgs {
				if mask&(1<<i) != 0 {
					keep[m] = true
				}
			}
			if !try(keep) {
				return rep, nil
			}
		}
		return rep, nil
	}

	// Structured subsets: drop-one, halves, and per-process message sets.
	for _, drop := range msgs {
		keep := make(map[model.MsgID]bool, len(msgs)-1)
		for _, m := range msgs {
			if m != drop {
				keep[m] = true
			}
		}
		if !try(keep) {
			return rep, nil
		}
	}
	half := make(map[model.MsgID]bool, len(msgs)/2)
	for i, m := range msgs {
		if i%2 == 0 {
			half[m] = true
		}
	}
	if !try(half) {
		return rep, nil
	}
	for pn := 1; pn <= t.X.N; pn++ {
		keep := make(map[model.MsgID]bool)
		for _, m := range t.X.BroadcastOrder(model.ProcID(pn)) {
			keep[m] = true
		}
		if !try(keep) {
			return rep, nil
		}
	}

	src := rng.New(opts.Seed)
	for r := 0; r < opts.RandomSubsets; r++ {
		keep := make(map[model.MsgID]bool)
		for _, m := range msgs {
			if src.Bool() {
				keep[m] = true
			}
		}
		if !try(keep) {
			return rep, nil
		}
	}
	return rep, nil
}

// ContentNeutralityReport is the outcome of CheckContentNeutral.
type ContentNeutralityReport struct {
	// Holds is true when every generated renaming stayed admissible.
	Holds bool
	// Checked counts the renamings evaluated.
	Checked int
	// WitnessRenaming is an injective renaming whose application is
	// inadmissible (nil when Holds).
	WitnessRenaming model.Renaming
	// Violation is the spec violation on the witness renaming.
	Violation *Violation
}

// CheckContentNeutral tests Definition 3 on a concrete trace: for the spec
// to be content-neutral, replacing the trace's messages through any
// injective function must preserve admissibility. It returns an error if t
// itself is not admitted by s.
func CheckContentNeutral(s Spec, t *trace.Trace, opts SymmetryOptions) (*ContentNeutralityReport, error) {
	opts = opts.withDefaults()
	if v := s.Check(t); v != nil {
		return nil, fmt.Errorf("spec: base trace not admitted by %s: %s", s.Name(), v)
	}
	payloads := t.X.Payloads()
	rep := &ContentNeutralityReport{Holds: true}
	try := func(r model.Renaming) (bool, error) {
		renamed, err := t.X.Rename(r)
		if err != nil {
			return true, fmt.Errorf("spec: generated non-injective renaming: %w", err)
		}
		rep.Checked++
		rt := &trace.Trace{X: renamed, Complete: t.Complete, Name: t.Name}
		if v := s.Check(rt); v != nil {
			rep.Holds = false
			rep.Violation = v
			rep.WitnessRenaming = r
			return false, nil
		}
		return true, nil
	}

	var renamings []model.Renaming

	// Fresh contents: every payload becomes a structureless token. This
	// is the strongest generic attack on content-dependent specs: any
	// special syntactic form (such as the SA(ksa,v) tags of Section 3.3)
	// is erased.
	fresh := make(model.Renaming, len(payloads))
	for i, p := range payloads {
		fresh[p] = model.Payload(fmt.Sprintf("cn-fresh-%d", i))
	}
	renamings = append(renamings, fresh)

	// Structure injection: every payload becomes an SA(ksa, v) tag. The
	// fresh renaming above can only erase content structure; this one
	// creates it, which is what catches specs whose ordering property
	// applies to specially-formed messages only (Section 3.3).
	inject := make(model.Renaming, len(payloads))
	for i, p := range payloads {
		inject[p] = SATag(1, model.Value(fmt.Sprintf("cn-inj-%d", i)))
	}
	renamings = append(renamings, inject)

	// Reversal: payload i takes payload (len-1-i)'s content.
	if len(payloads) > 1 {
		rev := make(model.Renaming, len(payloads))
		for i, p := range payloads {
			rev[p] = payloads[len(payloads)-1-i]
		}
		renamings = append(renamings, rev)
	}

	// Random permutations of the payload set.
	src := rng.New(opts.Seed)
	for r := 0; r < opts.RandomRenamings && len(payloads) > 1; r++ {
		perm := src.Perm(len(payloads))
		m := make(model.Renaming, len(payloads))
		for i, p := range payloads {
			m[p] = payloads[perm[i]]
		}
		renamings = append(renamings, m)
	}
	renamings = append(renamings, opts.ExtraRenamings...)

	for _, r := range renamings {
		ok, err := try(r)
		if err != nil {
			return nil, err
		}
		if !ok {
			return rep, nil
		}
	}
	return rep, nil
}
