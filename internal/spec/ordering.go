package spec

import (
	"fmt"
	"strings"

	"nobroadcast/internal/model"
)

// This file implements the ordering predicates of Section 3.2 and the
// counterexample abstractions of Sections 1.4 and 3.3. Each predicate is a
// pure safety spec; the *Broadcast constructors compose it with the four
// universal properties of Section 3.1.

// FIFOOrder checks FIFO delivery: if a process broadcasts m before m', no
// process delivers m' without having delivered m first.
func FIFOOrder() Spec {
	return leafSpec("FIFO-Order", func(n int) leafChecker { return newFIFOChecker(n) })
}

// FIFOBroadcast is FIFO order plus the universal broadcast properties.
func FIFOBroadcast() Spec {
	return All("FIFO-Broadcast", BasicBroadcast(), FIFOOrder())
}

// CausalOrder checks causal delivery: if broadcast(m) happened-before
// broadcast(m'), no process delivers m' without having delivered m first.
// Happened-before is the transitive closure of (a) local broadcast order
// and (b) delivering m before broadcasting m'.
func CausalOrder() Spec {
	return leafSpec("Causal-Order", func(n int) leafChecker { return newCausalChecker(n) })
}

// CausalBroadcast is causal order plus the universal broadcast properties.
func CausalBroadcast() Spec {
	return All("Causal-Broadcast", BasicBroadcast(), CausalOrder())
}

// TotalOrder checks pairwise delivery agreement: no two processes deliver
// two messages in opposite orders. This is the safety core of Total Order
// Broadcast, the abstraction computationally equivalent to consensus [7].
func TotalOrder() Spec {
	return leafSpec("Total-Order", func(n int) leafChecker { return newTotalOrderChecker(n) })
}

// TotalOrderBroadcast is total order plus the universal properties.
func TotalOrderBroadcast() Spec {
	return All("Total-Order-Broadcast", BasicBroadcast(), TotalOrder())
}

// KBOOrder checks the ordering property of k-Bounded Order Broadcast [15]:
// every set of k+1 messages contains two messages delivered in the same
// order by all processes. A finite trace violates it iff some k+1 messages
// are pairwise conflicting (each pair delivered in opposite orders by two
// processes) — a (k+1)-clique in the conflict graph. Conflicts are
// irreparable, so the check is prefix-safe.
func KBOOrder(k int) Spec {
	name := fmt.Sprintf("%d-BO-Order", k)
	return leafSpec(name, func(n int) leafChecker {
		return newCliqueChecker(n, k, false, name, "k-Bounded-Order", kboCliqueDetail, DefaultCliqueBudget)
	})
}

// KBOBroadcast is the k-BO ordering property plus the universal properties.
func KBOBroadcast(k int) Spec {
	return All(fmt.Sprintf("%d-BO-Broadcast", k), BasicBroadcast(), KBOOrder(k))
}

// kboCliqueDetail and kscdCliqueDetail are the per-spec wording after the
// clique list in a violation Detail ("%d" is the clique size k+1).
const (
	kboCliqueDetail  = "are pairwise delivered in opposite orders by some processes; every set of %d messages must contain a commonly-ordered pair"
	kscdCliqueDetail = "are pairwise delivered in strictly opposite set orders; every set of %d messages must contain a commonly set-ordered pair"
)

// DefaultCliqueBudget bounds the branch-and-bound clique search (in
// candidate-node expansions). Clique is NP-hard in general; an adversarial
// trace could otherwise drive the k-BO / k-SCD check super-polynomial
// silently. Conflict graphs of recorded executions are tiny, so the
// budget is far beyond anything a legitimate check needs.
const DefaultCliqueBudget = 1 << 20

// cliqueBudgetViolation is the distinct verdict returned when the search
// exhausts its budget: the trace is rejected as unverifiable rather than
// silently accepted or searched without bound.
func cliqueBudgetViolation(name string, stepIdx int) *Violation {
	return &Violation{Spec: name, Property: PropCliqueBudget,
		Detail: fmt.Sprintf("conflict-graph clique search exceeded the %d-node exploration budget; trace rejected as unverifiable", DefaultCliqueBudget), StepIdx: stepIdx}
}

// PropCliqueBudget is the Property of a budget-exceeded violation.
const PropCliqueBudget = "Clique-Search-Budget"

// findCliqueBudget searches for a clique of the requested size in the
// conflict graph, using a simple branch-and-bound over nodes in the given
// order. This is exact, not approximate, but bounded: every candidate node
// considered decrements *budget; when it runs out the search stops and
// exceeded is true (the clique result is then meaningless). The budget is
// a pointer so incremental callers can spread one budget across many
// searches.
func findCliqueBudget(nodes []model.MsgID, adj map[model.MsgID]map[model.MsgID]bool, size int, budget *int) (clique []model.MsgID, exceeded bool) {
	var cur []model.MsgID
	var rec func(start int) []model.MsgID
	rec = func(start int) []model.MsgID {
		if exceeded {
			return nil
		}
		if len(cur) == size {
			out := make([]model.MsgID, size)
			copy(out, cur)
			return out
		}
		for i := start; i < len(nodes); i++ {
			if *budget <= 0 {
				exceeded = true
				return nil
			}
			*budget--
			if len(cur)+(len(nodes)-i) < size {
				return nil // not enough nodes left
			}
			cand := nodes[i]
			ok := true
			for _, c := range cur {
				if !adj[c][cand] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur = append(cur, cand)
			if found := rec(i + 1); found != nil {
				return found
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	return rec(0), exceeded
}

// FirstKOrder checks the "simplistic" one-shot ordering property of
// Section 1.4: at most k distinct messages are delivered as the very first
// message by the processes. The paper's point is that this spec, while
// equivalent to one instance of k-SA, is content-neutral but NOT
// compositional; the symmetry testers demonstrate it.
func FirstKOrder(k int) Spec {
	name := fmt.Sprintf("First-%d-Order", k)
	return leafSpec(name, func(n int) leafChecker { return newFirstKChecker(n, k, name) })
}

// FirstKBroadcast composes the first-k order with the universal properties.
func FirstKBroadcast(k int) Spec {
	return All(fmt.Sprintf("First-%d-Broadcast", k), BasicBroadcast(), FirstKOrder(k))
}

// KSteppedOrder checks the ordering property of the k-Stepped Broadcast of
// Section 3.2: for each a, let S_a be the set containing the a-th message
// broadcast by each process; at most k messages of S_a may be delivered
// before any other message of S_a by some process. The paper shows this
// spec content-neutral but not compositional (the restriction shifts the
// sequence numbers a).
func KSteppedOrder(k int) Spec {
	name := fmt.Sprintf("%d-Stepped-Order", k)
	return leafSpec(name, func(n int) leafChecker { return newKSteppedChecker(n, k, name) })
}

// KSteppedBroadcast composes the k-stepped order with the universal
// properties.
func KSteppedBroadcast(k int) Spec {
	return All(fmt.Sprintf("%d-Stepped-Broadcast", k), BasicBroadcast(), KSteppedOrder(k))
}

// SA-tagged payloads implement the non-content-neutral strawman of Section
// 3.3: the ordering property applies only to messages of the special form
// SA(ksa, v). SATag encodes such a payload; ParseSATag decodes it.

const saTagPrefix = "SA|"

// SATag encodes the payload SA(obj, v).
func SATag(obj model.KSAID, v model.Value) model.Payload {
	return model.Payload(fmt.Sprintf("%s%d|%s", saTagPrefix, int(obj), string(v)))
}

// ParseSATag decodes an SA-tagged payload, reporting ok=false for plain
// payloads.
func ParseSATag(p model.Payload) (obj model.KSAID, v model.Value, ok bool) {
	s := string(p)
	if !strings.HasPrefix(s, saTagPrefix) {
		return 0, "", false
	}
	rest := s[len(saTagPrefix):]
	idx := strings.IndexByte(rest, '|')
	if idx < 0 {
		return 0, "", false
	}
	var o int
	if _, err := fmt.Sscanf(rest[:idx], "%d", &o); err != nil {
		return 0, "", false
	}
	return model.KSAID(o), model.Value(rest[idx+1:]), true
}

// SATaggedOrder checks the non-content-neutral ordering property of
// Section 3.3: for each k-SA identifier ksa, at most k distinct messages of
// the form SA(ksa, _) are delivered first (among the SA(ksa, _) messages)
// by any process. It is compositional — the predicate is evaluated on
// every subset of messages the same way — but inspects message contents,
// violating content-neutrality, which the symmetry testers demonstrate.
func SATaggedOrder(k int) Spec {
	name := fmt.Sprintf("SA-Tagged-%d-Order", k)
	return leafSpec(name, func(n int) leafChecker { return newSATaggedChecker(n, k, name) })
}

// SATaggedBroadcast composes the SA-tagged order with the universal
// properties.
func SATaggedBroadcast(k int) Spec {
	return All(fmt.Sprintf("SA-Tagged-%d-Broadcast", k), BasicBroadcast(), SATaggedOrder(k))
}
