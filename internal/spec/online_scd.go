package spec

import (
	"fmt"

	"nobroadcast/internal/model"
)

// Online form of the set-constrained delivery predicates: the shared
// conflictStream in SCD mode assigns delivered-set ordinals as order keys
// (strict comparison means same-set messages conflict with nothing), so
// the SCD checker is exactly the total-order machinery over set ordinals
// and k-SCD is the clique checker over the same conflict graph.

// scdChecker rejects on the first strictly-opposite set ordering.
type scdChecker struct {
	safety
	cs *conflictStream
}

func newSCDChecker(n int) *scdChecker {
	return &scdChecker{cs: newConflictStream(n, true)}
}

func (*scdChecker) kinds() kindSet { return orderKinds }

func (c *scdChecker) feed(i int, s *model.Step, slot int) *Violation {
	if cf := c.cs.step(s, slot); len(cf) > 0 {
		x := cf[0]
		return &Violation{Spec: "SCD-Order", Property: "Set-Constrained-Delivery",
			Detail: fmt.Sprintf("%v delivers m%d in a strictly earlier set than m%d, while %v delivers m%d strictly earlier than m%d", x.p, x.a, x.b, x.q, x.b, x.a), StepIdx: i}
	}
	return nil
}
