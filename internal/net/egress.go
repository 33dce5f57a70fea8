package net

import (
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/rng"
)

// This file is the one place a FaultPlan is applied: the sender's egress.
// Every send of a node core passes Egress.Pass before it reaches a
// transport — cut by active partition, drop, duplicate, then one delay
// per copy — so automata cannot tell a dropped, partitioned or merely
// slow message apart, whichever transport carries it. The in-memory
// Network shares one Egress among its nodes; internal/nettcp gives each
// node process its own.

// Validate checks the plan against an n-process system; a nil plan is
// valid. NewEgress performs the same check.
func (fp *FaultPlan) Validate(n int) error { return fp.validate(n) }

// Egress evaluates a FaultPlan at one sender's egress. Each call to Pass
// decides the fate of one point-to-point transmission: severed links and
// drops return no copies, duplication returns two, and every copy
// carries its own transit delay drawn from the configured distribution.
// All randomness comes from the seeded generator, so a transport
// replaying the same send sequence sees the same faults. Safe for
// concurrent use.
type Egress struct {
	fs       *faultState
	rng      *safeRng
	met      *netMetrics
	start    time.Time
	maxDelay time.Duration
}

// NewEgress compiles plan for an n-process system. maxDelay bounds the
// default uniform transit delay (zero = no artificial delay), as
// Config.MaxDelay does on the in-process runtime. reg receives the
// net.* metrics (send/fault counters, delay histogram); nil keeps
// standalone counters readable via Stats.
func NewEgress(plan *FaultPlan, n int, seed uint64, maxDelay time.Duration, reg *obs.Registry) (*Egress, error) {
	if err := plan.validate(n); err != nil {
		return nil, err
	}
	return &Egress{
		fs:       compileFaults(plan),
		rng:      &safeRng{src: rng.New(seed)},
		met:      newNetMetrics(reg),
		start:    time.Now(),
		maxDelay: maxDelay,
	}, nil
}

// Pass decides one transmission from→to: delays[:copies] holds one
// transit delay per copy to put on the wire. Zero copies means the
// message is lost (an active partition severs the link, or the drop coin
// fired); two mean the duplication coin fired. The delays come back in
// an array, so a send allocates nothing. Fault injections count under
// the net.faults.* metrics.
func (e *Egress) Pass(from, to model.ProcID) (delays [2]time.Duration, copies int) {
	e.met.sent.Inc()
	if e.fs.cut(from, to, time.Since(e.start), e.met) {
		return delays, 0
	}
	drop, dup := e.fs.linkProbs(from, to)
	if drop > 0 && e.rng.float64() < drop {
		e.met.faultDropped.Inc()
		return delays, 0
	}
	copies = 1
	if dup > 0 && e.rng.float64() < dup {
		copies = 2
		e.met.faultDuplicated.Inc()
	}
	for i := 0; i < copies; i++ {
		d := e.delay()
		e.met.delayUS.Observe(d.Microseconds())
		delays[i] = d
	}
	return delays, copies
}

// delay draws one transit delay from the plan's distribution override,
// or uniform [0, maxDelay).
func (e *Egress) delay() time.Duration {
	if d := e.fs.delayDist(); d != nil {
		return d.sample(e.rng)
	}
	return e.rng.uniform(e.maxDelay)
}

// Stats returns the counters of the egress and of any Core running on it
// (a bare egress counts sends and faults only).
func (e *Egress) Stats() StatsSnapshot { return e.met.snapshot() }
