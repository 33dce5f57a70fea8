package spec

import (
	"sort"

	"nobroadcast/internal/model"
)

// This file keeps the conflict tracker as it was before the running-maxima
// early exit and the dense per-message tables, unchanged except for the
// ref prefix on its identifiers. It rescans every pair's common messages
// on each first delivery, so it is the reference TestConflictStreamMatchesScan
// and FuzzConflictStream compare the production conflictStream against.

// refOrderTracker maintains the per-process order key of each first delivery
// and, per process pair, the list of messages both have delivered. When a
// message becomes common to a pair, one linear scan over the pair's
// previously-common messages finds every newly-created opposite-order
// conflict — the online replacement for the batch all-pairs scan.
type refOrderTracker struct {
	n      int
	pos    []map[model.MsgID]int
	common map[refPairPQ][]model.MsgID
}

type refPairPQ struct{ p, q model.ProcID }

func newRefOrderTracker(n int) *refOrderTracker {
	t := &refOrderTracker{n: n, pos: make([]map[model.MsgID]int, n+1), common: make(map[refPairPQ][]model.MsgID)}
	for p := 1; p <= n; p++ {
		t.pos[p] = make(map[model.MsgID]int)
	}
	return t
}

// observe registers the first delivery of m by p with the given order key
// and returns the conflicts it creates. Keys are compared strictly, so
// equal keys (messages in the same delivered set, SCD mode) conflict with
// nothing — matching the batch predicates.
func (t *refOrderTracker) observe(p model.ProcID, m model.MsgID, key int) []conflict {
	t.pos[p][m] = key
	var out []conflict
	for qn := 1; qn <= t.n; qn++ {
		q := model.ProcID(qn)
		if q == p {
			continue
		}
		kq, ok := t.pos[q][m]
		if !ok {
			continue
		}
		pk := refPairPQ{p, q}
		if q < p {
			pk = refPairPQ{q, p}
		}
		for _, prev := range t.common[pk] {
			dp := key - t.pos[p][prev]
			dq := kq - t.pos[q][prev]
			switch {
			case dp > 0 && dq < 0: // prev before m at p, m before prev at q
				out = append(out, conflict{a: prev, b: m, p: p, q: q})
			case dp < 0 && dq > 0:
				out = append(out, conflict{a: m, b: prev, p: p, q: q})
			}
		}
		t.common[pk] = append(t.common[pk], m)
	}
	return out
}

// refConflictStream adapts a step stream to refOrderTracker.observe calls: it
// assigns order keys (delivery positions, or delivered-set ordinals in
// SCD mode), deduplicates to first deliveries, and parks deliveries of
// not-yet-broadcast messages until the broadcast arrives — the batch
// predicates scan broadcast messages only, so conflicts involving a
// message only exist once it is broadcast.
type refConflictStream struct {
	n   int
	trk *refOrderTracker
	// scd selects delivered-set ordinal keys (batchIndex semantics: the
	// ordinal advances on every delivery whose Batch tag is zero or
	// differs from the previous delivery's).
	scd            bool
	dcount         []int
	curBatch       []int64
	ord            []int
	seen           []map[model.MsgID]bool
	known          map[model.MsgID]bool
	pendingUnknown map[model.MsgID]map[model.ProcID]int
}

func newRefConflictStream(n int, scd bool) *refConflictStream {
	f := &refConflictStream{
		n:              n,
		trk:            newRefOrderTracker(n),
		scd:            scd,
		dcount:         make([]int, n+1),
		curBatch:       make([]int64, n+1),
		ord:            make([]int, n+1),
		seen:           make([]map[model.MsgID]bool, n+1),
		known:          make(map[model.MsgID]bool),
		pendingUnknown: make(map[model.MsgID]map[model.ProcID]int),
	}
	for p := 1; p <= n; p++ {
		f.seen[p] = make(map[model.MsgID]bool)
	}
	return f
}

// step consumes one step and returns the new conflicts it creates.
func (f *refConflictStream) step(s model.Step) []conflict {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		if f.known[s.Msg] {
			return nil
		}
		f.known[s.Msg] = true
		pu := f.pendingUnknown[s.Msg]
		if pu == nil {
			return nil
		}
		delete(f.pendingUnknown, s.Msg)
		procs := make([]model.ProcID, 0, len(pu))
		for p := range pu {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
		var out []conflict
		for _, p := range procs {
			out = append(out, f.trk.observe(p, s.Msg, pu[p])...)
		}
		return out
	case model.KindDeliver:
		p := s.Proc
		if p < 1 || int(p) > f.n {
			return nil // outside p1..pn: the batch pair scan ignores it
		}
		var key int
		if f.scd {
			if s.Batch == 0 || s.Batch != f.curBatch[p] {
				f.ord[p]++
				f.curBatch[p] = s.Batch
			}
			key = f.ord[p]
		} else {
			key = f.dcount[p]
			f.dcount[p]++
		}
		if f.seen[p][s.Msg] {
			return nil
		}
		f.seen[p][s.Msg] = true
		if !f.known[s.Msg] {
			pu := f.pendingUnknown[s.Msg]
			if pu == nil {
				pu = make(map[model.ProcID]int)
				f.pendingUnknown[s.Msg] = pu
			}
			pu[p] = key
			return nil
		}
		return f.trk.observe(p, s.Msg, key)
	}
	return nil
}
