package spec

import "nobroadcast/internal/model"

// This file holds the dense tables the leaves keep their state in. The
// Monitor numbers each message id once, in the order it first appears,
// and hands every leaf that number, its slot, with the step, so a leaf
// keeps its per-message state in slices indexed by slot. Broadcast
// messages (named by invoke, return and deliver steps) and send instances
// (named by send and receive steps) are numbered apart, so neither
// namespace's slices are sized by the other's messages.
//
// State kept per message and process is dense for p1..p_procDense only
// and falls back to a map for any other process id; state kept per
// process alone is a slice of n+1 entries made on first use, with a map
// for ids outside p0..pn. A leaf's memory thus stays O(ids and processes
// a trace names), whatever their values and whatever n a header declares:
// an upload that declares 4,096 processes allocates no n-sized vector per
// message and no n×n table.

// Message-id namespaces: broadcast messages and send instances.
const (
	bcastNS = 0
	sendNS  = 1
)

// stepSlot returns the slot of s's message in the namespace of s's kind,
// or -1 for a kind that names no message.
func (t *idTable) stepSlot(s *model.Step) int {
	switch s.Kind {
	case model.KindBroadcastInvoke, model.KindBroadcastReturn, model.KindDeliver:
		return t.slot(s.Msg, bcastNS)
	case model.KindSend, model.KindReceive:
		return t.slot(s.Msg, sendNS)
	}
	return -1
}

// idTable numbers message ids densely per namespace: 0, 1, 2… in the
// order they first appear. Small non-negative ids are looked up through a
// slice and any other id through a map. An id may enter the slice only
// below twice the number of distinct ids seen, plus a constant, so the
// slice, like the map, is O(ids seen) whatever values they take.
//
// An entry is 0 for an id not seen, else (slot+1)<<1 | ns for the
// namespace ns the id first appeared in. An id that a trace uses in both
// namespaces, which no runtime records, keeps its slot in the second one
// in cross.
type idTable struct {
	dense  []uint32
	sparse map[model.MsgID]uint32
	cross  map[model.MsgID]int
	ids    int    // distinct ids seen
	next   [2]int // slots numbered so far, per namespace
}

// slot returns m's slot in namespace ns, numbering m on first sight.
func (t *idTable) slot(m model.MsgID, ns int) int {
	var e uint32
	if m >= 0 && m < model.MsgID(len(t.dense)) {
		e = t.dense[m]
	}
	if e == 0 && t.sparse != nil {
		e = t.sparse[m]
	}
	switch {
	case e == 0:
		s := t.number(ns)
		t.store(m, uint32(s+1)<<1|uint32(ns))
		return s
	case int(e&1) == ns:
		return int(e>>1) - 1
	}
	s, ok := t.cross[m]
	if !ok {
		s = t.number(ns)
		if t.cross == nil {
			t.cross = make(map[model.MsgID]int)
		}
		t.cross[m] = s
	}
	return s
}

// number hands out the next slot of namespace ns.
func (t *idTable) number(ns int) int {
	s := t.next[ns]
	if s >= 1<<31-1 {
		panic("spec: more than 2^31-1 message ids in one namespace")
	}
	t.next[ns]++
	return s
}

// store records the entry of an id seen for the first time.
func (t *idTable) store(m model.MsgID, e uint32) {
	t.ids++
	limit := 2*t.ids + 64
	if m < 0 || m >= model.MsgID(limit) {
		if t.sparse == nil {
			t.sparse = make(map[model.MsgID]uint32)
		}
		t.sparse[m] = e
		return
	}
	if i := int(m); i >= len(t.dense) {
		// Double, but stay within the limit.
		grown := make([]uint32, min(max(2*len(t.dense), i+1, 64), limit))
		copy(grown, t.dense)
		t.dense = grown
	}
	t.dense[m] = e
}

// procDense bounds the processes whose per-message state is kept densely:
// p1..p64. The state of any other process id — one of a larger system, or
// an id outside p1..pn that only a malformed trace names — is kept in a
// map.
const procDense = 64

// growTo returns s with index i in range, doubling its capacity when it
// must grow. The elements it adds are zero: the slices it grows are only
// ever grown, so the elements past their length are zero too.
func growTo[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	if i < cap(s) {
		return s[:i+1]
	}
	t := make([]T, i+1, max(2*cap(s), i+1, 8))
	copy(t, s)
	return t
}

// slotProc names one process's state about one message.
type slotProc struct {
	slot int
	p    model.ProcID
}

// procSets is one set of processes per slot: p1..p_procDense as a bit
// word per slot, any other process in a map.
type procSets struct {
	words  []uint64
	others map[slotProc]bool
}

func (d *procSets) has(slot int, p model.ProcID) bool {
	if p >= 1 && p <= procDense {
		return slot < len(d.words) && d.words[slot]&(1<<(p-1)) != 0
	}
	return d.others[slotProc{slot, p}]
}

func (d *procSets) add(slot int, p model.ProcID) {
	if p >= 1 && p <= procDense {
		d.words = growTo(d.words, slot)
		d.words[slot] |= 1 << (p - 1)
		return
	}
	if d.others == nil {
		d.others = make(map[slotProc]bool)
	}
	d.others[slotProc{slot, p}] = true
}

// procVec maps processes to counts, 0 by default: p1..p_procDense (at most
// n of them) in a slice made on first use, any other id in a map.
type procVec struct {
	dense  []int
	others map[model.ProcID]int
}

func (v *procVec) get(p model.ProcID) int {
	if i := int(p) - 1; i >= 0 && i < len(v.dense) {
		return v.dense[i]
	}
	return v.others[p]
}

// set sets p's count, for a vector over the processes of an n-process
// execution.
func (v *procVec) set(n int, p model.ProcID, x int) {
	if i := int(p) - 1; i >= 0 && i < min(n, procDense) {
		if v.dense == nil {
			v.dense = make([]int, min(n, procDense))
		}
		v.dense[i] = x
		return
	}
	if v.others == nil {
		v.others = make(map[model.ProcID]int)
	}
	v.others[p] = x
}

// clone returns a copy of v that shares nothing with it.
func (v *procVec) clone() procVec {
	c := procVec{}
	if v.dense != nil {
		c.dense = append([]int(nil), v.dense...)
	}
	if len(v.others) > 0 {
		c.others = make(map[model.ProcID]int, len(v.others))
		for p, x := range v.others {
			c.others[p] = x
		}
	}
	return c
}

// each calls f on every process with a nonzero count: p1..p_procDense in
// order, then the others in map order.
func (v *procVec) each(f func(p model.ProcID, x int)) {
	for i, x := range v.dense {
		if x != 0 {
			f(model.ProcID(i+1), x)
		}
	}
	for p, x := range v.others {
		if x != 0 {
			f(p, x)
		}
	}
}

// procTable is state kept per process: p0..pn in a slice of n+1 entries
// made on first use, any other id in a map.
type procTable[T any] struct {
	dense  []T
	others map[model.ProcID]*T
}

// at returns p's entry, making it on first use.
func (t *procTable[T]) at(n int, p model.ProcID) *T {
	if p >= 0 && int(p) <= n {
		if t.dense == nil {
			t.dense = make([]T, n+1)
		}
		return &t.dense[p]
	}
	e := t.others[p]
	if e == nil {
		if t.others == nil {
			t.others = make(map[model.ProcID]*T)
		}
		e = new(T)
		t.others[p] = e
	}
	return e
}

// get returns p's entry, nil when it was never made.
func (t *procTable[T]) get(p model.ProcID) *T {
	if p >= 0 && int(p) < len(t.dense) {
		return &t.dense[p]
	}
	return t.others[p]
}
