package spec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"nobroadcast/internal/model"
)

// This file holds the online checkers for the ordering predicates of
// Sections 1.4, 3.2 and 3.3: FIFO per-sender cursors, causal vector-clock
// frontiers, the pairwise conflict tracker shared by Total Order / k-BO /
// SCD / k-SCD, and the first-delivery counters of the strawman specs.
//
// Faithfulness note: the checkers return verdicts identical to the
// reference predicates (in this package's tests) on every trace in which a
// message's broadcast precedes its deliveries — which both runtimes
// guarantee by recording order (an invocation is always recorded before
// any delivery it causes). The conflict-based checkers additionally handle
// late broadcasts exactly (deliveries of a not-yet-broadcast message are
// parked and joined to the conflict graph when the broadcast arrives,
// matching the reference scan over broadcast messages only).

// orderKinds are the steps the ordering leaves read: invocations and
// deliveries.
var orderKinds = kindsOf(model.KindBroadcastInvoke, model.KindDeliver)

// fifoChecker keeps one cursor per (receiver, sender) pair — the number
// of the sender's messages the receiver has delivered, which must advance
// in broadcast order with no gaps.
type fifoChecker struct {
	safety
	n      int
	seq    []fifoSlot         // by slot
	counts procTable[int]     // broadcasts per sender
	cursor procTable[procVec] // cursor[r][q]: q's messages r delivered
}

type fifoSlot struct {
	from  model.ProcID
	idx   int
	known bool
}

func newFIFOChecker(n int) *fifoChecker {
	return &fifoChecker{n: n}
}

func (*fifoChecker) kinds() kindSet { return orderKinds }

func (c *fifoChecker) feed(i int, s *model.Step, slot int) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		cnt := c.counts.at(c.n, s.Proc)
		c.seq = growTo(c.seq, slot)
		c.seq[slot] = fifoSlot{from: s.Proc, idx: *cnt, known: true}
		*cnt++
	case model.KindDeliver:
		if slot >= len(c.seq) || !c.seq[slot].known {
			return nil // BC-Validity's concern, not FIFO's
		}
		sl := c.seq[slot]
		cur := c.cursor.at(c.n, s.Proc)
		if want := cur.get(sl.from); sl.idx != want {
			return &Violation{Spec: "FIFO-Order", Property: "FIFO",
				Detail: fmt.Sprintf("%v delivers m%d (message #%d of %v) but has delivered only %d of %v's earlier messages", s.Proc, s.Msg, sl.idx+1, sl.from, want, sl.from), StepIdx: i}
		}
		cur.set(c.n, sl.from, sl.idx+1)
	}
	return nil
}

// causalChecker checks causal order without materializing past sets.
//
// The reference predicate keeps an explicit message set per causal past —
// O(M²) memory. The streaming form exploits that causal pasts are
// per-sender prefix-closed: a process's causal history restricted to one
// sender's broadcasts is always a prefix of that sender's broadcast
// sequence (by induction — histories grow by unioning snapshots that are
// themselves prefix-shaped, plus the next own broadcast). A past is then
// a vector clock (one prefix length per sender), and the delivery check
// compares the vector against the receiver's delivered-prefix frontier,
// consulting the out-of-order buffer for the gap. Deliveries of
// never-broadcast messages (possible only on BC-invalid traces) carry no
// vector and are tracked in explicit side sets, preserving the reference
// verdict there too. A delivery that misses several predecessors names
// the one broadcast first; failing a broadcast one, the lowest id.
//
// Vectors are procVecs, dense over p1..p64, so an upload that declares
// thousands of processes costs each message a vector of at most 64
// entries plus the senders beyond p64 its past actually holds.
type causalChecker struct {
	safety
	n    int
	bseq procTable[[]causalBcast]
	msgs []causalMsg // by slot
	// hist[p][q] = length of the prefix of q's broadcasts in p's causal
	// history; histUnknown[p] = never-broadcast messages in that history,
	// id to slot.
	hist        procTable[procVec]
	histUnknown map[model.ProcID]map[model.MsgID]int
	// prefix[p][q] = length of the contiguous prefix of q's broadcasts p
	// has delivered; ooo[p][q] = delivered broadcast ordinals beyond it.
	// The side tables (ooo and the never-broadcast sets) are made on first
	// use; they stay empty on a trace where every message is broadcast
	// before it is delivered and each process delivers each sender's
	// messages in broadcast order.
	prefix           procTable[procVec]
	ooo              map[model.ProcID]map[model.ProcID]map[int]bool
	deliveredUnknown procSets
}

type causalMsg struct {
	known   bool
	sender  model.ProcID
	seq     int
	vc      procVec
	unknown []causalUnknown // ascending by id
}

// causalUnknown is a never-broadcast message in a causal past.
type causalUnknown struct {
	m    model.MsgID
	slot int
}

// causalBcast is one broadcast in its sender's sequence, and the index of
// its step.
type causalBcast struct {
	m  model.MsgID
	at int
}

func newCausalChecker(n int) *causalChecker {
	return &causalChecker{n: n}
}

func (c *causalChecker) msg(slot int) *causalMsg {
	if slot < len(c.msgs) && c.msgs[slot].known {
		return &c.msgs[slot]
	}
	return nil
}

func (c *causalChecker) prefixOf(p, q model.ProcID) int {
	if pre := c.prefix.get(p); pre != nil {
		return pre.get(q)
	}
	return 0
}

func (c *causalChecker) hasDelivered(p model.ProcID, slot int) bool {
	if c.deliveredUnknown.has(slot, p) {
		return true
	}
	mm := c.msg(slot)
	if mm == nil {
		return false
	}
	if mm.seq < c.prefixOf(p, mm.sender) {
		return true
	}
	return c.ooo[p][mm.sender][mm.seq]
}

// missing returns a message of mm's causal past that p has not
// delivered: the one broadcast first, else the lowest never-broadcast one.
func (c *causalChecker) missing(p model.ProcID, mm *causalMsg) (model.MsgID, bool) {
	first := causalBcast{at: -1}
	pre := c.prefix.get(p)
	mm.vc.each(func(q model.ProcID, need int) {
		// Per sender, the first gap is the missing message broadcast first.
		j := 0
		if pre != nil {
			j = pre.get(q)
		}
		for ; j < need; j++ {
			if !c.ooo[p][q][j] {
				if b := (*c.bseq.get(q))[j]; first.at < 0 || b.at < first.at {
					first = b
				}
				break
			}
		}
	})
	if first.at >= 0 {
		return first.m, true
	}
	for _, u := range mm.unknown {
		if !c.hasDelivered(p, u.slot) {
			return u.m, true
		}
	}
	return 0, false
}

func (*causalChecker) kinds() kindSet { return orderKinds }

func (c *causalChecker) feed(i int, s *model.Step, slot int) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		p := s.Proc
		seq := 0
		if b := c.bseq.get(p); b != nil {
			seq = len(*b)
		}
		h := c.hist.at(c.n, p)
		var unk []causalUnknown
		if hu := c.histUnknown[p]; len(hu) > 0 {
			unk = make([]causalUnknown, 0, len(hu))
			for _, u := range sortedKeys(hu) {
				unk = append(unk, causalUnknown{m: u, slot: hu[u]})
			}
		}
		c.msgs = growTo(c.msgs, slot)
		c.msgs[slot] = causalMsg{known: true, sender: p, seq: seq, vc: h.clone(), unknown: unk}
		b := c.bseq.at(c.n, p)
		*b = append(*b, causalBcast{m: s.Msg, at: i})
		h.set(c.n, p, seq+1)
	case model.KindDeliver:
		p := s.Proc
		mm := c.msg(slot)
		if mm == nil {
			// Never broadcast: no causal past to check (matching the
			// reference predicate); it still joins p's delivered set and
			// causal history.
			c.deliveredUnknown.add(slot, p)
			if c.histUnknown == nil {
				c.histUnknown = make(map[model.ProcID]map[model.MsgID]int)
			}
			if c.histUnknown[p] == nil {
				c.histUnknown[p] = make(map[model.MsgID]int)
			}
			c.histUnknown[p][s.Msg] = slot
			return nil
		}
		// Every message in m's causal past must already be delivered at p.
		if pred, ok := c.missing(p, mm); ok {
			return &Violation{Spec: "Causal-Order", Property: "Causal",
				Detail: fmt.Sprintf("%v delivers m%d before its causal predecessor m%d", p, s.Msg, pred), StepIdx: i}
		}
		// Record the delivery in the prefix/out-of-order structure.
		pre := c.prefix.at(c.n, p)
		switch at := pre.get(mm.sender); {
		case mm.seq == at:
			at++
			buf := c.ooo[p][mm.sender]
			for buf[at] {
				delete(buf, at)
				at++
			}
			pre.set(c.n, mm.sender, at)
		case mm.seq > at:
			if c.ooo == nil {
				c.ooo = make(map[model.ProcID]map[model.ProcID]map[int]bool)
			}
			if c.ooo[p] == nil {
				c.ooo[p] = make(map[model.ProcID]map[int]bool)
			}
			if c.ooo[p][mm.sender] == nil {
				c.ooo[p][mm.sender] = make(map[int]bool)
			}
			c.ooo[p][mm.sender][mm.seq] = true
		}
		// The delivered message and its past join p's causal history.
		h := c.hist.at(c.n, p)
		mm.vc.each(func(q model.ProcID, l int) {
			if l > h.get(q) {
				h.set(c.n, q, l)
			}
		})
		if mm.seq+1 > h.get(mm.sender) {
			h.set(c.n, mm.sender, mm.seq+1)
		}
		if len(mm.unknown) > 0 {
			if c.histUnknown == nil {
				c.histUnknown = make(map[model.ProcID]map[model.MsgID]int)
			}
			if c.histUnknown[p] == nil {
				c.histUnknown[p] = make(map[model.MsgID]int)
			}
			for _, u := range mm.unknown {
				c.histUnknown[p][u.m] = u.slot
			}
		}
	}
	return nil
}

// orderTracker keeps, per process pair, the messages both have
// first-delivered, each with its order key at both processes, and finds
// the opposite-order conflicts a message creates when it becomes common
// to the pair — the online replacement for the reference all-pairs scan.
//
// A new common message m conflicts with an earlier common message only if
// one process of the pair orders m strictly after it and the other
// strictly before it. So each pair also keeps two running maxima: the
// largest key each process holds over the pair's common messages. When
// both keys for m are at least those maxima (m is the newest common
// message at both processes), no conflict can exist and observe skips the
// scan, so on a trace where every pair orders its common messages alike a
// first delivery costs O(processes that delivered m), whatever the number
// of common messages. Otherwise observe scans the pair's whole common list:
// for a parked delivery released behind newer keys when its broadcast
// arrives late, and for any pair where a conflict is possible. It thus
// reports exactly the conflicts, in the same order, that scanning every
// pair's common list on every first delivery would.
//
// Pair state is made on first use: the pairs of p1..p_pairDense in a
// slice indexed by the pair, any other pair in a map.
type orderTracker struct {
	d     int // min(n, pairDense)
	dense []orderPair
	pairs map[pairPQ]*orderPair
}

// pairDense bounds the processes whose pairs orderTracker indexes
// densely; their table then holds at most 120 pairs.
const pairDense = 16

// pair returns the state of processes p < q of p1..pn.
func (t *orderTracker) pair(p, q model.ProcID) *orderPair {
	if int(q) <= t.d {
		if t.dense == nil {
			t.dense = make([]orderPair, t.d*(t.d-1)/2)
		}
		return &t.dense[int(q-1)*int(q-2)/2+int(p-1)]
	}
	pk := pairPQ{p, q}
	pr := t.pairs[pk]
	if pr == nil {
		if t.pairs == nil {
			t.pairs = make(map[pairPQ]*orderPair)
		}
		pr = &orderPair{}
		t.pairs[pk] = pr
	}
	return pr
}

type pairPQ struct{ p, q model.ProcID } // p < q

// conflict is a pair of messages delivered in opposite orders: a before b
// at p, b before a at q.
type conflict struct {
	a, b model.MsgID
	p, q model.ProcID
}

// orderPair is one pair's common messages, in the order they became
// common, and the running maxima of each side's keys over them (index 0 is
// the lower process, 1 the higher).
type orderPair struct {
	common []commonMsg
	max    [2]int
}

type commonMsg struct {
	m   model.MsgID
	key [2]int
}

// procKey is one process's order key for a message.
type procKey struct {
	p   model.ProcID
	key int
}

// observe registers the first delivery of m by p with the given order key.
// dels holds the other processes' first deliveries of m, ascending by
// process (an entry for p itself is skipped); m becomes common to p and
// each of them. It returns the conflicts this creates, pair by pair in
// ascending order of the other process. Keys are compared strictly, so
// equal keys (messages in the same delivered set, SCD mode) conflict with
// nothing — matching the reference predicates.
func (t *orderTracker) observe(p model.ProcID, m model.MsgID, key int, dels []procKey) []conflict {
	var out []conflict
	for _, d := range dels {
		q := d.p
		if q == p {
			continue
		}
		var pr *orderPair
		sp, sq := 0, 1
		if q < p {
			pr, sp, sq = t.pair(q, p), 1, 0
		} else {
			pr = t.pair(p, q)
		}
		if key < pr.max[sp] || d.key < pr.max[sq] {
			for _, c := range pr.common {
				dp := key - c.key[sp]
				dq := d.key - c.key[sq]
				switch {
				case dp > 0 && dq < 0: // c before m at p, m before c at q
					out = append(out, conflict{a: c.m, b: m, p: p, q: q})
				case dp < 0 && dq > 0:
					out = append(out, conflict{a: m, b: c.m, p: p, q: q})
				}
			}
		}
		var keys [2]int
		keys[sp], keys[sq] = key, d.key
		pr.common = append(pr.common, commonMsg{m: m, key: keys})
		pr.max[sp] = max(pr.max[sp], key)
		pr.max[sq] = max(pr.max[sq], d.key)
	}
	return out
}

// conflictStream adapts a step stream to orderTracker.observe calls: it
// assigns order keys (delivery positions, or delivered-set ordinals in
// SCD mode), deduplicates to first deliveries, and parks deliveries of
// not-yet-broadcast messages until the broadcast arrives — the reference
// predicates scan broadcast messages only, so conflicts involving a
// message only exist once it is broadcast.
//
// Its state is dense: the Monitor's slot indexes the per-message state,
// which holds the message's first deliveries in ascending process order —
// parked ones included, so the broadcast releases them in that order
// without a sort. Per-process counters grow with the largest process that
// delivers, and pair state is made on first use, so nothing is sized by
// n, or n², up front.
type conflictStream struct {
	n int
	// scd selects delivered-set ordinal keys (batchIndex semantics: the
	// ordinal advances on every delivery whose Batch tag is zero or
	// differs from the previous delivery's).
	scd   bool
	trk   orderTracker
	msgs  []msgSlot // by slot
	procs []streamProc
}

// msgSlot is one message's state: whether its broadcast has been seen,
// and the first deliveries by p1..pn, ascending by process (parked while
// the broadcast has not been seen).
type msgSlot struct {
	known bool
	dels  []procKey
}

// streamProc is one process's key counter: its delivery count, or in SCD
// mode its current delivered-set ordinal and that set's Batch tag.
type streamProc struct {
	next  int
	batch int64
}

func newConflictStream(n int, scd bool) *conflictStream {
	return &conflictStream{n: n, scd: scd, trk: orderTracker{d: min(n, pairDense)}}
}

// key assigns the order key of p's next delivery.
func (f *conflictStream) key(p model.ProcID, batch int64) int {
	f.procs = growTo(f.procs, int(p))
	st := &f.procs[p]
	if !f.scd {
		st.next++
		return st.next - 1
	}
	if batch == 0 || batch != st.batch {
		st.next++
		st.batch = batch
	}
	return st.next
}

// step consumes one step, whose message has the given slot, and returns
// the new conflicts it creates.
func (f *conflictStream) step(s *model.Step, slot int) []conflict {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		f.msgs = growTo(f.msgs, slot)
		ms := &f.msgs[slot]
		if ms.known {
			return nil
		}
		ms.known = true
		// Release the parked deliveries, each observed against the ones
		// released before it.
		var out []conflict
		for i, d := range ms.dels {
			out = append(out, f.trk.observe(d.p, s.Msg, d.key, ms.dels[:i])...)
		}
		return out
	case model.KindDeliver:
		p := s.Proc
		if p < 1 || int(p) > f.n {
			return nil // outside p1..pn: the reference pair scan ignores it
		}
		key := f.key(p, s.Batch)
		f.msgs = growTo(f.msgs, slot)
		ms := &f.msgs[slot]
		i := 0
		for i < len(ms.dels) && ms.dels[i].p < p {
			i++
		}
		if i < len(ms.dels) && ms.dels[i].p == p {
			return nil
		}
		if ms.dels == nil { // room for every process, when there are few
			ms.dels = make([]procKey, 0, min(f.n, 8))
		}
		ms.dels = slices.Insert(ms.dels, i, procKey{p: p, key: key})
		if !ms.known {
			return nil
		}
		return f.trk.observe(p, s.Msg, key, ms.dels)
	}
	return nil
}

// totalOrderChecker rejects on the first opposite-order conflict.
type totalOrderChecker struct {
	safety
	cs *conflictStream
}

func newTotalOrderChecker(n int) *totalOrderChecker {
	return &totalOrderChecker{cs: newConflictStream(n, false)}
}

func (*totalOrderChecker) kinds() kindSet { return orderKinds }

func (c *totalOrderChecker) feed(i int, s *model.Step, slot int) *Violation {
	if cf := c.cs.step(s, slot); len(cf) > 0 {
		x := cf[0]
		return &Violation{Spec: "Total-Order", Property: "Total-Order",
			Detail: fmt.Sprintf("%v delivers m%d before m%d but %v delivers m%d before m%d", x.p, x.a, x.b, x.q, x.b, x.a), StepIdx: i}
	}
	return nil
}

// cliqueChecker is the shared streaming core of k-BO and k-SCD: it
// accumulates conflict edges and, on each new edge, searches for a
// (k+1)-clique containing that edge among the endpoints' common
// neighbors, under the shared exploration budget. The adjacency stays a
// map: it changes only on a new conflict, never on a plain step.
type cliqueChecker struct {
	safety
	name     string
	property string
	detail   string // wording after the clique list
	k        int
	cs       *conflictStream
	adj      map[model.MsgID]map[model.MsgID]bool
	budget   int
}

func newCliqueChecker(n, k int, scd bool, name, property, detail string, budget int) *cliqueChecker {
	return &cliqueChecker{
		name:     name,
		property: property,
		detail:   detail,
		k:        k,
		cs:       newConflictStream(n, scd),
		budget:   budget,
	}
}

func (*cliqueChecker) kinds() kindSet { return orderKinds }

func (c *cliqueChecker) feed(i int, s *model.Step, slot int) *Violation {
	for _, cf := range c.cs.step(s, slot) {
		if c.adj[cf.a][cf.b] {
			continue
		}
		if c.adj == nil {
			c.adj = make(map[model.MsgID]map[model.MsgID]bool)
		}
		linkConflict(c.adj, cf.a, cf.b)
		// A (k+1)-clique through the new edge needs a (k-1)-clique among
		// the edge's common neighbors.
		var cands []model.MsgID
		for m := range c.adj[cf.a] {
			if m != cf.b && c.adj[cf.b][m] {
				cands = append(cands, m)
			}
		}
		sort.Slice(cands, func(x, y int) bool { return cands[x] < cands[y] })
		clique, exceeded := findCliqueBudget(cands, c.adj, c.k+1-2, &c.budget)
		if exceeded {
			return cliqueBudgetViolation(c.name, i)
		}
		if clique == nil {
			continue
		}
		full := append([]model.MsgID{cf.a, cf.b}, clique...)
		sort.Slice(full, func(x, y int) bool { return full[x] < full[y] })
		parts := make([]string, len(full))
		for j, m := range full {
			parts[j] = fmt.Sprintf("m%d", m)
		}
		return &Violation{Spec: c.name, Property: c.property,
			Detail: fmt.Sprintf("messages {%s} %s", strings.Join(parts, ","), fmt.Sprintf(c.detail, c.k+1)), StepIdx: i}
	}
	return nil
}

func linkConflict(adj map[model.MsgID]map[model.MsgID]bool, a, b model.MsgID) {
	if adj[a] == nil {
		adj[a] = make(map[model.MsgID]bool)
	}
	if adj[b] == nil {
		adj[b] = make(map[model.MsgID]bool)
	}
	adj[a][b] = true
	adj[b][a] = true
}

// firstKChecker counts distinct first-delivered messages.
type firstKChecker struct {
	safety
	name      string
	k, n      int
	firstSeen []bool // p0..pn, made on first use
	firsts    []bool // by slot
	distinct  int
}

func newFirstKChecker(n, k int, name string) *firstKChecker {
	return &firstKChecker{name: name, k: k, n: n}
}

func (*firstKChecker) kinds() kindSet { return kindsOf(model.KindDeliver) }

func (c *firstKChecker) feed(i int, s *model.Step, slot int) *Violation {
	if s.Kind != model.KindDeliver || s.Proc < 1 || int(s.Proc) > c.n {
		return nil
	}
	if c.firstSeen == nil {
		c.firstSeen = make([]bool, c.n+1)
	}
	if c.firstSeen[s.Proc] {
		return nil
	}
	c.firstSeen[s.Proc] = true
	if c.firsts = growTo(c.firsts, slot); !c.firsts[slot] {
		c.firsts[slot] = true
		c.distinct++
	}
	if c.distinct > c.k {
		return &Violation{Spec: c.name, Property: "First-k",
			Detail: fmt.Sprintf("%d distinct messages delivered first, at most %d allowed", c.distinct, c.k), StepIdx: i}
	}
	return nil
}

// ksteppedChecker tracks, per broadcast ordinal a, the size of the group
// S_a and the set of S_a messages delivered first-within-S_a by some
// process. Both counts only grow, so the latched verdict equals the
// reference verdict on every trace where broadcasts precede deliveries.
// A message belongs to one group, so one flag per message records whether
// it counts among its group's firsts.
type ksteppedChecker struct {
	safety
	name   string
	k, n   int
	bcount []int           // broadcasts per process, p0..pn, made on first use
	msgs   []ksMsg         // by slot
	groups []ksGroup       // by ordinal a
	seen   map[ksSeen]bool // first deliveries within a group by p65 and up
}

// ksMsg is one message's group, 1 + its ordinal (0 when it has none), and
// whether some process delivered it first within that group.
type ksMsg struct {
	group int
	first bool
}

// ksGroup is one group S_a: its size, its distinct first-delivered
// messages, and the processes of p1..p64 that delivered within it.
type ksGroup struct {
	size, firsts int
	seen         uint64
}

type ksSeen struct {
	a int
	p model.ProcID
}

func newKSteppedChecker(n, k int, name string) *ksteppedChecker {
	return &ksteppedChecker{name: name, k: k, n: n}
}

func (c *ksteppedChecker) check(a, i int) *Violation {
	if g := c.groups[a]; g.size <= c.k || g.firsts <= c.k {
		return nil
	}
	return &Violation{Spec: c.name, Property: "k-Stepped",
		Detail: fmt.Sprintf("step %d: %d distinct messages of S_%d delivered first within S_%d, at most %d allowed", a+1, c.groups[a].firsts, a+1, a+1, c.k), StepIdx: i}
}

// firstWithin marks p as having delivered within group a, and reports
// whether this is p's first delivery there.
func (c *ksteppedChecker) firstWithin(a int, p model.ProcID) bool {
	if p <= procDense {
		bit := uint64(1) << (p - 1)
		if c.groups[a].seen&bit != 0 {
			return false
		}
		c.groups[a].seen |= bit
		return true
	}
	if c.seen[ksSeen{a, p}] {
		return false
	}
	if c.seen == nil {
		c.seen = make(map[ksSeen]bool)
	}
	c.seen[ksSeen{a, p}] = true
	return true
}

func (*ksteppedChecker) kinds() kindSet { return orderKinds }

func (c *ksteppedChecker) feed(i int, s *model.Step, slot int) *Violation {
	if s.Proc < 1 || int(s.Proc) > c.n {
		return nil
	}
	switch s.Kind {
	case model.KindBroadcastInvoke:
		if c.msgs = growTo(c.msgs, slot); c.msgs[slot].group != 0 {
			return nil
		}
		if c.bcount == nil {
			c.bcount = make([]int, c.n+1)
		}
		a := c.bcount[s.Proc]
		c.bcount[s.Proc]++
		c.msgs[slot].group = a + 1
		c.groups = growTo(c.groups, a)
		c.groups[a].size++
		return c.check(a, i)
	case model.KindDeliver:
		if slot >= len(c.msgs) || c.msgs[slot].group == 0 {
			return nil
		}
		a := c.msgs[slot].group - 1
		if !c.firstWithin(a, s.Proc) {
			return nil
		}
		if !c.msgs[slot].first {
			c.msgs[slot].first = true
			c.groups[a].firsts++
		}
		return c.check(a, i)
	}
	return nil
}

// saTaggedChecker counts, per k-SA identifier, the distinct SA-tagged
// messages delivered first-among-tagged by some process. A message has
// one tag, so one flag per message records whether it counts among its
// object's firsts; the per-object tables stay maps, as k-SA tables do.
type saTaggedChecker struct {
	safety
	name   string
	k, n   int
	msgs   []saMsg // by slot
	seen   map[saSeen]bool
	firsts map[model.KSAID]int
}

// saMsg is one message's state: whether its broadcast has been seen, its
// SA tag if it has one, and whether it counts among that object's firsts.
type saMsg struct {
	bseen, tagged, first bool
	obj                  model.KSAID
}

// saSeen names a process's first tagged delivery on an object.
type saSeen struct {
	p   model.ProcID
	obj model.KSAID
}

func newSATaggedChecker(n, k int, name string) *saTaggedChecker {
	return &saTaggedChecker{name: name, k: k, n: n}
}

func (*saTaggedChecker) kinds() kindSet { return orderKinds }

func (c *saTaggedChecker) feed(i int, s *model.Step, slot int) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		if c.msgs = growTo(c.msgs, slot); c.msgs[slot].bseen {
			return nil
		}
		c.msgs[slot].bseen = true
		if obj, _, ok := ParseSATag(s.Payload); ok {
			c.msgs[slot].tagged, c.msgs[slot].obj = true, obj
		}
	case model.KindDeliver:
		if s.Proc < 1 || int(s.Proc) > c.n || slot >= len(c.msgs) || !c.msgs[slot].tagged {
			return nil
		}
		ms := &c.msgs[slot]
		key := saSeen{s.Proc, ms.obj}
		if c.seen[key] {
			return nil
		}
		if c.seen == nil {
			c.seen = make(map[saSeen]bool)
			c.firsts = make(map[model.KSAID]int)
		}
		c.seen[key] = true
		if !ms.first {
			ms.first = true
			c.firsts[ms.obj]++
		}
		if c.firsts[ms.obj] > c.k {
			return &Violation{Spec: c.name, Property: "SA-Tagged-First-k",
				Detail: fmt.Sprintf("%v: %d distinct SA-tagged messages delivered first, at most %d allowed", ms.obj, c.firsts[ms.obj], c.k), StepIdx: i}
		}
	}
	return nil
}

// mutualChecker detects mutual invisibility online: when a process r
// delivers a message x broadcast by w ≠ r, the delivery can only complete
// the forbidden four-delivery pattern if r already delivered one of its
// own messages o while w delivered its own x strictly before o — a scan
// over r's own-delivered list against w's positions. A message delivered
// before its broadcast is seen carries no attribution yet; the broadcast,
// when it arrives, re-runs the same scan retroactively (delivs remembers
// who first-delivered each message), so late broadcasts cannot hide a
// completed pattern.
type mutualChecker struct {
	safety
	n      int
	msgs   []mutualMsg      // by slot
	dcount procTable[int]   // deliveries per process
	own    procTable[[]int] // slots of the process's own delivered messages
}

// mutualMsg is one message's state: its broadcaster once the broadcast is
// seen, each process's delivery position (1 + the position, 0 when it
// has not delivered), and its first deliverers in order.
type mutualMsg struct {
	m       model.MsgID
	bcaster model.ProcID
	known   bool
	pos     procVec
	delivs  []model.ProcID
}

func newMutualChecker(n int) *mutualChecker {
	return &mutualChecker{n: n}
}

func (c *mutualChecker) violation(i int, r, w model.ProcID, o, x model.MsgID) *Violation {
	return &Violation{Spec: "Mutual-Order", Property: "Mutual",
		Detail: fmt.Sprintf("%v delivers its own m%d before m%d, and %v delivers its own m%d before m%d: the two broadcasts are mutually invisible", r, o, x, w, x, o), StepIdx: i}
}

// ownOf returns p's own delivered messages.
func (c *mutualChecker) ownOf(p model.ProcID) []int {
	if o := c.own.get(p); o != nil {
		return *o
	}
	return nil
}

func (*mutualChecker) kinds() kindSet { return orderKinds }

func (c *mutualChecker) feed(i int, s *model.Step, slot int) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		w := s.Proc
		c.msgs = growTo(c.msgs, slot)
		mx := &c.msgs[slot]
		if mx.known {
			break
		}
		mx.m, mx.bcaster, mx.known = s.Msg, w, true
		wx := mx.pos.get(w)
		if wx == 0 {
			break // w has not delivered x; no pattern can involve x yet
		}
		// x was delivered before this broadcast attributed it: it is now
		// one of w's own messages, and every earlier foreign delivery of x
		// skipped its pattern scan — repeat it here.
		own := c.own.at(c.n, w)
		*own = append(*own, slot)
		for _, r := range mx.delivs {
			if r == w {
				continue
			}
			rx := mx.pos.get(r)
			for _, o := range c.ownOf(r) {
				mo := &c.msgs[o]
				if ro, wo := mo.pos.get(r), mo.pos.get(w); wo != 0 && ro < rx && wx < wo {
					return c.violation(i, r, w, mo.m, s.Msg)
				}
			}
		}
	case model.KindDeliver:
		r := s.Proc
		cnt := c.dcount.at(c.n, r)
		key := *cnt
		*cnt++
		c.msgs = growTo(c.msgs, slot)
		mx := &c.msgs[slot]
		mx.m = s.Msg
		if mx.pos.get(r) != 0 {
			return nil
		}
		w, known := mx.bcaster, mx.known
		if known && w != r {
			if wx := mx.pos.get(w); wx != 0 { // w delivered its own x already
				for _, o := range c.ownOf(r) {
					mo := &c.msgs[o]
					if wo := mo.pos.get(w); wo != 0 && wx < wo {
						return c.violation(i, r, w, mo.m, s.Msg)
					}
				}
			}
		}
		mx.pos.set(c.n, r, key+1)
		mx.delivs = append(mx.delivs, r)
		if known && w == r {
			own := c.own.at(c.n, r)
			*own = append(*own, slot)
		}
	}
	return nil
}

// uniformChecker evaluates BC-Uniform-Termination at finish from the
// retained delivered-by tables, naming the lowest message it fails for.
type uniformChecker struct {
	crashTracker
	msgs      []uniformMsg // by slot
	delivered procSets     // deliveries by p1..pn
}

// uniformMsg is one message's state: whether it was broadcast, and its
// first deliverer among p1..pn (0 when none).
type uniformMsg struct {
	m     model.MsgID
	bcast bool
	by    model.ProcID
}

func newUniformChecker(n int) *uniformChecker {
	return &uniformChecker{crashTracker: newCrashTracker(n)}
}

func (*uniformChecker) kinds() kindSet {
	return kindsOf(model.KindBroadcastInvoke, model.KindDeliver, model.KindCrash)
}

func (c *uniformChecker) feed(_ int, s *model.Step, slot int) *Violation {
	c.observe(s)
	switch s.Kind {
	case model.KindBroadcastInvoke:
		c.msgs = growTo(c.msgs, slot)
		c.msgs[slot].m, c.msgs[slot].bcast = s.Msg, true
	case model.KindDeliver:
		if s.Proc >= 1 && int(s.Proc) <= c.n {
			c.msgs = growTo(c.msgs, slot)
			u := &c.msgs[slot]
			u.m = s.Msg
			if u.by == 0 {
				u.by = s.Proc
			}
			c.delivered.add(slot, s.Proc)
		}
	}
	return nil
}

func (c *uniformChecker) finish(complete bool) *Violation {
	if !complete {
		return nil
	}
	var lost *uniformMsg
	var by model.ProcID
	for j := range c.msgs {
		u := &c.msgs[j]
		if !u.bcast || u.by == 0 || (lost != nil && u.m >= lost.m) {
			continue
		}
		if p := c.undelivered(&c.delivered, j); p != 0 {
			lost, by = u, p
		}
	}
	if u := lost; u != nil {
		return &Violation{Spec: "Uniform-Reliable-Broadcast", Property: "BC-Uniform-Termination",
			Detail: fmt.Sprintf("m%d was B-delivered by %v but correct %v never B-delivers it", u.m, u.by, by), StepIdx: -1}
	}
	return nil
}
