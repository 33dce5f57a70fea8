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

// fifoChecker keeps one cursor per (receiver, sender) pair — the number
// of the sender's messages the receiver has delivered, which must advance
// in broadcast order with no gaps.
type fifoChecker struct {
	safety
	seq          map[model.MsgID]fifoSlot
	counts       map[model.ProcID]int
	deliveredIdx map[model.ProcID]map[model.ProcID]int
}

type fifoSlot struct {
	from model.ProcID
	idx  int
}

func newFIFOChecker() *fifoChecker {
	return &fifoChecker{
		seq:          make(map[model.MsgID]fifoSlot),
		counts:       make(map[model.ProcID]int),
		deliveredIdx: make(map[model.ProcID]map[model.ProcID]int),
	}
}

func (c *fifoChecker) feed(i int, s *model.Step) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		c.seq[s.Msg] = fifoSlot{from: s.Proc, idx: c.counts[s.Proc]}
		c.counts[s.Proc]++
	case model.KindDeliver:
		sl, ok := c.seq[s.Msg]
		if !ok {
			return nil // BC-Validity's concern, not FIFO's
		}
		dm := c.deliveredIdx[s.Proc]
		if dm == nil {
			dm = make(map[model.ProcID]int)
			c.deliveredIdx[s.Proc] = dm
		}
		if want := dm[sl.from]; sl.idx != want {
			return &Violation{Spec: "FIFO-Order", Property: "FIFO",
				Detail: fmt.Sprintf("%v delivers m%d (message #%d of %v) but has delivered only %d of %v's earlier messages", s.Proc, s.Msg, sl.idx+1, sl.from, want, sl.from), StepIdx: i}
		}
		dm[sl.from]++
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
type causalChecker struct {
	safety
	bseq map[model.ProcID][]causalBcast
	meta map[model.MsgID]*causalMsg
	// hist[p][q] = length of the prefix of q's broadcasts in p's causal
	// history; histUnknown[p] = never-broadcast messages in that history.
	hist        map[model.ProcID]map[model.ProcID]int
	histUnknown map[model.ProcID]map[model.MsgID]bool
	// prefix[p][q] = length of the contiguous prefix of q's broadcasts p
	// has delivered; ooo[p][q] = delivered broadcast ordinals beyond it.
	prefix           map[model.ProcID]map[model.ProcID]int
	ooo              map[model.ProcID]map[model.ProcID]map[int]bool
	deliveredUnknown map[model.ProcID]map[model.MsgID]bool
}

type causalMsg struct {
	sender  model.ProcID
	seq     int
	vc      map[model.ProcID]int
	unknown []model.MsgID // ascending
}

// causalBcast is one broadcast in its sender's sequence, and the index of
// its step.
type causalBcast struct {
	m  model.MsgID
	at int
}

func newCausalChecker() *causalChecker {
	return &causalChecker{
		bseq:             make(map[model.ProcID][]causalBcast),
		meta:             make(map[model.MsgID]*causalMsg),
		hist:             make(map[model.ProcID]map[model.ProcID]int),
		histUnknown:      make(map[model.ProcID]map[model.MsgID]bool),
		prefix:           make(map[model.ProcID]map[model.ProcID]int),
		ooo:              make(map[model.ProcID]map[model.ProcID]map[int]bool),
		deliveredUnknown: make(map[model.ProcID]map[model.MsgID]bool),
	}
}

func (c *causalChecker) hasDelivered(p model.ProcID, m model.MsgID) bool {
	if c.deliveredUnknown[p][m] {
		return true
	}
	mm := c.meta[m]
	if mm == nil {
		return false
	}
	if mm.seq < c.prefix[p][mm.sender] {
		return true
	}
	return c.ooo[p][mm.sender][mm.seq]
}

// missing returns a message of mm's causal past that p has not
// delivered: the one broadcast first, else the lowest never-broadcast one.
func (c *causalChecker) missing(p model.ProcID, mm *causalMsg) (model.MsgID, bool) {
	first := causalBcast{at: -1}
	pre := c.prefix[p]
	for q, need := range mm.vc {
		// Per sender, the first gap is the missing message broadcast first.
		for j := pre[q]; j < need; j++ {
			if !c.ooo[p][q][j] {
				if b := c.bseq[q][j]; first.at < 0 || b.at < first.at {
					first = b
				}
				break
			}
		}
	}
	if first.at >= 0 {
		return first.m, true
	}
	for _, u := range mm.unknown {
		if !c.hasDelivered(p, u) {
			return u, true
		}
	}
	return 0, false
}

func (c *causalChecker) feed(i int, s *model.Step) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		p := s.Proc
		seq := len(c.bseq[p])
		vc := make(map[model.ProcID]int, len(c.hist[p]))
		for q, l := range c.hist[p] {
			vc[q] = l
		}
		var unk []model.MsgID
		if len(c.histUnknown[p]) > 0 {
			unk = sortedKeys(c.histUnknown[p])
		}
		c.meta[s.Msg] = &causalMsg{sender: p, seq: seq, vc: vc, unknown: unk}
		c.bseq[p] = append(c.bseq[p], causalBcast{m: s.Msg, at: i})
		if c.hist[p] == nil {
			c.hist[p] = make(map[model.ProcID]int)
		}
		c.hist[p][p] = seq + 1
	case model.KindDeliver:
		p := s.Proc
		mm := c.meta[s.Msg]
		if mm == nil {
			// Never broadcast: no causal past to check (matching the
			// reference predicate); it still joins p's delivered set and
			// causal history.
			if c.deliveredUnknown[p] == nil {
				c.deliveredUnknown[p] = make(map[model.MsgID]bool)
			}
			c.deliveredUnknown[p][s.Msg] = true
			if c.histUnknown[p] == nil {
				c.histUnknown[p] = make(map[model.MsgID]bool)
			}
			c.histUnknown[p][s.Msg] = true
			return nil
		}
		// Every message in m's causal past must already be delivered at p.
		if pred, ok := c.missing(p, mm); ok {
			return &Violation{Spec: "Causal-Order", Property: "Causal",
				Detail: fmt.Sprintf("%v delivers m%d before its causal predecessor m%d", p, s.Msg, pred), StepIdx: i}
		}
		// Record the delivery in the prefix/out-of-order structure.
		pre := c.prefix[p]
		if pre == nil {
			pre = make(map[model.ProcID]int)
			c.prefix[p] = pre
		}
		switch {
		case mm.seq == pre[mm.sender]:
			pre[mm.sender]++
			buf := c.ooo[p][mm.sender]
			for buf[pre[mm.sender]] {
				delete(buf, pre[mm.sender])
				pre[mm.sender]++
			}
		case mm.seq > pre[mm.sender]:
			if c.ooo[p] == nil {
				c.ooo[p] = make(map[model.ProcID]map[int]bool)
			}
			if c.ooo[p][mm.sender] == nil {
				c.ooo[p][mm.sender] = make(map[int]bool)
			}
			c.ooo[p][mm.sender][mm.seq] = true
		}
		// The delivered message and its past join p's causal history.
		h := c.hist[p]
		if h == nil {
			h = make(map[model.ProcID]int)
			c.hist[p] = h
		}
		for q, l := range mm.vc {
			if l > h[q] {
				h[q] = l
			}
		}
		if mm.seq+1 > h[mm.sender] {
			h[mm.sender] = mm.seq + 1
		}
		if len(mm.unknown) > 0 {
			if c.histUnknown[p] == nil {
				c.histUnknown[p] = make(map[model.MsgID]bool)
			}
			for _, u := range mm.unknown {
				c.histUnknown[p][u] = true
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
type orderTracker struct {
	pairs map[pairPQ]*orderPair
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
		pk, sp, sq := pairPQ{p, q}, 0, 1
		if q < p {
			pk, sp, sq = pairPQ{q, p}, 1, 0
		}
		pr := t.pairs[pk]
		if pr == nil {
			pr = &orderPair{}
			t.pairs[pk] = pr
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
// Its state is dense: each MsgID is interned once into a slot, so a step
// costs one map lookup, and the slot holds the message's first deliveries
// in ascending process order — parked ones included, so the broadcast
// releases them in that order without a sort. Per-process counters grow
// with the largest process that delivers, and pair state is made on first
// use, so nothing is sized by n, or n², up front.
type conflictStream struct {
	n int
	// scd selects delivered-set ordinal keys (batchIndex semantics: the
	// ordinal advances on every delivery whose Batch tag is zero or
	// differs from the previous delivery's).
	scd   bool
	trk   orderTracker
	ids   map[model.MsgID]int
	msgs  []msgSlot
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
	return &conflictStream{
		n:   n,
		scd: scd,
		trk: orderTracker{pairs: make(map[pairPQ]*orderPair)},
		ids: make(map[model.MsgID]int),
	}
}

// slot returns m's slot, interning m on first sight.
func (f *conflictStream) slot(m model.MsgID) *msgSlot {
	i, ok := f.ids[m]
	if !ok {
		i = len(f.msgs)
		f.ids[m] = i
		f.msgs = append(f.msgs, msgSlot{})
	}
	return &f.msgs[i]
}

// key assigns the order key of p's next delivery.
func (f *conflictStream) key(p model.ProcID, batch int64) int {
	if int(p) >= len(f.procs) {
		f.procs = append(f.procs, make([]streamProc, int(p)+1-len(f.procs))...)
	}
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

// step consumes one step and returns the new conflicts it creates.
func (f *conflictStream) step(s *model.Step) []conflict {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		ms := f.slot(s.Msg)
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
		ms := f.slot(s.Msg)
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

func (c *totalOrderChecker) feed(i int, s *model.Step) *Violation {
	if cf := c.cs.step(s); len(cf) > 0 {
		x := cf[0]
		return &Violation{Spec: "Total-Order", Property: "Total-Order",
			Detail: fmt.Sprintf("%v delivers m%d before m%d but %v delivers m%d before m%d", x.p, x.a, x.b, x.q, x.b, x.a), StepIdx: i}
	}
	return nil
}

// cliqueChecker is the shared streaming core of k-BO and k-SCD: it
// accumulates conflict edges and, on each new edge, searches for a
// (k+1)-clique containing that edge among the endpoints' common
// neighbors, under the shared exploration budget.
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
		adj:      make(map[model.MsgID]map[model.MsgID]bool),
		budget:   budget,
	}
}

func (c *cliqueChecker) feed(i int, s *model.Step) *Violation {
	for _, cf := range c.cs.step(s) {
		if c.adj[cf.a][cf.b] {
			continue
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
	firstSeen []bool
	firsts    map[model.MsgID]bool
}

func newFirstKChecker(n, k int, name string) *firstKChecker {
	return &firstKChecker{
		name:      name,
		k:         k,
		n:         n,
		firstSeen: make([]bool, n+1),
		firsts:    make(map[model.MsgID]bool),
	}
}

func (c *firstKChecker) feed(i int, s *model.Step) *Violation {
	if s.Kind != model.KindDeliver || s.Proc < 1 || int(s.Proc) > c.n {
		return nil
	}
	if c.firstSeen[s.Proc] {
		return nil
	}
	c.firstSeen[s.Proc] = true
	c.firsts[s.Msg] = true
	if len(c.firsts) > c.k {
		return &Violation{Spec: c.name, Property: "First-k",
			Detail: fmt.Sprintf("%d distinct messages delivered first, at most %d allowed", len(c.firsts), c.k), StepIdx: i}
	}
	return nil
}

// ksteppedChecker tracks, per broadcast ordinal a, the size of the group
// S_a and the set of S_a messages delivered first-within-S_a by some
// process. Both counts only grow, so the latched verdict equals the
// reference verdict on every trace where broadcasts precede deliveries.
type ksteppedChecker struct {
	safety
	name        string
	k, n        int
	bcount      []int
	groupOf     map[model.MsgID]int
	groupSize   map[int]int
	firstSa     []map[int]bool
	groupFirsts map[int]map[model.MsgID]bool
}

func newKSteppedChecker(n, k int, name string) *ksteppedChecker {
	c := &ksteppedChecker{
		name:        name,
		k:           k,
		n:           n,
		bcount:      make([]int, n+1),
		groupOf:     make(map[model.MsgID]int),
		groupSize:   make(map[int]int),
		firstSa:     make([]map[int]bool, n+1),
		groupFirsts: make(map[int]map[model.MsgID]bool),
	}
	for p := 1; p <= n; p++ {
		c.firstSa[p] = make(map[int]bool)
	}
	return c
}

func (c *ksteppedChecker) check(a, i int) *Violation {
	if c.groupSize[a] <= c.k || len(c.groupFirsts[a]) <= c.k {
		return nil
	}
	return &Violation{Spec: c.name, Property: "k-Stepped",
		Detail: fmt.Sprintf("step %d: %d distinct messages of S_%d delivered first within S_%d, at most %d allowed", a+1, len(c.groupFirsts[a]), a+1, a+1, c.k), StepIdx: i}
}

func (c *ksteppedChecker) feed(i int, s *model.Step) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		if s.Proc < 1 || int(s.Proc) > c.n {
			return nil
		}
		if _, dup := c.groupOf[s.Msg]; dup {
			return nil
		}
		a := c.bcount[s.Proc]
		c.bcount[s.Proc]++
		c.groupOf[s.Msg] = a
		c.groupSize[a]++
		return c.check(a, i)
	case model.KindDeliver:
		if s.Proc < 1 || int(s.Proc) > c.n {
			return nil
		}
		a, ok := c.groupOf[s.Msg]
		if !ok {
			return nil
		}
		if c.firstSa[s.Proc][a] {
			return nil
		}
		c.firstSa[s.Proc][a] = true
		if c.groupFirsts[a] == nil {
			c.groupFirsts[a] = make(map[model.MsgID]bool)
		}
		c.groupFirsts[a][s.Msg] = true
		return c.check(a, i)
	}
	return nil
}

// saTaggedChecker counts, per k-SA identifier, the distinct SA-tagged
// messages delivered first-among-tagged by some process.
type saTaggedChecker struct {
	safety
	name    string
	k, n    int
	bseen   map[model.MsgID]bool
	tagged  map[model.MsgID]model.KSAID
	seenObj []map[model.KSAID]bool
	firsts  map[model.KSAID]map[model.MsgID]bool
}

func newSATaggedChecker(n, k int, name string) *saTaggedChecker {
	c := &saTaggedChecker{
		name:    name,
		k:       k,
		n:       n,
		bseen:   make(map[model.MsgID]bool),
		tagged:  make(map[model.MsgID]model.KSAID),
		seenObj: make([]map[model.KSAID]bool, n+1),
		firsts:  make(map[model.KSAID]map[model.MsgID]bool),
	}
	for p := 1; p <= n; p++ {
		c.seenObj[p] = make(map[model.KSAID]bool)
	}
	return c
}

func (c *saTaggedChecker) feed(i int, s *model.Step) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		if c.bseen[s.Msg] {
			return nil
		}
		c.bseen[s.Msg] = true
		if obj, _, ok := ParseSATag(s.Payload); ok {
			c.tagged[s.Msg] = obj
		}
	case model.KindDeliver:
		if s.Proc < 1 || int(s.Proc) > c.n {
			return nil
		}
		obj, ok := c.tagged[s.Msg]
		if !ok {
			return nil
		}
		if c.seenObj[s.Proc][obj] {
			return nil
		}
		c.seenObj[s.Proc][obj] = true
		if c.firsts[obj] == nil {
			c.firsts[obj] = make(map[model.MsgID]bool)
		}
		c.firsts[obj][s.Msg] = true
		if len(c.firsts[obj]) > c.k {
			return &Violation{Spec: c.name, Property: "SA-Tagged-First-k",
				Detail: fmt.Sprintf("%v: %d distinct SA-tagged messages delivered first, at most %d allowed", obj, len(c.firsts[obj]), c.k), StepIdx: i}
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
	bcaster map[model.MsgID]model.ProcID
	dcount  map[model.ProcID]int
	pos     map[model.ProcID]map[model.MsgID]int
	own     map[model.ProcID][]model.MsgID
	delivs  map[model.MsgID][]model.ProcID
}

func newMutualChecker() *mutualChecker {
	return &mutualChecker{
		bcaster: make(map[model.MsgID]model.ProcID),
		dcount:  make(map[model.ProcID]int),
		pos:     make(map[model.ProcID]map[model.MsgID]int),
		own:     make(map[model.ProcID][]model.MsgID),
		delivs:  make(map[model.MsgID][]model.ProcID),
	}
}

func (c *mutualChecker) feed(i int, s *model.Step) *Violation {
	switch s.Kind {
	case model.KindBroadcastInvoke:
		w, x := s.Proc, s.Msg
		if _, dup := c.bcaster[x]; dup {
			break
		}
		c.bcaster[x] = w
		wx, ok := c.pos[w][x]
		if !ok {
			break // w has not delivered x; no pattern can involve x yet
		}
		// x was delivered before this broadcast attributed it: it is now
		// one of w's own messages, and every earlier foreign delivery of x
		// skipped its pattern scan — repeat it here.
		c.own[w] = append(c.own[w], x)
		for _, r := range c.delivs[x] {
			if r == w {
				continue
			}
			rx := c.pos[r][x]
			for _, o := range c.own[r] {
				ro := c.pos[r][o]
				if wo, ok2 := c.pos[w][o]; ok2 && ro < rx && wx < wo {
					return &Violation{Spec: "Mutual-Order", Property: "Mutual",
						Detail: fmt.Sprintf("%v delivers its own m%d before m%d, and %v delivers its own m%d before m%d: the two broadcasts are mutually invisible", r, o, x, w, x, o), StepIdx: i}
				}
			}
		}
	case model.KindDeliver:
		r, x := s.Proc, s.Msg
		key := c.dcount[r]
		c.dcount[r]++
		pm := c.pos[r]
		if pm == nil {
			pm = make(map[model.MsgID]int)
			c.pos[r] = pm
		}
		if _, dup := pm[x]; dup {
			return nil
		}
		w, known := c.bcaster[x]
		if known && w != r {
			wpos := c.pos[w]
			if wx, ok := wpos[x]; ok { // w delivered its own x already
				for _, o := range c.own[r] {
					if wo, ok2 := wpos[o]; ok2 && wx < wo {
						return &Violation{Spec: "Mutual-Order", Property: "Mutual",
							Detail: fmt.Sprintf("%v delivers its own m%d before m%d, and %v delivers its own m%d before m%d: the two broadcasts are mutually invisible", r, o, x, w, x, o), StepIdx: i}
					}
				}
			}
		}
		pm[x] = key
		c.delivs[x] = append(c.delivs[x], r)
		if known && w == r {
			c.own[r] = append(c.own[r], x)
		}
	}
	return nil
}

// uniformChecker evaluates BC-Uniform-Termination at finish from the
// retained delivered-by tables, naming the lowest message it fails for.
type uniformChecker struct {
	crashTracker
	bcast       map[model.MsgID]bool
	deliveredBy map[model.MsgID]model.ProcID
	delivered   map[model.ProcID]map[model.MsgID]bool
}

func newUniformChecker(n int) *uniformChecker {
	return &uniformChecker{
		crashTracker: newCrashTracker(n),
		bcast:        make(map[model.MsgID]bool),
		deliveredBy:  make(map[model.MsgID]model.ProcID),
		delivered:    make(map[model.ProcID]map[model.MsgID]bool),
	}
}

func (c *uniformChecker) feed(_ int, s *model.Step) *Violation {
	c.observe(s)
	switch s.Kind {
	case model.KindBroadcastInvoke:
		c.bcast[s.Msg] = true
	case model.KindDeliver:
		if s.Proc >= 1 && int(s.Proc) <= c.n {
			if _, ok := c.deliveredBy[s.Msg]; !ok {
				c.deliveredBy[s.Msg] = s.Proc
			}
			dm := c.delivered[s.Proc]
			if dm == nil {
				dm = make(map[model.MsgID]bool)
				c.delivered[s.Proc] = dm
			}
			dm[s.Msg] = true
		}
	}
	return nil
}

func (c *uniformChecker) finish(complete bool) *Violation {
	if !complete {
		return nil
	}
	for _, m := range sortedKeys(c.bcast) {
		by, ok := c.deliveredBy[m]
		if !ok {
			continue
		}
		for pn := 1; pn <= c.n; pn++ {
			pid := model.ProcID(pn)
			if !c.correct(pid) {
				continue
			}
			if !c.delivered[pid][m] {
				return &Violation{Spec: "Uniform-Reliable-Broadcast", Property: "BC-Uniform-Termination",
					Detail: fmt.Sprintf("m%d was B-delivered by %v but correct %v never B-delivers it", m, by, pid), StepIdx: -1}
			}
		}
	}
	return nil
}
