package spec

import (
	"fmt"
	"sort"
	"strings"

	"nobroadcast/internal/model"
	"nobroadcast/internal/trace"
)

// This file keeps the whole-trace reference predicates: one per leaf,
// written as naive scans over the finished trace (the causal check is
// quadratic in the prefix) so the differential tests can pin the leaf
// checkers against an independent, obviously-correct implementation.
// referenceLeaves maps each leaf key to its predicate, and checkReference
// applies a spec's leaves in declaration order, the rule Spec.Check
// follows.

// referenceLeaves maps every leaf key, at degrees k = 1..maxRefK, to its
// reference predicate.
var referenceLeaves = func() map[string]func(*trace.Trace) *Violation {
	refs := map[string]func(*trace.Trace) *Violation{
		"Well-Formed":                checkWellFormed,
		"SR-Channels":                checkChannels,
		"Basic-Broadcast":            checkBasicBroadcast,
		"FIFO-Order":                 checkFIFO,
		"Causal-Order":               checkCausal,
		"Total-Order":                checkTotalOrder,
		"Mutual-Order":               checkMutualOrder,
		"SCD-Order":                  checkSCD,
		"Uniform-Reliable-Broadcast": checkUniformTermination,
	}
	for k := 1; k <= maxRefK; k++ {
		refs[fmt.Sprintf("%d-SA", k)] = func(t *trace.Trace) *Violation { return checkKSA(t, k) }
		refs[fmt.Sprintf("%d-BO-Order", k)] = func(t *trace.Trace) *Violation { return checkKBO(t, k) }
		refs[fmt.Sprintf("First-%d-Order", k)] = func(t *trace.Trace) *Violation { return checkFirstK(t, k) }
		refs[fmt.Sprintf("%d-Stepped-Order", k)] = func(t *trace.Trace) *Violation { return checkKStepped(t, k) }
		refs[fmt.Sprintf("SA-Tagged-%d-Order", k)] = func(t *trace.Trace) *Violation { return checkSATagged(t, k) }
		refs[fmt.Sprintf("%d-SCD-Order", k)] = func(t *trace.Trace) *Violation { return checkKSCD(t, k) }
	}
	return refs
}()

const maxRefK = 6

// checkReference is s's verdict under the reference predicates: its
// leaves' references in declaration order, the first violation blamed.
func checkReference(s Spec, t *trace.Trace) *Violation {
	for _, l := range s.leaves {
		ref, ok := referenceLeaves[l.key]
		if !ok {
			panic("spec: no reference predicate for leaf " + l.key)
		}
		if v := ref(t); v != nil {
			return v
		}
	}
	return nil
}

func checkWellFormed(t *trace.Trace) *Violation {
	x := t.X
	crashed := make(map[model.ProcID]bool)
	inFlight := make(map[model.ProcID]model.MsgID) // proc -> msg of open broadcast invocation
	open := make(map[model.ProcID]bool)
	for i, s := range x.Steps {
		if s.Proc < 1 || int(s.Proc) > x.N {
			return &Violation{Spec: "Well-Formed", Property: "Participants",
				Detail: fmt.Sprintf("step by %v outside p1..p%d", s.Proc, x.N), StepIdx: i}
		}
		if crashed[s.Proc] {
			return &Violation{Spec: "Well-Formed", Property: "Crash-Finality",
				Detail: fmt.Sprintf("%v takes a step after crashing", s.Proc), StepIdx: i}
		}
		switch s.Kind {
		case model.KindCrash:
			crashed[s.Proc] = true
		case model.KindBroadcastInvoke:
			if open[s.Proc] {
				return &Violation{Spec: "Well-Formed", Property: "Invocation-Alternation",
					Detail: fmt.Sprintf("%v invokes B.broadcast(m%d) before returning from B.broadcast(m%d)", s.Proc, s.Msg, inFlight[s.Proc]), StepIdx: i}
			}
			open[s.Proc] = true
			inFlight[s.Proc] = s.Msg
		case model.KindBroadcastReturn:
			if !open[s.Proc] {
				return &Violation{Spec: "Well-Formed", Property: "Invocation-Alternation",
					Detail: fmt.Sprintf("%v returns from B.broadcast(m%d) without an open invocation", s.Proc, s.Msg), StepIdx: i}
			}
			if inFlight[s.Proc] != s.Msg {
				return &Violation{Spec: "Well-Formed", Property: "Invocation-Alternation",
					Detail: fmt.Sprintf("%v returns from B.broadcast(m%d), but the open invocation is m%d", s.Proc, s.Msg, inFlight[s.Proc]), StepIdx: i}
			}
			open[s.Proc] = false
		}
	}
	return nil
}

func checkBasicBroadcast(t *trace.Trace) *Violation {
	x := t.X

	// BC-Validity: if p B-delivers m from q, then q previously B-broadcast
	// m. "Previously" is positional: the invocation appears earlier.
	broadcast := make(map[model.MsgID]model.ProcID)
	payloadAt := make(map[model.MsgID]model.Payload)
	delivered := make(map[model.ProcID]map[model.MsgID]bool)
	for i, s := range x.Steps {
		switch s.Kind {
		case model.KindBroadcastInvoke:
			if from, dup := broadcast[s.Msg]; dup {
				return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
					Detail: fmt.Sprintf("message m%d broadcast twice (by %v and %v); broadcast messages are unique", s.Msg, from, s.Proc), StepIdx: i}
			}
			broadcast[s.Msg] = s.Proc
			payloadAt[s.Msg] = s.Payload
		case model.KindDeliver:
			from, ok := broadcast[s.Msg]
			if !ok {
				return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
					Detail: fmt.Sprintf("%v B-delivers m%d from %v, never broadcast", s.Proc, s.Msg, s.Peer), StepIdx: i}
			}
			if from != s.Peer {
				return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
					Detail: fmt.Sprintf("%v B-delivers m%d from %v, but m%d was broadcast by %v", s.Proc, s.Msg, s.Peer, s.Msg, from), StepIdx: i}
			}
			if got, want := s.Payload, payloadAt[s.Msg]; got != want {
				return &Violation{Spec: "Basic-Broadcast", Property: "BC-Validity",
					Detail: fmt.Sprintf("%v B-delivers m%d with content %q, broadcast with %q", s.Proc, s.Msg, got, want), StepIdx: i}
			}
			// BC-No-Duplication: a process does not B-deliver the same
			// message more than once.
			dm := delivered[s.Proc]
			if dm == nil {
				dm = make(map[model.MsgID]bool)
				delivered[s.Proc] = dm
			}
			if dm[s.Msg] {
				return &Violation{Spec: "Basic-Broadcast", Property: "BC-No-Duplication",
					Detail: fmt.Sprintf("%v B-delivers m%d twice", s.Proc, s.Msg), StepIdx: i}
			}
			dm[s.Msg] = true
		}
	}

	if !t.Complete {
		return nil
	}
	correct := x.CorrectSet()
	ix := t.Index()

	// BC-Local-Termination: a correct process's broadcast invocation
	// eventually returns.
	for m, info := range ix.Broadcasts {
		if correct[info.From] && info.Returned < 0 {
			return &Violation{Spec: "Basic-Broadcast", Property: "BC-Local-Termination",
				Detail: fmt.Sprintf("correct %v never returns from B.broadcast(m%d)", info.From, m), StepIdx: info.StepIdx}
		}
	}

	// BC-Global-CS-Termination: a message B-broadcast by a correct process
	// is eventually B-delivered by all correct processes.
	for m, info := range ix.Broadcasts {
		if !correct[info.From] {
			continue
		}
		for p := 1; p <= x.N; p++ {
			pid := model.ProcID(p)
			if !correct[pid] {
				continue
			}
			if _, ok := ix.DeliveryPos[pid][m]; !ok {
				return &Violation{Spec: "Basic-Broadcast", Property: "BC-Global-CS-Termination",
					Detail: fmt.Sprintf("m%d broadcast by correct %v never B-delivered by correct %v", m, info.From, pid), StepIdx: -1}
			}
		}
	}
	return nil
}

func checkKSA(t *trace.Trace, k int) *Violation {
	name := fmt.Sprintf("%d-SA", k)
	x := t.X

	proposed := make(map[model.KSAID]map[model.ProcID]model.Value)
	valuesProposed := make(map[model.KSAID]map[model.Value]bool)
	decided := make(map[model.KSAID]map[model.ProcID]model.Value)
	distinct := make(map[model.KSAID]map[model.Value]bool)
	for i, s := range x.Steps {
		switch s.Kind {
		case model.KindPropose:
			pm := proposed[s.Obj]
			if pm == nil {
				pm = make(map[model.ProcID]model.Value)
				proposed[s.Obj] = pm
				valuesProposed[s.Obj] = make(map[model.Value]bool)
			}
			if _, dup := pm[s.Proc]; dup {
				return &Violation{Spec: name, Property: "One-Shot",
					Detail: fmt.Sprintf("%v proposes twice on %v", s.Proc, s.Obj), StepIdx: i}
			}
			pm[s.Proc] = s.Val
			valuesProposed[s.Obj][s.Val] = true
		case model.KindDecide:
			if _, ok := proposed[s.Obj][s.Proc]; !ok {
				return &Violation{Spec: name, Property: "k-SA-Validity",
					Detail: fmt.Sprintf("%v decides on %v without proposing", s.Proc, s.Obj), StepIdx: i}
			}
			if !valuesProposed[s.Obj][s.Val] {
				return &Violation{Spec: name, Property: "k-SA-Validity",
					Detail: fmt.Sprintf("%v decides %q on %v, never proposed", s.Proc, s.Val, s.Obj), StepIdx: i}
			}
			dm := decided[s.Obj]
			if dm == nil {
				dm = make(map[model.ProcID]model.Value)
				decided[s.Obj] = dm
				distinct[s.Obj] = make(map[model.Value]bool)
			}
			if _, dup := dm[s.Proc]; dup {
				return &Violation{Spec: name, Property: "One-Shot",
					Detail: fmt.Sprintf("%v decides twice on %v", s.Proc, s.Obj), StepIdx: i}
			}
			dm[s.Proc] = s.Val
			distinct[s.Obj][s.Val] = true
			if len(distinct[s.Obj]) > k {
				return &Violation{Spec: name, Property: "k-SA-Agreement",
					Detail: fmt.Sprintf("%d distinct values decided on %v, at most %d allowed", len(distinct[s.Obj]), s.Obj, k), StepIdx: i}
			}
		}
	}

	if !t.Complete {
		return nil
	}
	correct := x.CorrectSet()
	for obj, pm := range proposed {
		for p := range pm {
			if !correct[p] {
				continue
			}
			if _, ok := decided[obj][p]; !ok {
				return &Violation{Spec: name, Property: "k-SA-Termination",
					Detail: fmt.Sprintf("correct %v proposed on %v but never decides", p, obj), StepIdx: -1}
			}
		}
	}
	return nil
}

func checkChannels(t *trace.Trace) *Violation {
	x := t.X

	// SR-Validity: a receive of message instance m from p_s at p_r must be
	// preceded by a send of m by p_s to p_r.
	type dest struct {
		from, to model.ProcID
	}
	sent := make(map[model.MsgID]dest)
	receivedBy := make(map[model.MsgID]map[model.ProcID]int) // msg -> receiver -> count
	for i, s := range x.Steps {
		switch s.Kind {
		case model.KindSend:
			if _, dup := sent[s.Msg]; dup {
				// Message instances are unique; reusing an instance id on
				// a second send is a recording error surfaced as a
				// validity violation.
				return &Violation{Spec: "SR-Channels", Property: "SR-Validity",
					Detail: fmt.Sprintf("message instance m%d sent twice", s.Msg), StepIdx: i}
			}
			sent[s.Msg] = dest{from: s.Proc, to: s.Peer}
		case model.KindReceive:
			d, ok := sent[s.Msg]
			if !ok {
				return &Violation{Spec: "SR-Channels", Property: "SR-Validity",
					Detail: fmt.Sprintf("%v receives m%d from %v, never sent", s.Proc, s.Msg, s.Peer), StepIdx: i}
			}
			if d.from != s.Peer || d.to != s.Proc {
				return &Violation{Spec: "SR-Channels", Property: "SR-Validity",
					Detail: fmt.Sprintf("%v receives m%d from %v, but m%d was sent by %v to %v", s.Proc, s.Msg, s.Peer, s.Msg, d.from, d.to), StepIdx: i}
			}
			m := receivedBy[s.Msg]
			if m == nil {
				m = make(map[model.ProcID]int)
				receivedBy[s.Msg] = m
			}
			m[s.Proc]++
			// SR-No-Duplication: no process receives the same message
			// more than once.
			if m[s.Proc] > 1 {
				return &Violation{Spec: "SR-Channels", Property: "SR-No-Duplication",
					Detail: fmt.Sprintf("%v receives m%d twice", s.Proc, s.Msg), StepIdx: i}
			}
		}
	}

	// SR-Termination: on complete traces, every message sent to a correct
	// process is received.
	if t.Complete {
		correct := x.CorrectSet()
		for m, d := range sent {
			if !correct[d.to] {
				continue
			}
			if receivedBy[m][d.to] == 0 {
				return &Violation{Spec: "SR-Channels", Property: "SR-Termination",
					Detail: fmt.Sprintf("m%d sent by %v to correct %v never received", m, d.from, d.to), StepIdx: -1}
			}
		}
	}
	return nil
}

func checkUniformTermination(t *trace.Trace) *Violation {
	if !t.Complete {
		return nil
	}
	x := t.X
	correct := x.CorrectSet()
	ix := t.Index()
	for m := range ix.Broadcasts {
		deliveredSomewhere := model.NoProc
		for pn := 1; pn <= x.N; pn++ {
			if _, ok := ix.DeliveryPos[model.ProcID(pn)][m]; ok {
				deliveredSomewhere = model.ProcID(pn)
				break
			}
		}
		if deliveredSomewhere == model.NoProc {
			continue
		}
		for pn := 1; pn <= x.N; pn++ {
			pid := model.ProcID(pn)
			if !correct[pid] {
				continue
			}
			if _, ok := ix.DeliveryPos[pid][m]; !ok {
				return &Violation{Spec: "Uniform-Reliable-Broadcast", Property: "BC-Uniform-Termination",
					Detail: fmt.Sprintf("m%d was B-delivered by %v but correct %v never B-delivers it", m, deliveredSomewhere, pid), StepIdx: -1}
			}
		}
	}
	return nil
}

func checkMutualOrder(t *trace.Trace) *Violation {
	ix := t.Index()
	msgs := ix.MessagesSorted()
	for i := 0; i < len(msgs); i++ {
		for j := i + 1; j < len(msgs); j++ {
			m, m2 := msgs[i], msgs[j]
			p := ix.Broadcasts[m].From
			q := ix.Broadcasts[m2].From
			if p == q {
				continue
			}
			pPos := ix.DeliveryPos[p]
			qPos := ix.DeliveryPos[q]
			pm, ok1 := pPos[m]
			pm2, ok2 := pPos[m2]
			qm2, ok3 := qPos[m2]
			qm, ok4 := qPos[m]
			if ok1 && ok2 && ok3 && ok4 && pm < pm2 && qm2 < qm {
				return &Violation{Spec: "Mutual-Order", Property: "Mutual",
					Detail: fmt.Sprintf("%v delivers its own m%d before m%d, and %v delivers its own m%d before m%d: the two broadcasts are mutually invisible", p, m, m2, q, m2, m), StepIdx: -1}
			}
		}
	}
	return nil
}

func checkFIFO(t *trace.Trace) *Violation {
	x := t.X
	// seq[m] = (sender, index of m in sender's broadcast sequence).
	type slot struct {
		from model.ProcID
		idx  int
	}
	seq := make(map[model.MsgID]slot)
	counts := make(map[model.ProcID]int)
	// deliveredCount[p][sender] = number of sender's messages p delivered,
	// which must advance in broadcast order with no gaps.
	deliveredIdx := make(map[model.ProcID]map[model.ProcID]int)
	bseq := make(map[model.ProcID][]model.MsgID)
	for i, s := range x.Steps {
		switch s.Kind {
		case model.KindBroadcastInvoke:
			seq[s.Msg] = slot{from: s.Proc, idx: counts[s.Proc]}
			counts[s.Proc]++
			bseq[s.Proc] = append(bseq[s.Proc], s.Msg)
		case model.KindDeliver:
			sl, ok := seq[s.Msg]
			if !ok {
				continue // BC-Validity's concern, not FIFO's
			}
			dm := deliveredIdx[s.Proc]
			if dm == nil {
				dm = make(map[model.ProcID]int)
				deliveredIdx[s.Proc] = dm
			}
			if want := dm[sl.from]; sl.idx != want {
				return &Violation{Spec: "FIFO-Order", Property: "FIFO",
					Detail: fmt.Sprintf("%v delivers m%d (message #%d of %v) but has delivered only %d of %v's earlier messages", s.Proc, s.Msg, sl.idx+1, sl.from, want, sl.from), StepIdx: i}
			}
			dm[sl.from]++
		}
	}
	return nil
}

func checkCausal(t *trace.Trace) *Violation {
	x := t.X
	// past[m] = set of messages whose broadcast happened-before m's.
	past := make(map[model.MsgID]map[model.MsgID]bool)
	// procPast[p] = messages p has broadcast or delivered so far (its
	// causal history of broadcast events).
	procPast := make(map[model.ProcID]map[model.MsgID]bool)
	delivered := make(map[model.ProcID]map[model.MsgID]bool)
	addAll := func(dst, src map[model.MsgID]bool) {
		for m := range src {
			dst[m] = true
		}
	}
	for i, s := range x.Steps {
		switch s.Kind {
		case model.KindBroadcastInvoke:
			pp := procPast[s.Proc]
			if pp == nil {
				pp = make(map[model.MsgID]bool)
				procPast[s.Proc] = pp
			}
			mp := make(map[model.MsgID]bool, len(pp))
			addAll(mp, pp)
			past[s.Msg] = mp
			pp[s.Msg] = true
		case model.KindDeliver:
			// Check: every message in m's causal past must already be
			// delivered at s.Proc.
			dm := delivered[s.Proc]
			if dm == nil {
				dm = make(map[model.MsgID]bool)
				delivered[s.Proc] = dm
			}
			for pred := range past[s.Msg] {
				if !dm[pred] {
					return &Violation{Spec: "Causal-Order", Property: "Causal",
						Detail: fmt.Sprintf("%v delivers m%d before its causal predecessor m%d", s.Proc, s.Msg, pred), StepIdx: i}
				}
			}
			dm[s.Msg] = true
			pp := procPast[s.Proc]
			if pp == nil {
				pp = make(map[model.MsgID]bool)
				procPast[s.Proc] = pp
			}
			// The delivered message and its past join p's causal history.
			pp[s.Msg] = true
			addAll(pp, past[s.Msg])
		}
	}
	return nil
}

func checkTotalOrder(t *trace.Trace) *Violation {
	ix := t.Index()
	if a, b, p, q, ok := findConflict(t.X.N, ix); ok {
		return &Violation{Spec: "Total-Order", Property: "Total-Order",
			Detail: fmt.Sprintf("%v delivers m%d before m%d but %v delivers m%d before m%d", p, a, b, q, b, a), StepIdx: -1}
	}
	return nil
}

// findConflict returns one conflicting pair (a delivered before b at p, b
// before a at q); ok is false if none exists.
func findConflict(n int, ix *trace.Index) (a, b model.MsgID, p, q model.ProcID, ok bool) {
	conflicts := conflictPairs(n, ix, 1)
	if len(conflicts) == 0 {
		return a, b, p, q, false
	}
	c := conflicts[0]
	return c.a, c.b, c.p, c.q, true
}

// conflictPairs computes the pairs of messages delivered in opposite
// orders by two processes. A pair conflicts only when both processes
// delivered both messages: "delivered versus not yet delivered" can still
// be repaired in an extension, so counting it would break prefix-safety.
// If limit > 0, at most limit conflicts are returned.
func conflictPairs(n int, ix *trace.Index, limit int) []conflict {
	msgs := ix.MessagesSorted()
	var out []conflict
	for i := 0; i < len(msgs); i++ {
		for j := i + 1; j < len(msgs); j++ {
			a, b := msgs[i], msgs[j]
			var before, after model.ProcID
			for pn := 1; pn <= n; pn++ {
				p := model.ProcID(pn)
				pos := ix.DeliveryPos[p]
				pa, oka := pos[a]
				pb, okb := pos[b]
				if !oka || !okb {
					continue
				}
				if pa < pb {
					before = p
				} else {
					after = p
				}
			}
			if before != model.NoProc && after != model.NoProc {
				out = append(out, conflict{a: a, b: b, p: before, q: after})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

func checkKBO(t *trace.Trace, k int) *Violation {
	name := fmt.Sprintf("%d-BO-Order", k)
	ix := t.Index()
	pairs := conflictPairs(t.X.N, ix, 0)
	if len(pairs) == 0 {
		return nil
	}
	adj := make(map[model.MsgID]map[model.MsgID]bool)
	for _, c := range pairs {
		if adj[c.a] == nil {
			adj[c.a] = make(map[model.MsgID]bool)
		}
		if adj[c.b] == nil {
			adj[c.b] = make(map[model.MsgID]bool)
		}
		adj[c.a][c.b] = true
		adj[c.b][c.a] = true
	}
	nodes := make([]model.MsgID, 0, len(adj))
	for m := range adj {
		nodes = append(nodes, m)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	budget := DefaultCliqueBudget
	clique, exceeded := findCliqueBudget(nodes, adj, k+1, &budget)
	if exceeded {
		return cliqueBudgetViolation(name, -1)
	}
	if clique != nil {
		parts := make([]string, len(clique))
		for i, m := range clique {
			parts[i] = fmt.Sprintf("m%d", m)
		}
		return &Violation{Spec: name, Property: "k-Bounded-Order",
			Detail: fmt.Sprintf("messages {%s} %s", strings.Join(parts, ","), fmt.Sprintf(kboCliqueDetail, k+1)), StepIdx: -1}
	}
	return nil
}

func checkFirstK(t *trace.Trace, k int) *Violation {
	ix := t.Index()
	firsts := make(map[model.MsgID]bool)
	for pn := 1; pn <= t.X.N; pn++ {
		if ds := ix.Deliveries[model.ProcID(pn)]; len(ds) > 0 {
			firsts[ds[0]] = true
		}
	}
	if len(firsts) > k {
		return &Violation{Spec: fmt.Sprintf("First-%d-Order", k), Property: "First-k",
			Detail: fmt.Sprintf("%d distinct messages delivered first, at most %d allowed", len(firsts), k), StepIdx: -1}
	}
	return nil
}

func checkKStepped(t *trace.Trace, k int) *Violation {
	name := fmt.Sprintf("%d-Stepped-Order", k)
	ix := t.Index()
	// Group messages by their broadcast sequence number a (0-based here).
	bySeq := make(map[int]map[model.MsgID]bool)
	maxSeq := 0
	for pn := 1; pn <= t.X.N; pn++ {
		for a, m := range ix.BroadcastSeq[model.ProcID(pn)] {
			if bySeq[a] == nil {
				bySeq[a] = make(map[model.MsgID]bool)
			}
			bySeq[a][m] = true
			if a > maxSeq {
				maxSeq = a
			}
		}
	}
	for a := 0; a <= maxSeq; a++ {
		sa := bySeq[a]
		if len(sa) <= k {
			continue // at most k messages exist: property vacuous
		}
		firsts := make(map[model.MsgID]bool)
		for pn := 1; pn <= t.X.N; pn++ {
			p := model.ProcID(pn)
			for _, m := range ix.Deliveries[p] {
				if sa[m] {
					firsts[m] = true
					break // only the first S_a message of p counts
				}
			}
		}
		if len(firsts) > k {
			return &Violation{Spec: name, Property: "k-Stepped",
				Detail: fmt.Sprintf("step %d: %d distinct messages of S_%d delivered first within S_%d, at most %d allowed", a+1, len(firsts), a+1, a+1, k), StepIdx: -1}
		}
	}
	return nil
}

func checkSATagged(t *trace.Trace, k int) *Violation {
	name := fmt.Sprintf("SA-Tagged-%d-Order", k)
	ix := t.Index()
	// tagged[obj] = set of messages of the form SA(obj, _).
	tagged := make(map[model.KSAID]map[model.MsgID]bool)
	for m, info := range ix.Broadcasts {
		if obj, _, ok := ParseSATag(info.Payload); ok {
			if tagged[obj] == nil {
				tagged[obj] = make(map[model.MsgID]bool)
			}
			tagged[obj][m] = true
		}
	}
	objs := make([]model.KSAID, 0, len(tagged))
	for o := range tagged {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		set := tagged[obj]
		firsts := make(map[model.MsgID]bool)
		for pn := 1; pn <= t.X.N; pn++ {
			p := model.ProcID(pn)
			for _, m := range ix.Deliveries[p] {
				if set[m] {
					firsts[m] = true
					break
				}
			}
		}
		if len(firsts) > k {
			return &Violation{Spec: name, Property: "SA-Tagged-First-k",
				Detail: fmt.Sprintf("%v: %d distinct SA-tagged messages delivered first, at most %d allowed", obj, len(firsts), k), StepIdx: -1}
		}
	}
	return nil
}

// batchIndex maps, per process, each delivered message to the ordinal of
// the delivered set containing it. Consecutive deliveries sharing a
// positive Batch share an ordinal; Batch-0 deliveries are singleton sets.
func batchIndex(t *trace.Trace) map[model.ProcID]map[model.MsgID]int {
	out := make(map[model.ProcID]map[model.MsgID]int)
	cur := make(map[model.ProcID]int64) // current batch tag per process
	ord := make(map[model.ProcID]int)   // current set ordinal per process
	for _, s := range t.X.Steps {
		if s.Kind != model.KindDeliver {
			continue
		}
		m := out[s.Proc]
		if m == nil {
			m = make(map[model.MsgID]int)
			out[s.Proc] = m
		}
		if s.Batch == 0 || s.Batch != cur[s.Proc] {
			ord[s.Proc]++
			cur[s.Proc] = s.Batch
		}
		if _, dup := m[s.Msg]; !dup {
			m[s.Msg] = ord[s.Proc]
		}
	}
	return out
}

func checkKSCD(t *trace.Trace, k int) *Violation {
	name := fmt.Sprintf("%d-SCD-Order", k)
	ix := t.Index()
	batches := batchIndex(t)
	msgs := ix.MessagesSorted()
	adj := make(map[model.MsgID]map[model.MsgID]bool)
	link := func(a, b model.MsgID) {
		if adj[a] == nil {
			adj[a] = make(map[model.MsgID]bool)
		}
		if adj[b] == nil {
			adj[b] = make(map[model.MsgID]bool)
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	for i := 0; i < len(msgs); i++ {
		for j := i + 1; j < len(msgs); j++ {
			a, b := msgs[i], msgs[j]
			var before, after bool
			for pn := 1; pn <= t.X.N; pn++ {
				p := model.ProcID(pn)
				ba, oka := batches[p][a]
				bb, okb := batches[p][b]
				if !oka || !okb {
					continue
				}
				switch {
				case ba < bb:
					before = true
				case bb < ba:
					after = true
				}
			}
			if before && after {
				link(a, b)
			}
		}
	}
	if len(adj) == 0 {
		return nil
	}
	nodes := make([]model.MsgID, 0, len(adj))
	for m := range adj {
		nodes = append(nodes, m)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	budget := DefaultCliqueBudget
	clique, exceeded := findCliqueBudget(nodes, adj, k+1, &budget)
	if exceeded {
		return cliqueBudgetViolation(name, -1)
	}
	if clique != nil {
		parts := make([]string, len(clique))
		for i, m := range clique {
			parts[i] = fmt.Sprintf("m%d", m)
		}
		return &Violation{Spec: name, Property: "k-Set-Constrained-Delivery",
			Detail: fmt.Sprintf("messages {%s} %s", strings.Join(parts, ","), fmt.Sprintf(kscdCliqueDetail, k+1)), StepIdx: -1}
	}
	return nil
}

func checkSCD(t *trace.Trace) *Violation {
	ix := t.Index()
	batches := batchIndex(t)
	msgs := ix.MessagesSorted()
	for i := 0; i < len(msgs); i++ {
		for j := i + 1; j < len(msgs); j++ {
			a, b := msgs[i], msgs[j]
			var before, after model.ProcID
			for pn := 1; pn <= t.X.N; pn++ {
				p := model.ProcID(pn)
				ba, oka := batches[p][a]
				bb, okb := batches[p][b]
				if !oka || !okb {
					continue
				}
				switch {
				case ba < bb:
					before = p
				case bb < ba:
					after = p
				}
				// ba == bb: same set, unordered — constrains nobody.
			}
			if before != model.NoProc && after != model.NoProc {
				return &Violation{Spec: "SCD-Order", Property: "Set-Constrained-Delivery",
					Detail: fmt.Sprintf("%v delivers m%d in a strictly earlier set than m%d, while %v delivers m%d strictly earlier than m%d", before, a, b, after, b, a), StepIdx: -1}
			}
		}
	}
	return nil
}
