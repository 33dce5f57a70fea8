package net

import (
	"sync"
	"sync/atomic"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/sched"
)

// This file is the node core: the one implementation of a CAMP process
// that both transports run. A process is a deterministic automaton
// reacting to receive, B-broadcast and k-SA decide events, blind to link
// faults (Section 2). The core owns everything that follows from that —
// the inbox, the crash gate, the action cascade, the counters and step
// recording, and the stop/drain discipline — and leaves the medium to a
// Transport: in-memory channels (Network) or framed TCP
// (internal/nettcp's Node).

// Transport is the medium a Core runs on.
type Transport struct {
	// Emit puts one copy of a point-to-point message on the wire, once
	// the egress has let it through and its transit delay has elapsed.
	// seq is the per-link send ordinal, dup the index among fault
	// duplicates.
	Emit func(from, to model.ProcID, seq int64, dup int, payload model.Payload)
	// Propose resolves process p's k-SA proposition; ok is false when
	// the run stopped before the decision arrived.
	Propose func(p model.ProcID, obj model.KSAID, v model.Value) (val model.Value, ok bool)
	// Record observes every broadcast-interface step, k-SA proposition
	// and decision, and crash.
	Record func(model.Step)
	// Deliver and Return, if set, observe every B-delivery and every
	// B.broadcast return.
	Deliver func(Delivery)
	Return  func(p model.ProcID)
}

// Core runs the local processes of one system of n processes: all of
// them for the in-memory network, one for a socket node.
type Core struct {
	n      int
	procs  []*proc // index p-1; nil for a process hosted elsewhere
	egress *Egress
	met    *netMetrics
	tr     Transport

	// progress is announced after each process's Init, every inbox event
	// a loop takes, every drop counted outside the loops, and every
	// crash: every change the counters, the recorder or the Deliver and
	// Return callbacks show.
	progress Progress

	// mu guards the stopped flag. It is never held across a blocking
	// operation: enqueuers take it shared just long enough to observe
	// !stopped and append to an inbox (and, on the delay path, to
	// register with wg), which is what lets Stop proceed even while a
	// reentrant OnDeliver callback is mid-Broadcast.
	mu      sync.RWMutex
	stopped bool
	// done is closed when Stop begins; it unparks delayed copies and
	// transport waits, so wg can drain.
	done  chan struct{}
	wg    sync.WaitGroup // delayed copies
	loops sync.WaitGroup // event loops
}

// proc is one local process.
type proc struct {
	id        model.ProcID
	automaton sched.Automaton
	inbox     inbox
	crashed   atomic.Bool
	delivered atomic.Int64
	returned  atomic.Int64
	// seq[q-1] is the next send ordinal toward q and lastSeq[q-1] the
	// highest ordinal received from q; only the event loop touches them.
	seq, lastSeq []int64
	// env and cascade serve every handler call of the process for its
	// lifetime: only its event loop runs handlers (Start runs Init there
	// too), and handlers never nest, because the cascade drains OnDecide's
	// actions after the call returns.
	env     *sched.Env
	cascade []sched.Action
}

// event is one inbox entry: a point-to-point reception or a B.broadcast
// invocation.
type event struct {
	invoke  bool
	from    model.ProcID
	msg     model.MsgID
	payload model.Payload
	seq     int64
}

// inbox is a process's unbounded FIFO of events. A push never blocks, so
// no sender ever parks on a full inbox. Events queue in fixed-size
// chunks; the event loop takes them a chunk at a time and hands each
// chunk it finished back for reuse, so an inbox allocates only while its
// backlog grows past the deepest one so far.
type inbox struct {
	mu sync.Mutex
	// The queued events are head.ev[r:], up to tail.ev[:w]: head.ev[r:w]
	// when head == tail. n counts them.
	head, tail *inboxChunk
	r, w, n    int
	free       *inboxChunk // chunks the loop finished with
	closed     bool
	// wake holds a token whenever events are queued, or the inbox is
	// closed, while its loop may be asleep: a push onto an empty inbox,
	// and close, put one there.
	wake chan struct{}
}

// chunkLen is the number of events per inbox chunk.
const chunkLen = 64

type inboxChunk struct {
	ev   [chunkLen]event
	next *inboxChunk
}

// push appends ev.
func (q *inbox) push(ev event) {
	q.mu.Lock()
	if q.tail == nil || q.w == chunkLen {
		c := q.free
		if c != nil {
			q.free, c.next = c.next, nil
		} else {
			c = new(inboxChunk)
		}
		if q.tail == nil {
			q.head, q.r = c, 0
		} else {
			q.tail.next = c
		}
		q.tail, q.w = c, 0
	}
	q.tail.ev[q.w] = ev
	q.w++
	q.n++
	first := q.n == 1
	q.mu.Unlock()
	if first {
		q.signal()
	}
}

// close ends the loop once it has taken what is queued.
func (q *inbox) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *inbox) signal() {
	select {
	case q.wake <- struct{}{}:
	default: // a token is already there
	}
}

// take blocks until events are queued and returns the oldest of them, at
// most the rest of one chunk; ok is false once the inbox is closed and
// empty. Only the event loop calls it, and the batch stays valid until
// its next call.
func (q *inbox) take() (batch []event, ok bool) {
	for {
		q.mu.Lock()
		if q.head != nil && q.r == chunkLen {
			// The previous batch finished the head chunk: recycle it.
			c := q.head
			q.head, q.r = c.next, 0
			if c == q.tail {
				q.tail = nil
			}
			clear(c.ev[:]) // drop the payloads
			c.next, q.free = q.free, c
		}
		if q.n > 0 {
			end := chunkLen
			if q.head == q.tail {
				end = q.w
			}
			batch = q.head.ev[q.r:end]
			q.n -= end - q.r
			q.r = end
			q.mu.Unlock()
			return batch, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return nil, false
		}
		<-q.wake
	}
}

// NewCore builds the processes ids of an n-process system, each with its
// own inbox. Every send passes eg, whose counters the core shares. Call
// Start to run them.
func NewCore(n int, ids []model.ProcID, newAutomaton func(model.ProcID) sched.Automaton, eg *Egress, tr Transport) *Core {
	c := &Core{
		n:      n,
		procs:  make([]*proc, n),
		egress: eg,
		met:    eg.met,
		tr:     tr,
		done:   make(chan struct{}),
	}
	for _, id := range ids {
		c.procs[id-1] = &proc{
			id:        id,
			automaton: newAutomaton(id),
			inbox:     inbox{wake: make(chan struct{}, 1)},
			seq:       make([]int64, n),
			lastSeq:   make([]int64, n),
			env:       sched.NewEnv(id, n),
		}
	}
	return c
}

// Start runs each local process's Init handler and then its event loop,
// one goroutine per process.
func (c *Core) Start() {
	for _, ps := range c.procs {
		if ps == nil {
			continue
		}
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			c.handle(ps, func(env *sched.Env) { ps.automaton.Init(env) })
			c.progress.Announce()
			c.loop(ps)
		}()
	}
}

// loop is a process's event loop. It announces progress after each event
// it takes, handled or dropped. Once Stop begins, or once the process
// crashed, it drains its inbox without handling: a queued event is then
// indistinguishable from one forever in transit.
func (c *Core) loop(ps *proc) {
	for {
		batch, ok := ps.inbox.take()
		if !ok {
			return
		}
		for i := range batch {
			c.event(ps, &batch[i])
			c.progress.Announce()
		}
	}
}

// event handles one inbox event, or drops it.
func (c *Core) event(ps *proc, ev *event) {
	if ps.crashed.Load() || c.stopping() {
		c.met.dropped.Inc()
		return
	}
	if ev.invoke {
		c.met.broadcasts.Inc()
		c.tr.Record(model.Step{Proc: ps.id, Kind: model.KindBroadcastInvoke, Msg: ev.msg, Payload: ev.payload})
		c.handle(ps, func(env *sched.Env) { ps.automaton.OnBroadcast(env, ev.msg, ev.payload) })
		return
	}
	c.met.received.Inc()
	if ev.seq < ps.lastSeq[ev.from-1] {
		c.met.reordered.Inc()
	} else {
		ps.lastSeq[ev.from-1] = ev.seq
	}
	c.handle(ps, func(env *sched.Env) { ps.automaton.OnReceive(env, ev.from, ev.payload) })
}

// handle runs a handler and applies the emitted actions, including the
// cascading effects of k-SA decisions. It allocates nothing of its own:
// the actions go through the process's one Env and cascade buffer.
func (c *Core) handle(ps *proc, call func(env *sched.Env)) {
	var began time.Time
	if c.met.handleUS != nil {
		began = time.Now()
	}
	call(ps.env)
	queue := ps.env.TakeActions(ps.cascade[:0])
	for i := 0; i < len(queue); i++ {
		a := queue[i]
		switch a.Kind {
		case model.KindSend:
			c.send(ps, a.Peer, a.Payload)
		case model.KindPropose:
			c.tr.Record(a.Step(ps.id))
			val, ok := c.tr.Propose(ps.id, a.Obj, a.Val)
			if !ok {
				return // stopping; the decision never arrives
			}
			c.tr.Record(model.Step{Proc: ps.id, Kind: model.KindDecide, Obj: a.Obj, Val: val})
			ps.automaton.OnDecide(ps.env, a.Obj, val)
			queue = ps.env.TakeActions(queue)
		case model.KindDeliver:
			ps.delivered.Add(1)
			c.met.delivered.Inc()
			c.tr.Record(a.Step(ps.id))
			if c.tr.Deliver != nil {
				c.tr.Deliver(Delivery{At: ps.id, From: a.Peer, Msg: a.Msg, Payload: a.Payload})
			}
		case model.KindBroadcastReturn:
			ps.returned.Add(1)
			c.tr.Record(a.Step(ps.id))
			if c.tr.Return != nil {
				c.tr.Return(ps.id)
			}
		case model.KindInternal:
			// No effect outside the automaton.
		}
	}
	ps.cascade = queue
	if c.met.handleUS != nil {
		c.met.handleUS.Observe(time.Since(began).Microseconds())
	}
}

// send executes one KindSend action: the egress decides the copies and
// their transit delays, then each copy reaches the transport at once or
// after its delay.
func (c *Core) send(ps *proc, to model.ProcID, payload model.Payload) {
	if to < 1 || int(to) > c.n {
		c.met.dropped.Inc()
		return
	}
	delays, copies := c.egress.Pass(ps.id, to)
	if copies == 0 {
		return
	}
	from, seq := ps.id, ps.seq[to-1]
	ps.seq[to-1]++
	for i, d := range delays[:copies] {
		if d == 0 {
			// Inline: zero-delay links stay per-link FIFO, so the reorder
			// counter is exactly zero on delay-free fault-free runs.
			c.tr.Emit(from, to, seq, i, payload)
			continue
		}
		if !c.begin() {
			c.met.dropped.Inc()
			continue
		}
		c.met.inFlight.Inc()
		go func() {
			defer c.wg.Done()
			defer c.met.inFlight.Dec()
			select {
			case <-time.After(d):
				c.tr.Emit(from, to, seq, i, payload)
			case <-c.done:
				c.met.dropped.Inc()
				c.progress.Announce()
			}
		}()
	}
}

// begin registers a goroutine with wg, unless Stop began. Registration
// happens under the shared lock, so Stop's wg.Wait can never miss a
// registration that observed !stopped.
func (c *Core) begin() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.stopped {
		return false
	}
	c.wg.Add(1)
	return true
}

// stopping reports whether Stop began.
func (c *Core) stopping() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// local returns local process p, or nil.
func (c *Core) local(p model.ProcID) *proc {
	if p < 1 || int(p) > c.n {
		return nil
	}
	return c.procs[p-1]
}

// enqueue hands ev to ps's event loop without ever blocking the caller:
// the inbox is unbounded, and the push happens under the shared lock, so
// Stop, which closes the inboxes only after taking the exclusive lock,
// never closes one underneath a push. An OnDeliver callback may thus call
// straight back into Broadcast while Stop awaits the exclusive lock, and
// neither wedges the loop that has to drain the inbox.
func (c *Core) enqueue(ps *proc, ev event) bool {
	if ps == nil || ps.crashed.Load() {
		return false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.stopped {
		return false
	}
	ps.inbox.push(ev)
	return true
}

// Invoke queues a B.broadcast invocation of msg at local process p. It
// never blocks; false means p is not local, crashed, or the core stopped.
func (c *Core) Invoke(p model.ProcID, msg model.MsgID, payload model.Payload) bool {
	return c.enqueue(c.local(p), event{invoke: true, msg: msg, payload: payload})
}

// Receive queues the reception at local process to of a message from
// process from with per-link send ordinal seq. It never blocks; a message
// that cannot be queued (unknown endpoints, crashed destination, stopped
// core) counts as dropped.
func (c *Core) Receive(to, from model.ProcID, seq int64, payload model.Payload) {
	if from < 1 || int(from) > c.n || !c.enqueue(c.local(to), event{from: from, seq: seq, payload: payload}) {
		c.met.dropped.Inc()
		c.progress.Announce()
	}
}

// Crash crashes local process p: its loop stops handling events at once.
// Repeated crashes count and record once.
func (c *Core) Crash(p model.ProcID) {
	if ps := c.local(p); ps != nil && ps.crashed.CompareAndSwap(false, true) {
		c.met.crashes.Inc()
		c.tr.Record(model.Step{Proc: p, Kind: model.KindCrash})
		c.progress.Announce()
	}
}

// Delivered reports how many messages local process p has B-delivered.
func (c *Core) Delivered(p model.ProcID) int64 {
	if ps := c.local(p); ps != nil {
		return ps.delivered.Load()
	}
	return 0
}

// Returned reports how many B.broadcast invocations at local process p
// have returned.
func (c *Core) Returned(p model.ProcID) int64 {
	if ps := c.local(p); ps != nil {
		return ps.returned.Load()
	}
	return 0
}

// Progress is the core's progress signal.
func (c *Core) Progress() *Progress { return &c.progress }

// Done is closed when Stop begins. Transport waits select on it.
func (c *Core) Done() <-chan struct{} { return c.done }

// Stop shuts the core down: no further events are accepted, delayed
// copies drain, the events still queued are dropped and counted, and the
// event loops join. It is idempotent, and it terminates even while
// Deliver callbacks reentrantly broadcast.
func (c *Core) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	// Unpark every delayed copy; they observe done, count themselves
	// dropped, and exit without touching an inbox.
	close(c.done)
	c.wg.Wait()
	// No sender remains: new enqueues observe stopped under the shared
	// lock before reaching an inbox. Closing the inboxes lets each loop
	// drop what is queued and end.
	for _, ps := range c.procs {
		if ps != nil {
			ps.inbox.close()
		}
	}
	c.loops.Wait()
}

// Wait blocks until the event loops have ended, that is until a Stop
// has drained the core.
func (c *Core) Wait() { c.loops.Wait() }
