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

	// mu guards the stopped flag. It is never held across a blocking
	// channel send: enqueuers take it shared just long enough to observe
	// !stopped (and, on the shed and delay paths, to register with wg),
	// which is what lets Stop proceed even while a reentrant OnDeliver
	// callback is mid-Broadcast. Holding it shared across `inbox <- ev`
	// deadlocks: a full inbox parks the sender inside the read lock, Stop
	// blocks on the write lock, and the event loop that should drain the
	// inbox is itself the parked sender.
	mu      sync.RWMutex
	stopped bool
	// done is closed when Stop begins; it unparks delayed copies, shed
	// enqueues and transport waits, so wg can drain.
	done  chan struct{}
	wg    sync.WaitGroup // delayed copies and shed enqueues
	loops sync.WaitGroup // event loops
}

// proc is one local process.
type proc struct {
	id        model.ProcID
	automaton sched.Automaton
	inbox     chan event
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

// NewCore builds the processes ids of an n-process system, each with its
// own inbox of inboxSize events. Every send passes eg, whose counters the
// core shares. Call Start to run them.
func NewCore(n int, ids []model.ProcID, newAutomaton func(model.ProcID) sched.Automaton, inboxSize int, eg *Egress, tr Transport) *Core {
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
			inbox:     make(chan event, inboxSize),
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
			c.loop(ps)
		}()
	}
}

// loop is a process's event loop. Once Stop begins, or once the process
// crashed, it drains its inbox without handling: a queued event is then
// indistinguishable from one forever in transit.
func (c *Core) loop(ps *proc) {
	for ev := range ps.inbox {
		if ps.crashed.Load() || c.stopping() {
			c.met.dropped.Inc()
			continue
		}
		if ev.invoke {
			c.met.broadcasts.Inc()
			c.tr.Record(model.Step{Proc: ps.id, Kind: model.KindBroadcastInvoke, Msg: ev.msg, Payload: ev.payload})
			c.handle(ps, func(env *sched.Env) { ps.automaton.OnBroadcast(env, ev.msg, ev.payload) })
			continue
		}
		c.met.received.Inc()
		if ev.seq < ps.lastSeq[ev.from-1] {
			c.met.reordered.Inc()
		} else {
			ps.lastSeq[ev.from-1] = ev.seq
		}
		c.handle(ps, func(env *sched.Env) { ps.automaton.OnReceive(env, ev.from, ev.payload) })
	}
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

// enqueue hands ev to ps's event loop without ever blocking the caller
// and without holding the lock across a blocking send: a full inbox
// sheds the enqueue to a goroutine, registered with wg, that parks until
// space frees or Stop begins (so shed events may overtake each other).
// An OnDeliver callback may thus call straight back into Broadcast while
// Stop awaits the exclusive lock, and neither wedges the loop that has
// to drain the inbox.
func (c *Core) enqueue(ps *proc, ev event) bool {
	if ps == nil || ps.crashed.Load() {
		return false
	}
	c.mu.RLock()
	if c.stopped {
		c.mu.RUnlock()
		return false
	}
	select {
	case ps.inbox <- ev:
		c.mu.RUnlock()
		return true
	default:
	}
	// Inbox full: shed. wg.Add happens while the shared lock still
	// guarantees Stop has not begun, so the inbox cannot close underneath
	// the parked goroutine.
	c.wg.Add(1)
	c.mu.RUnlock()
	go func() {
		defer c.wg.Done()
		select {
		case ps.inbox <- ev:
		case <-c.done:
			c.met.dropped.Inc()
		}
	}()
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
	}
}

// Crash crashes local process p: its loop stops handling events at once.
// Repeated crashes count and record once.
func (c *Core) Crash(p model.ProcID) {
	if ps := c.local(p); ps != nil && ps.crashed.CompareAndSwap(false, true) {
		c.met.crashes.Inc()
		c.tr.Record(model.Step{Proc: p, Kind: model.KindCrash})
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

// Done is closed when Stop begins. Transport waits select on it.
func (c *Core) Done() <-chan struct{} { return c.done }

// Stop shuts the core down: no further events are accepted, delayed
// copies and shed enqueues drain, and the event loops join. It is
// idempotent, and it terminates even while Deliver callbacks reentrantly
// broadcast into full inboxes.
func (c *Core) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	// Unpark every delayed copy and shed enqueue; they observe done,
	// count themselves dropped, and exit without touching an inbox.
	close(c.done)
	c.wg.Wait()
	// No sender remains: new enqueues observe stopped under the shared
	// lock before reaching a channel, so closing the inboxes is safe and
	// ends the loops.
	for _, ps := range c.procs {
		if ps != nil {
			close(ps.inbox)
		}
	}
	c.loops.Wait()
}

// Wait blocks until the event loops have ended, that is until a Stop
// has drained the core.
func (c *Core) Wait() { c.loops.Wait() }
