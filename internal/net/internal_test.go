package net

import (
	"context"
	"testing"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
)

// TestUniformLargeMax is the regression test for the delay-draw overflow:
// the old implementation computed Intn(int(max)), and int(max) truncates
// to 32 bits on 32-bit platforms — a MaxDelay above ~2.147s became a
// non-positive bound and panicked. The fix reduces a full Uint64 draw
// modulo the int64 nanosecond count, so a 5s bound must yield in-range
// values everywhere.
func TestUniformLargeMax(t *testing.T) {
	const max = 5 * time.Second
	s := &safeRng{src: rng.New(99)}
	for i := 0; i < 10_000; i++ {
		d := s.uniform(max)
		if d < 0 || d >= max {
			t.Fatalf("uniform(%v) = %v, out of [0, %v)", max, d, max)
		}
	}
	if s.uniform(0) != 0 || s.uniform(-time.Second) != 0 {
		t.Error("uniform of a non-positive bound should be 0")
	}
}

// TestDelaySampleProperties pins the distribution shapes: fixed returns
// its mean, exponential respects its clip, uniform respects its bound.
func TestDelaySampleProperties(t *testing.T) {
	s := &safeRng{src: rng.New(7)}
	fixed := &DelayDist{Kind: DelayFixed, Mean: 3 * time.Millisecond}
	for i := 0; i < 100; i++ {
		if d := fixed.sample(s); d != 3*time.Millisecond {
			t.Fatalf("fixed sample = %v, want 3ms", d)
		}
	}
	exp := &DelayDist{Kind: DelayExponential, Mean: time.Millisecond}
	clip := 10 * time.Millisecond // Max = 0 clips at 10×Mean
	for i := 0; i < 10_000; i++ {
		if d := exp.sample(s); d < 0 || d > clip {
			t.Fatalf("exponential sample = %v, out of [0, %v]", d, clip)
		}
	}
	uni := &DelayDist{Kind: DelayUniform, Max: 4 * time.Second}
	for i := 0; i < 10_000; i++ {
		if d := uni.sample(s); d < 0 || d >= 4*time.Second {
			t.Fatalf("uniform sample = %v, out of [0, 4s)", d)
		}
	}
}

// TestWaitUntilBackoffBounded is the regression test for WaitUntil's hot
// polling: the old loop re-checked the condition with no sleep floor
// growth, burning a core for the whole wait. With the exponential backoff
// (200µs doubling to a 5ms ceiling), an unsatisfied 1s wait costs at most
// ~210 condition checks (a handful of doubling steps, then 1s/5ms ticks);
// assert a generous bound well below the unbounded regime.
func TestWaitUntilBackoffBounded(t *testing.T) {
	nw := &Network{} // WaitUntil touches no Network state
	calls := 0
	start := time.Now()
	ok := nw.WaitUntil(func() bool { calls++; return false }, time.Second)
	elapsed := time.Since(start)
	if ok {
		t.Fatal("condition never holds, WaitUntil returned true")
	}
	if elapsed < time.Second {
		t.Fatalf("WaitUntil returned after %v, before the 1s timeout", elapsed)
	}
	if calls > 280 {
		t.Errorf("unsatisfied 1s wait polled %d times, want ≤ 280 (backoff missing?)", calls)
	}
	// A satisfied condition returns promptly on the first check.
	calls = 0
	if !nw.WaitUntil(func() bool { calls++; return true }, time.Second) {
		t.Fatal("satisfied condition reported false")
	}
	if calls != 1 {
		t.Errorf("satisfied condition checked %d times, want 1", calls)
	}
}

// TestReceiveRejectsUnknownEndpoints: a reception names its sender by a
// number that, on the socket transport, arrives off the wire. One outside
// p1..pn, or a destination hosted elsewhere, must count as dropped rather
// than index past the per-link tables.
func TestReceiveRejectsUnknownEndpoints(t *testing.T) {
	eg, err := NewEgress(nil, 2, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(2, []model.ProcID{1}, broadcast.NewSendToAll, 4, eg, Transport{
		Emit:    func(model.ProcID, model.ProcID, int64, int, model.Payload) {},
		Propose: func(model.ProcID, model.KSAID, model.Value) (model.Value, bool) { return "", false },
		Record:  func(model.Step) {},
	})
	c.Start()
	defer c.Stop()
	c.Receive(1, 0, 0, "x")
	c.Receive(1, 3, 0, "x")
	c.Receive(2, 1, 0, "x") // p2 is not hosted by this core
	if got := eg.Stats().Dropped; got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	c.Receive(1, 2, 0, "x")
	if !Await(context.Background(), func() bool { return eg.Stats().Received == 1 }, 5*time.Second) {
		t.Fatalf("a valid reception was not handled: %+v", eg.Stats())
	}
}

// deliverStub sends each broadcast to its own process, then B-delivers
// and returns it at once.
type deliverStub struct{}

func (deliverStub) Init(*sched.Env) {}
func (deliverStub) OnBroadcast(env *sched.Env, msg model.MsgID, payload model.Payload) {
	env.Send(env.ID(), payload)
	env.Deliver(msg, env.ID(), payload)
	env.ReturnBroadcast(msg)
}
func (deliverStub) OnReceive(*sched.Env, model.ProcID, model.Payload) {}
func (deliverStub) OnDecide(*sched.Env, model.KSAID, model.Value)     {}

// TestHandleAllocatesNothing: every handler call of a process runs on the
// process's one Env and cascade buffer, and the egress returns a send's
// delays without a heap slice, so once both buffers have grown, handling
// a broadcast that sends, delivers and returns allocates nothing.
func TestHandleAllocatesNothing(t *testing.T) {
	eg, err := NewEgress(nil, 1, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	c := NewCore(1, []model.ProcID{1}, func(model.ProcID) sched.Automaton { return deliverStub{} }, 1, eg, Transport{
		Emit:   func(model.ProcID, model.ProcID, int64, int, model.Payload) { emitted++ },
		Record: func(model.Step) {},
	})
	ps := c.procs[0]
	call := func(env *sched.Env) { ps.automaton.OnBroadcast(env, 1, "x") }
	if got := testing.AllocsPerRun(100, func() { c.handle(ps, call) }); got != 0 {
		t.Errorf("handle allocates %v times per call, want 0", got)
	}
	if got, want := ps.delivered.Load(), int64(101); got != want {
		t.Errorf("delivered %d, want %d (one warm-up call and 100 measured)", got, want)
	}
	if got := ps.returned.Load(); got != 101 {
		t.Errorf("returned %d, want 101", got)
	}
	if emitted != 101 {
		t.Errorf("emitted %d sends, want 101", emitted)
	}
}
