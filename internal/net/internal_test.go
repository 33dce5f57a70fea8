package net

import (
	"context"
	"fmt"
	"sync/atomic"
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

// TestWaitUntilBackoffBounded: WaitUntil checks its condition at its
// start and on the network's progress announcements only, never on a
// timer (a polling wait once burned a core for the whole wait). On a
// quiet network an unsatisfied 1s wait checks it at most twice and
// returns at its timeout, and a satisfied one checks it once.
func TestWaitUntilBackoffBounded(t *testing.T) {
	nw, err := New(Config{N: 2, NewAutomaton: broadcast.NewSendToAll})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	// Init announces once per process; let those pass.
	time.Sleep(10 * time.Millisecond)
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
	if calls > 2 {
		t.Errorf("unsatisfied 1s wait on a quiet network checked its condition %d times, want ≤ 2", calls)
	}
	calls = 0
	if !nw.WaitUntil(func() bool { calls++; return true }, time.Second) {
		t.Fatal("satisfied condition reported false")
	}
	if calls != 1 {
		t.Errorf("satisfied condition checked %d times, want 1", calls)
	}
}

// TestProgressNoLostWakeup races an announcer against a waiter: each
// round the announcer makes the waiter's condition true and announces
// while the waiter is between taking the signal, checking and blocking.
// A lost wake-up leaves the waiter asleep until its timeout, which is far
// beyond the watchdog's budget for the whole loop. Run it with -race.
func TestProgressNoLostWakeup(t *testing.T) {
	const rounds = 2000
	var (
		pr    Progress
		state atomic.Int64
	)
	done := make(chan error, 1)
	go func() {
		for r := int64(1); r <= rounds; r++ {
			go func() {
				state.Store(r)
				pr.Announce()
			}()
			if !pr.Await(context.Background(), func() bool { return state.Load() >= r }, time.Minute) {
				done <- fmt.Errorf("round %d: Await returned false", r)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("watchdog: a wake-up was lost (state %d of %d rounds)", state.Load(), rounds)
	}
}

// fakeCluster is a Cluster whose counters the test advances by hand. It
// counts every counter read and reports each broadcast on submitted.
type fakeCluster struct {
	delivered, returned []atomic.Int64
	checks              atomic.Int64
	submitted           chan model.ProcID
	progress            Progress
}

func newFakeCluster(n int) *fakeCluster {
	return &fakeCluster{delivered: make([]atomic.Int64, n+1), returned: make([]atomic.Int64, n+1), submitted: make(chan model.ProcID, 1)}
}

func (f *fakeCluster) Broadcast(p model.ProcID, _ model.Payload) (model.MsgID, error) {
	f.submitted <- p
	return 1, nil
}
func (f *fakeCluster) Delivered(p model.ProcID) int64 { f.checks.Add(1); return f.delivered[p].Load() }
func (f *fakeCluster) Returned(p model.ProcID) int64  { f.checks.Add(1); return f.returned[p].Load() }
func (f *fakeCluster) Progress() *Progress            { return &f.progress }

// TestDriveWakesOnAnnouncements drives a one-broadcast script on a fake
// cluster whose counters the test advances one announcement at a time.
// Drive must return complete right after the announcement that satisfies
// it, and it must check its conditions only on announcements: each wait
// checks once at its start and once per announcement.
func TestDriveWakesOnAnnouncements(t *testing.T) {
	const n = 3
	f := newFakeCluster(n)
	type result struct {
		complete bool
		err      error
	}
	out := make(chan result, 1)
	go func() {
		complete, err := Drive(context.Background(), f, n,
			[]sched.BroadcastReq{{Proc: 1, Payload: "m"}}, time.Minute)
		out <- result{complete, err}
	}()
	// The first wait (p1 has no invocation open) holds at once; the
	// final wait starts after the broadcast.
	select {
	case <-f.submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("Drive never submitted the broadcast")
	}
	// Each announcement advances one counter; the last one satisfies the
	// final wait. Between announcements, Drive must not return: the
	// sleep gives it the time to do so wrongly.
	steps := []func(){
		func() { f.delivered[1].Store(1) },
		func() { f.returned[1].Store(1) },
		func() { f.delivered[2].Store(1) },
		func() { f.delivered[3].Store(1) },
	}
	for i, step := range steps {
		time.Sleep(10 * time.Millisecond)
		select {
		case r := <-out:
			t.Fatalf("Drive returned %+v after %d of %d announcements", r, i, len(steps))
		default:
		}
		step()
		f.progress.Announce()
	}
	select {
	case r := <-out:
		if !r.complete || r.err != nil {
			t.Fatalf("Drive = %v, %v; want complete", r.complete, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drive did not return after the announcement that satisfied it")
	}
	// The first wait reads one counter, once. The final wait checks at
	// its start and after each announcement, and a check reads at most
	// n delivered counters and one returned counter.
	if got, max := f.checks.Load(), int64(1+(1+len(steps))*(n+1)); got > max {
		t.Errorf("Drive read the counters %d times, want ≤ %d (one check per wait plus one per announcement)", got, max)
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
	c := NewCore(2, []model.ProcID{1}, broadcast.NewSendToAll, eg, Transport{
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
	if !c.Progress().Await(context.Background(), func() bool { return eg.Stats().Received == 1 }, 5*time.Second) {
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
// process's one Env and cascade buffer, the egress returns a send's
// delays without a heap slice, and a progress announcement nobody waits
// for takes no lock, so once both buffers have grown, handling a
// broadcast that sends, delivers and returns, and announcing it,
// allocates nothing.
func TestHandleAllocatesNothing(t *testing.T) {
	eg, err := NewEgress(nil, 1, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	c := NewCore(1, []model.ProcID{1}, func(model.ProcID) sched.Automaton { return deliverStub{} }, eg, Transport{
		Emit:   func(model.ProcID, model.ProcID, int64, int, model.Payload) { emitted++ },
		Record: func(model.Step) {},
	})
	ps := c.procs[0]
	call := func(env *sched.Env) { ps.automaton.OnBroadcast(env, 1, "x") }
	if got := testing.AllocsPerRun(100, func() { c.handle(ps, call); c.progress.Announce() }); got != 0 {
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

// TestInboxFIFOAndReuse: the inbox hands its loop every event in push
// order across chunk boundaries while a producer races it, ends only
// once closed and drained, and, once its chunks have grown to a backlog,
// queues that backlog again without allocating.
func TestInboxFIFOAndReuse(t *testing.T) {
	q := &inbox{wake: make(chan struct{}, 1)}
	const total = 10*chunkLen + 7
	go func() {
		for i := 0; i < total; i++ {
			q.push(event{seq: int64(i)})
		}
		q.close()
	}()
	var next int64
	for {
		batch, ok := q.take()
		if !ok {
			break
		}
		for _, ev := range batch {
			if ev.seq != next {
				t.Fatalf("took event %d, want %d", ev.seq, next)
			}
			next++
		}
	}
	if next != total {
		t.Fatalf("took %d events before the close, want %d", next, total)
	}

	r := &inbox{wake: make(chan struct{}, 1)}
	backlog := func() {
		for i := 0; i < 3*chunkLen; i++ {
			r.push(event{seq: int64(i)})
		}
		for taken := 0; taken < 3*chunkLen; {
			batch, _ := r.take()
			taken += len(batch)
		}
	}
	backlog()
	if got := testing.AllocsPerRun(20, backlog); got != 0 {
		t.Errorf("a repeated backlog of 3 chunks allocates %v times, want 0", got)
	}
}
