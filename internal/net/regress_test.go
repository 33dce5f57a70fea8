package net_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/obs"
)

// TestReentrantOnDeliverStopNoDeadlock is the regression test for the
// shutdown/reentrancy deadlock: the old Network.send held the stop lock
// shared across a blocking `inbox <- ev`. With a tiny inbox, an OnDeliver
// callback that re-broadcasts, and a concurrent Stop awaiting the
// exclusive lock, the node loop that had to drain the inbox was itself
// the sender parked inside the read lock — a permanent wedge. The fix
// never holds the lock across a blocking operation (inboxes are unbounded
// queues, and a push only appends; delayed copies unpark on a done
// channel at Stop), so this test must finish well inside its watchdog.
// Run it with -race.
func TestReentrantOnDeliverStopNoDeadlock(t *testing.T) {
	const iterations = 10
	for it := 0; it < iterations; it++ {
		finished := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			defer close(finished)
			var nwp atomic.Pointer[net.Network]
			nw, err := net.New(net.Config{
				N:            3,
				NewAutomaton: broadcast.NewSendToAll,
				OnDeliver: func(d net.Delivery) {
					// Reentrant amplification: every delivery triggers a
					// fresh broadcast (the growing payload caps the storm
					// far beyond what one test run reaches — Stop is what
					// ends it). This is exactly the callback shape that
					// wedged the old runtime: the node loop that must drain
					// the inbox is itself the sender parked on it.
					if len(d.Payload) < 60 {
						if n := nwp.Load(); n != nil {
							n.Broadcast(d.At, d.Payload+"x") //nolint:errcheck
						}
					}
				},
			})
			if err != nil {
				errc <- err
				return
			}
			nwp.Store(nw)
			for p := 1; p <= 3; p++ {
				if _, err := nw.Broadcast(model.ProcID(p), "s"); err != nil {
					errc <- err
					return
				}
			}
			// Let the storm fill the inboxes before stopping: the old
			// runtime wedged right here (nodes parked on their own full
			// inboxes and delivery stalled for good).
			nw.WaitUntil(func() bool {
				var total int64
				for p := 1; p <= 3; p++ {
					total += nw.Delivered(model.ProcID(p))
				}
				return total >= 300
			}, 2*time.Second)
			// Stop races the still-running reentrant storm; both must
			// terminate (the old runtime's Stop blocked forever on the
			// write lock while a parked sender held it shared).
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				nw.Stop()
			}()
			wg.Wait()
			nw.Stop() // idempotent
		}()
		select {
		case <-finished:
			select {
			case err := <-errc:
				t.Fatalf("iteration %d: %v", it, err)
			default:
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: deadlock — Stop and reentrant OnDeliver wedged", it)
		}
	}
}

// TestConcurrentBroadcastersTinyInboxStop stresses the same fix from the
// outside: many goroutines broadcasting into inboxes that reliable
// broadcast's echoes keep busy while Stop fires midway. Every Broadcast
// must return (possibly with a stopped error), Stop must join everything,
// and every event still queued must count as dropped.
func TestConcurrentBroadcastersTinyInboxStop(t *testing.T) {
	const n, senders, perSender = 4, 8, 50
	nw, err := net.New(net.Config{N: n, NewAutomaton: broadcast.NewReliable})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				p := model.ProcID(s%n + 1)
				if _, err := nw.Broadcast(p, model.Payload(fmt.Sprintf("m-%d-%d", s, i))); err == nil {
					accepted.Add(1)
				}
			}
		}(s)
	}
	stopDone := make(chan struct{})
	go func() {
		defer close(stopDone)
		time.Sleep(2 * time.Millisecond)
		nw.Stop()
	}()
	senderDone := make(chan struct{})
	go func() { defer close(senderDone); wg.Wait() }()
	for _, ch := range []chan struct{}{senderDone, stopDone} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock: broadcasters or Stop wedged on a full inbox")
		}
	}
	// Every accepted invocation and every sent copy (fault-free, zero
	// delay: each goes straight to its destination's inbox) was handled
	// or counted as dropped, at the inbox's door or still queued at Stop.
	st := nw.StatsSnapshot()
	if in, out := accepted.Load()+st.Sent, st.Broadcasts+st.Received+st.Dropped; in != out {
		t.Errorf("%d invocations and sends entered, %d handled or dropped: %+v", in, out, st)
	}
}

// TestReorderCounterPerLink is the regression test for the reorder
// accounting fix. The counter used to compare a global send ordinal, so
// two perfectly-FIFO senders interleaving at one receiver were miscounted
// as reorderings. With per-(sender,receiver) ordinals and zero delay
// (inline forwarding, per-link FIFO), two concurrent senders must count
// exactly zero reorderings.
func TestReorderCounterPerLink(t *testing.T) {
	const rounds = 200
	nw, err := net.New(net.Config{N: 3, NewAutomaton: broadcast.NewSendToAll, MaxDelay: 0})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, p := range []model.ProcID{1, 2} {
		wg.Add(1)
		go func(p model.ProcID) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := nw.Broadcast(p, model.Payload(fmt.Sprintf("r-%v-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	want := int64(2 * rounds)
	ok := nw.WaitUntil(func() bool {
		for p := 1; p <= 3; p++ {
			if nw.Delivered(model.ProcID(p)) < want {
				return false
			}
		}
		return true
	}, waitTimeout)
	nw.Stop()
	if !ok {
		t.Fatalf("deliveries incomplete: %+v", nw.StatsSnapshot())
	}
	if got := nw.StatsSnapshot().Reordered; got != 0 {
		t.Errorf("Reordered = %d on a zero-delay run with FIFO senders, want 0 (global-ordinal bug?)", got)
	}
}

// TestStopLeaksNoGoroutines: after Stop the goroutine count returns to
// its pre-start value within 1s, with every shutdown path busy at once —
// delayed copies still in flight, queued events to drop, and an
// OnDeliver that broadcasts again.
func TestStopLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.New()
	var nwp atomic.Pointer[net.Network]
	nw, err := net.New(net.Config{
		N:            3,
		NewAutomaton: broadcast.NewSendToAll,
		MaxDelay:     20 * time.Millisecond,
		Obs:          reg,
		OnDeliver: func(d net.Delivery) {
			if n := nwp.Load(); n != nil && len(d.Payload) < 40 {
				n.Broadcast(d.At, d.Payload+"x") //nolint:errcheck
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nwp.Store(nw)
	for p := 1; p <= 3; p++ {
		for i := 0; i < 20; i++ {
			nw.Broadcast(model.ProcID(p), model.Payload(fmt.Sprintf("g%d", i))) //nolint:errcheck
		}
	}
	nw.WaitUntil(func() bool { return nw.Delivered(1) >= 30 }, waitTimeout)
	if reg.Gauge("net.in_flight").Value() == 0 {
		t.Error("no delayed copy in flight at Stop")
	}
	nw.Stop()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1s after Stop, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
