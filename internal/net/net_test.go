package net_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/obs"
)

const waitTimeout = 5 * time.Second

func TestNewValidation(t *testing.T) {
	if _, err := net.New(net.Config{N: 0}); err == nil {
		t.Error("expected error for N=0")
	}
	if _, err := net.New(net.Config{N: 2}); err == nil {
		t.Error("expected error for missing automaton")
	}
}

// TestAllCandidatesDeliverEverywhere: under the concurrent runtime, every
// candidate delivers every broadcast message at every live node.
func TestAllCandidatesDeliverEverywhere(t *testing.T) {
	const n, k, perNode = 4, 2, 3
	for _, c := range broadcast.AllCandidates() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			nw, err := net.New(net.Config{
				N:            n,
				NewAutomaton: c.NewAutomaton,
				K:            c.OracleDegree(k),
				Seed:         1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Stop()
			for p := 1; p <= n; p++ {
				for j := 0; j < perNode; j++ {
					if _, err := nw.Broadcast(model.ProcID(p), model.Payload(fmt.Sprintf("m-%d-%d", p, j))); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := int64(n * perNode)
			ok := nw.WaitUntil(func() bool {
				for p := 1; p <= n; p++ {
					if nw.Delivered(model.ProcID(p)) < want {
						return false
					}
				}
				return true
			}, waitTimeout)
			if !ok {
				for p := 1; p <= n; p++ {
					t.Logf("p%d delivered %d/%d", p, nw.Delivered(model.ProcID(p)), want)
				}
				t.Fatal("not all messages delivered everywhere")
			}
			// No over-delivery (BC-No-Duplication).
			time.Sleep(10 * time.Millisecond)
			for p := 1; p <= n; p++ {
				if got := nw.Delivered(model.ProcID(p)); got != want {
					t.Errorf("p%d delivered %d, want exactly %d", p, got, want)
				}
			}
		})
	}
}

// TestDeliveryContentsValid: deliveries carry the broadcast contents and
// origins (BC-Validity end to end).
func TestDeliveryContentsValid(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int)
	nw, err := net.New(net.Config{
		N:            3,
		NewAutomaton: broadcast.NewReliable,
		OnDeliver: func(d net.Delivery) {
			mu.Lock()
			defer mu.Unlock()
			seen[fmt.Sprintf("%v|%v|%s", d.At, d.From, d.Payload)]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	if _, err := nw.Broadcast(2, "hello"); err != nil {
		t.Fatal(err)
	}
	ok := nw.WaitUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == 3
	}, waitTimeout)
	if !ok {
		t.Fatalf("deliveries: %v", seen)
	}
	mu.Lock()
	defer mu.Unlock()
	for p := 1; p <= 3; p++ {
		key := fmt.Sprintf("p%d|p2|hello", p)
		if seen[key] != 1 {
			t.Errorf("delivery %q seen %d times", key, seen[key])
		}
	}
}

// TestCrashDoesNotBlockOthers: with the reliable broadcast, a crashed node
// does not prevent the others from delivering.
func TestCrashDoesNotBlockOthers(t *testing.T) {
	nw, err := net.New(net.Config{N: 3, NewAutomaton: broadcast.NewReliable, MaxDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	if err := nw.Crash(3); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Broadcast(3, "x"); err == nil {
		t.Error("broadcast on crashed node should fail")
	}
	if _, err := nw.Broadcast(1, "a"); err != nil {
		t.Fatal(err)
	}
	ok := nw.WaitUntil(func() bool {
		return nw.Delivered(1) >= 1 && nw.Delivered(2) >= 1
	}, waitTimeout)
	if !ok {
		t.Error("live nodes did not deliver")
	}
	if nw.Delivered(3) != 0 {
		t.Error("crashed node delivered")
	}
}

// TestWithDelays: deliveries survive reordering delays.
func TestWithDelays(t *testing.T) {
	nw, err := net.New(net.Config{
		N:            3,
		NewAutomaton: broadcast.NewFIFO,
		MaxDelay:     300 * time.Microsecond,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	for j := 0; j < 5; j++ {
		if _, err := nw.Broadcast(1, model.Payload(fmt.Sprintf("f%d", j))); err != nil {
			t.Fatal(err)
		}
	}
	ok := nw.WaitUntil(func() bool {
		for p := 1; p <= 3; p++ {
			if nw.Delivered(model.ProcID(p)) < 5 {
				return false
			}
		}
		return true
	}, waitTimeout)
	if !ok {
		t.Error("FIFO deliveries incomplete under delays")
	}
}

func TestStats(t *testing.T) {
	nw, err := net.New(net.Config{N: 2, NewAutomaton: broadcast.NewSendToAll})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	if _, err := nw.Broadcast(1, "s"); err != nil {
		t.Fatal(err)
	}
	ok := nw.WaitUntil(func() bool {
		s := nw.StatsSnapshot()
		return s.Delivered == 2 && s.Sent == 2 && s.Broadcasts == 1
	}, waitTimeout)
	if !ok {
		t.Errorf("stats: %+v", nw.StatsSnapshot())
	}
}

func TestStopIdempotentAndTerminal(t *testing.T) {
	nw, err := net.New(net.Config{N: 2, NewAutomaton: broadcast.NewSendToAll})
	if err != nil {
		t.Fatal(err)
	}
	nw.Stop()
	nw.Stop() // must not panic
	if _, err := nw.Broadcast(1, "late"); err == nil {
		t.Error("broadcast after stop should fail")
	}
}

func TestBroadcastValidation(t *testing.T) {
	nw, err := net.New(net.Config{N: 2, NewAutomaton: broadcast.NewSendToAll})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	if _, err := nw.Broadcast(9, "x"); err == nil {
		t.Error("broadcast to unknown process should fail")
	}
	if err := nw.Crash(9); err == nil {
		t.Error("crash of unknown process should fail")
	}
	if nw.Delivered(9) != 0 {
		t.Error("unknown process delivered")
	}
}

// TestConcurrentBroadcasters: heavy concurrent load completes without
// loss; exercised with the race detector in CI.
func TestConcurrentBroadcasters(t *testing.T) {
	const n, perNode = 5, 10
	nw, err := net.New(net.Config{N: n, NewAutomaton: broadcast.NewReliable, MaxDelay: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	var wg sync.WaitGroup
	for p := 1; p <= n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				if _, err := nw.Broadcast(model.ProcID(p), model.Payload(fmt.Sprintf("c-%d-%d", p, j))); err != nil {
					t.Errorf("broadcast: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(n * perNode)
	ok := nw.WaitUntil(func() bool {
		for p := 1; p <= n; p++ {
			if nw.Delivered(model.ProcID(p)) < want {
				return false
			}
		}
		return true
	}, waitTimeout)
	if !ok {
		t.Fatal("concurrent load lost deliveries")
	}
}

// TestObsRegistryStats: with a Registry attached, the network's counters
// are registered under net.* names, the in-flight gauge drains to zero at
// Stop, and StatsSnapshot mirrors the registry values.
func TestObsRegistryStats(t *testing.T) {
	reg := obs.New()
	// MaxDelay > 0 forces the transit-goroutine path so the in-flight
	// gauge is exercised (zero delay forwards inline and never counts).
	nw, err := net.New(net.Config{N: 3, NewAutomaton: broadcast.NewSendToAll, Obs: reg, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Broadcast(1, "x"); err != nil {
		t.Fatal(err)
	}
	ok := nw.WaitUntil(func() bool { return nw.StatsSnapshot().Delivered == 3 }, waitTimeout)
	nw.Stop()
	if !ok {
		t.Fatalf("deliveries incomplete: %+v", nw.StatsSnapshot())
	}
	s := nw.StatsSnapshot()
	if got := reg.Counter("net.sent").Value(); got != s.Sent {
		t.Errorf("registry net.sent = %d, snapshot %d", got, s.Sent)
	}
	if got := reg.Counter("net.delivered").Value(); got != 3 {
		t.Errorf("registry net.delivered = %d, want 3", got)
	}
	if g := reg.Gauge("net.in_flight"); g.Value() != 0 || g.Max() < 1 {
		t.Errorf("in-flight gauge = %d (max %d), want 0 with max >= 1", g.Value(), g.Max())
	}
}

// TestDroppedAndCrashCounters: messages addressed to a crashed process are
// counted as dropped, and crashes are counted once even when repeated.
func TestDroppedAndCrashCounters(t *testing.T) {
	nw, err := net.New(net.Config{N: 2, NewAutomaton: broadcast.NewSendToAll})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()
	if err := nw.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := nw.Crash(2); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Broadcast(1, "to-the-dead"); err != nil {
		t.Fatal(err)
	}
	ok := nw.WaitUntil(func() bool {
		s := nw.StatsSnapshot()
		return s.Delivered >= 1 && s.Dropped >= 1
	}, waitTimeout)
	s := nw.StatsSnapshot()
	if !ok {
		t.Fatalf("expected at least one delivery and one drop: %+v", s)
	}
	if s.Crashes != 1 {
		t.Errorf("crashes = %d, want 1 (idempotent)", s.Crashes)
	}
}
