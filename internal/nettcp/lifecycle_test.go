package nettcp

import (
	stdnet "net"
	"runtime"
	"testing"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/trace"
)

// TestStartAwaitsLateTraceStream is the regression test for the lost
// trace stream: the test plays the only node over real sockets and opens
// its trace connection 200ms after fReady. Start must not return before
// that stream registers — otherwise a short run's Stop closes the
// listener with the connection still in its backlog, and Collect finds
// the node's stream missing ("magic: truncated trace stream"), which a
// socket conformance check reported as lost streams or made-up verdicts.
func TestStartAwaitsLateTraceStream(t *testing.T) {
	h, err := NewHarness(HarnessConfig{N: 1, Candidate: "send-to-all", StartTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	played := make(chan error, 1)
	go func() { played <- playLateNode(h.Addr(), 200*time.Millisecond) }()
	if err := h.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h.Stop()
	if err := <-played; err != nil {
		t.Fatalf("played node: %v", err)
	}
	tr, perNode, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if perNode[0].Err != nil {
		t.Fatalf("late trace stream lost: %v", perNode[0].Err)
	}
	if !tr.Complete || len(tr.X.Steps) != 1 {
		t.Fatalf("collected %d steps (complete=%v), want the played node's one step", len(tr.X.Steps), tr.Complete)
	}
}

// playLateNode speaks the node side of the protocol by hand: register,
// await the start frame, report ready, and only after lag open the trace
// stream, write one step and close it cleanly. It then holds the control
// connection until the harness stops the run.
func playLateNode(harness string, lag time.Duration) error {
	c, err := stdnet.Dial("tcp", harness)
	if err != nil {
		return err
	}
	defer c.Close()
	fc := newFrameConn(c)
	if err := fc.send(fHello, helloMsg{ID: 1, Addr: "127.0.0.1:1"}); err != nil {
		return err
	}
	if _, _, err := fc.recv(); err != nil {
		return err
	}
	if err := fc.send(fReady, struct{}{}); err != nil {
		return err
	}
	time.Sleep(lag)
	tc, err := stdnet.Dial("tcp", harness)
	if err != nil {
		return nil // the harness already stopped: Collect reports it
	}
	defer tc.Close()
	if err := newFrameConn(tc).send(fTraceHello, helloMsg{ID: 1}); err != nil {
		return nil
	}
	bw, err := trace.NewBinaryWriter(tc, trace.StreamHeader{N: 1, Complete: true, Name: "node-1", Steps: -1})
	if err != nil {
		return err
	}
	bw.Step(model.Step{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 1, Payload: "late"})
	if err := bw.Close(); err != nil {
		return nil
	}
	tc.Close()
	fc.recv() // fStop, or EOF once the harness hangs up
	return nil
}

// TestWaitUntilWakesOnStatusFrame: Cluster.WaitUntil re-checks its
// condition when the harness stores a status frame, not on a timer. The
// test plays the only node by hand and pushes one status frame 50ms into
// the wait; the wait must return true long before its timeout, having
// checked its condition once at the start and once for the frame.
func TestWaitUntilWakesOnStatusFrame(t *testing.T) {
	h, err := NewHarness(HarnessConfig{N: 1, Candidate: "send-to-all", StartTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{h: h}
	defer cl.Stop()
	push := make(chan struct{})
	played := make(chan error, 1)
	go func() { played <- playStatusNode(h.Addr(), push) }()
	if err := h.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(push)
	}()
	checks := 0
	began := time.Now()
	ok := cl.WaitUntil(func() bool { checks++; return cl.Delivered(1) >= 1 }, testWait)
	if elapsed := time.Since(began); !ok || elapsed > testWait/2 {
		t.Fatalf("WaitUntil = %v after %v, want true on the status frame", ok, elapsed)
	}
	if checks > 2 {
		t.Errorf("condition checked %d times for one status frame, want ≤ 2", checks)
	}
	cl.Stop()
	if err := <-played; err != nil {
		t.Fatalf("played node: %v", err)
	}
}

// playStatusNode speaks the node side of the protocol by hand: register,
// await the start frame, open an empty trace stream, report ready, and
// once push closes send one status frame reporting one delivery. It then
// holds the control connection until the harness stops the run.
func playStatusNode(harness string, push <-chan struct{}) error {
	c, err := stdnet.Dial("tcp", harness)
	if err != nil {
		return err
	}
	defer c.Close()
	fc := newFrameConn(c)
	if err := fc.send(fHello, helloMsg{ID: 1, Addr: "127.0.0.1:1"}); err != nil {
		return err
	}
	if _, _, err := fc.recv(); err != nil {
		return err
	}
	tc, err := stdnet.Dial("tcp", harness)
	if err != nil {
		return err
	}
	defer tc.Close()
	if err := newFrameConn(tc).send(fTraceHello, helloMsg{ID: 1}); err != nil {
		return err
	}
	bw, err := trace.NewBinaryWriter(tc, trace.StreamHeader{N: 1, Complete: true, Name: "node-1", Steps: -1})
	if err != nil {
		return err
	}
	if err := fc.send(fReady, struct{}{}); err != nil {
		return err
	}
	<-push
	if err := fc.send(fStatus, statusMsg{Delivered: 1}); err != nil {
		return err
	}
	fc.recv() // fStop, or EOF once the harness hangs up
	return bw.Close()
}

// TestClusterStopLeaksNoGoroutines: after an in-process cluster's Stop,
// the goroutine count returns to its pre-start value within 1s — on a
// clean run, with a killed node, and with every copy duplicated and
// delayed so copies are still in flight when the run stops.
func TestClusterStopLeaksNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
		kill bool
	}{
		{name: "clean", cfg: ClusterConfig{N: 3, K: 1, Candidate: "send-to-all", Seed: 1}},
		{name: "killed", cfg: ClusterConfig{N: 3, K: 1, Candidate: "send-to-all", Seed: 2}, kill: true},
		{name: "dup-delayed", cfg: ClusterConfig{
			N: 3, K: 1, Candidate: "reliable", Seed: 3,
			MaxDelay: 50 * time.Millisecond, Faults: &net.FaultPlan{Dup: 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cl, err := StartCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for p := 1; p <= tc.cfg.N; p++ {
				if _, err := cl.Broadcast(model.ProcID(p), model.Payload(tc.name)); err != nil {
					t.Fatal(err)
				}
			}
			cl.WaitUntil(func() bool { return cl.Delivered(1) >= 1 }, testWait)
			if tc.kill {
				if err := cl.Kill(3); err != nil {
					t.Fatal(err)
				}
			}
			cl.Stop()
			assertGoroutinesReturn(t, before)
		})
	}
}

// assertGoroutinesReturn fails unless the goroutine count drops back to
// at most before within 1s.
func assertGoroutinesReturn(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1s after Stop, %d before start:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
