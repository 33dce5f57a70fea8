package sched_test

import (
	"runtime"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/sched"
)

// TestShortRunAllocatesLittle pins the runtime's allocation diet: a short
// run allocates in proportion to the steps it records, not a whole
// step-log chunk (≈96 KiB) before its first step. The run is a 3-process
// fifo RunFair with one broadcast, 29 steps. Not parallel: the
// measurement reads the process-wide allocation counter.
func TestShortRunAllocatesLittle(t *testing.T) {
	cand, err := broadcast.Lookup("fifo")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rt, err := sched.New(sched.Config{N: 3, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(1)})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rt.RunFair(sched.RunOptions{Broadcasts: []sched.BroadcastReq{{Proc: 1, Payload: "m"}}})
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.X.Len(); got != 29 {
			t.Fatalf("run recorded %d steps, want 29", got)
		}
	}
	run() // keep one-time lazy set-up out of the average
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B allocated per run", perRun)
	const bound = 48 << 10
	if perRun > bound {
		t.Errorf("a 29-step run allocated %d B, want at most %d", perRun, bound)
	}
}
