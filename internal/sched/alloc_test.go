package sched_test

import (
	"runtime"
	"testing"
	"unsafe"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
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

// chattyAutomaton takes steps internal steps at Init and nothing else.
type chattyAutomaton struct{ steps int }

func (a chattyAutomaton) Init(env *sched.Env) {
	for i := 0; i < a.steps; i++ {
		env.Internal("tick")
	}
}
func (chattyAutomaton) OnBroadcast(*sched.Env, model.MsgID, model.Payload) {}
func (chattyAutomaton) OnReceive(*sched.Env, model.ProcID, model.Payload)  {}
func (chattyAutomaton) OnDecide(*sched.Env, model.KSAID, model.Value)      {}

// TestResetReplayAllocatesNoStepChunk pins the reuse a minimization
// relies on: a replay on a reset runtime records into the step log's old
// chunks. The run records 3,000 steps, three chunks; a replay allocates
// less than the smallest chunk the log ever makes (32 steps), so it made
// none. Not parallel: the measurement reads the process-wide allocation
// counter.
func TestResetReplayAllocatesNoStepChunk(t *testing.T) {
	const n, perProc = 3, 1000
	rt, err := sched.New(sched.Config{N: n, NewAutomaton: func(model.ProcID) sched.Automaton { return chattyAutomaton{steps: perProc} }})
	if err != nil {
		t.Fatal(err)
	}
	rec := sched.NewRecorder(sched.NewRandom())
	if _, err := rt.Drive(rec, sched.RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	decisions := append([]sched.Event(nil), rec.Decisions()...)
	replay := func() {
		rt.Reset(nil)
		if _, err := rt.Drive(sched.NewReplay(decisions), sched.RunOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if got := rt.StepCount(); got != n*perProc {
			t.Fatalf("replay recorded %d steps, want %d", got, n*perProc)
		}
	}
	replay()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		replay()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B allocated per replay of %d steps", perRun, n*perProc)
	if bound := 32 * uint64(unsafe.Sizeof(model.Step{})); perRun >= bound {
		t.Errorf("a replay on a reset runtime allocated %d B, want less than one 32-step chunk (%d B)", perRun, bound)
	}
}
