package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/trace"
	"nobroadcast/internal/workload"
)

// checkUpload records the trace the daemon benchmark uploads to /v1/check:
// the total-order candidate at n=4, 62 uniform broadcasts, fair schedule.
func checkUpload(tb testing.TB, seed uint64) *trace.Trace {
	tb.Helper()
	cand, err := broadcast.Lookup("total-order")
	if err != nil {
		tb.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{Kind: workload.Uniform, N: 4, Messages: 62, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := sched.New(sched.Config{N: 4, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(2)})
	if err != nil {
		tb.Fatal(err)
	}
	t, err := rt.RunFair(sched.RunOptions{Broadcasts: reqs})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// encodeUpload encodes t in the binary wire format.
func encodeUpload(tb testing.TB, t *trace.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := t.EncodeBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkBody runs one binary upload through runCheck and returns the body.
func checkBody(tb testing.TB, s *Server, specName string, k int, upload []byte) []byte {
	tb.Helper()
	out, err := s.runCheck(context.Background(), specName, k, trace.ContentTypeBinary, bytes.NewReader(upload))
	if err != nil {
		tb.Fatalf("runCheck(%s, k=%d): %v", specName, k, err)
	}
	return out.body
}

// spreadID maps a small message id injectively onto the whole int64 range:
// by its residue mod 4 it stays put, is negated, or moves next to either
// end of the range.
func spreadID(m model.MsgID) model.MsgID {
	switch m % 4 {
	case 1:
		return -m
	case 2:
		return math.MaxInt64 - m
	case 3:
		return math.MinInt64 + m
	}
	return m
}

// strayProc returns a process id outside p1..pn.
func strayProc(src *rng.Source, n int) model.ProcID {
	switch src.Intn(5) {
	case 0:
		return 0
	case 1:
		return -1 - model.ProcID(src.Intn(3))
	case 2:
		return model.ProcID(n + 1 + src.Intn(2))
	case 3:
		return 65
	}
	return 1 << 33
}

// recordedUpload is a random schedule of a random candidate, perturbed the
// way a hand-made or corrupted upload can be: ids spread over the int64
// range, invocations moved past their deliveries or dropped, steps
// repeated, steps by processes outside p1..pn, crashes, Batch tags.
func recordedUpload(tb testing.TB, src *rng.Source) *trace.Trace {
	tb.Helper()
	cands := broadcast.AllCandidates()
	cand := cands[src.Intn(len(cands))]
	n := 2 + src.Intn(3)
	reqs, err := workload.Generate(workload.Config{Kind: workload.Uniform, N: n, Messages: 2 + src.Intn(6), Seed: src.Uint64()})
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := sched.New(sched.Config{N: n, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(2)})
	if err != nil {
		tb.Fatal(err)
	}
	t, err := rt.RunRandom(sched.RunOptions{Seed: src.Uint64(), MaxEvents: 300, Broadcasts: reqs})
	if err != nil {
		tb.Fatal(err)
	}
	spread := src.Intn(4) != 0
	batched := src.Intn(3) == 0
	var out, held []model.Step
	for _, s := range t.X.Steps {
		if spread {
			s.Msg = spreadID(s.Msg)
		}
		if batched && s.Kind == model.KindDeliver {
			s.Batch = int64(src.Intn(4))
		}
		switch r := src.Intn(40); {
		case s.Kind == model.KindBroadcastInvoke && r < 10:
			if r != 0 { // else never broadcast
				held = append(held, s)
			}
			continue
		case r < 3 && s.Kind != model.KindBroadcastInvoke:
			out = append(out, s) // repeated below
		case r == 3:
			s.Proc = strayProc(src, n)
		case r == 4:
			out = append(out, model.Step{Proc: model.ProcID(1 + src.Intn(n)), Kind: model.KindCrash})
		}
		out = append(out, s)
		for len(held) > 0 && src.Intn(4) == 0 {
			j := src.Intn(len(held))
			out = append(out, held[j])
			held = append(held[:j], held[j+1:]...)
		}
	}
	out = append(out, held...)
	return &trace.Trace{X: &model.Execution{N: n, Steps: out}, Complete: src.Bool(), Name: cand.Name}
}

// messyUpload is a step soup no runtime records: every kind, random
// processes inside and outside p1..pn, ids drawn from a small pool spread
// over the int64 range, so repeats of every kind are common.
func messyUpload(src *rng.Source) *trace.Trace {
	n := 1 + src.Intn(5)
	pool := make([]model.MsgID, 3+src.Intn(8))
	for i := range pool {
		pool[i] = spreadID(model.MsgID(i))
	}
	proc := func() model.ProcID {
		if src.Intn(8) == 0 {
			return strayProc(src, n)
		}
		return model.ProcID(1 + src.Intn(n))
	}
	kinds := []model.StepKind{
		model.KindBroadcastInvoke, model.KindBroadcastInvoke, model.KindBroadcastReturn,
		model.KindDeliver, model.KindDeliver, model.KindDeliver, model.KindDeliver,
		model.KindSend, model.KindReceive, model.KindPropose, model.KindDecide,
		model.KindInternal, model.KindCrash,
	}
	steps := make([]model.Step, 0, 60)
	for len(steps) < cap(steps) && src.Intn(60) != 0 {
		m := pool[src.Intn(len(pool))]
		s := model.Step{Proc: proc(), Kind: kinds[src.Intn(len(kinds))], Msg: m, Peer: proc(),
			Payload: model.Payload("v" + strconv.Itoa(int(uint64(m)%3)))}
		switch s.Kind {
		case model.KindDeliver:
			s.Batch = int64(src.Intn(3))
		case model.KindPropose, model.KindDecide:
			s.Msg, s.Peer, s.Payload = 0, 0, ""
			s.Obj, s.Val = model.KSAID(1+src.Intn(2)), model.Value("x"+strconv.Itoa(src.Intn(3)))
		case model.KindCrash, model.KindInternal:
			s.Msg, s.Peer, s.Payload = 0, 0, ""
		}
		steps = append(steps, s)
	}
	return &trace.Trace{X: &model.Execution{N: n, Steps: steps}, Complete: src.Bool(), Name: "messy"}
}

// hostileUpload is a 10,000-step upload under a 4,096-process header:
// broadcasts, deliveries, sends and receives by processes across the whole
// range (and a few outside it), and a crash now and then. With spread set,
// every message id is drawn from the whole int64 range; otherwise the same
// ids are renumbered 1..M in order of first appearance.
func hostileUpload(spread bool) *trace.Trace {
	const n, steps = 4096, 10_000
	src := rng.New(4096)
	used := make(map[model.MsgID]bool)
	next := model.MsgID(0)
	fresh := func() model.MsgID {
		for {
			m := model.MsgID(src.Uint64())
			if m == 0 || used[m] {
				continue
			}
			used[m] = true
			if next++; !spread {
				return next
			}
			return m
		}
	}
	proc := func() model.ProcID {
		if src.Intn(50) == 0 {
			return strayProc(src, n)
		}
		return model.ProcID(1 + src.Intn(n))
	}
	type bcast struct {
		m    model.MsgID
		from model.ProcID
		by   map[model.ProcID]bool
	}
	var bcasts []bcast
	var sends []model.Step
	x := &model.Execution{N: n, Steps: make([]model.Step, 0, steps)}
	for len(x.Steps) < steps {
		switch r := src.Intn(20); {
		case r < 4 || len(bcasts) == 0:
			b := bcast{m: fresh(), from: proc(), by: make(map[model.ProcID]bool)}
			bcasts = append(bcasts, b)
			x.Append(model.Step{Proc: b.from, Kind: model.KindBroadcastInvoke, Msg: b.m, Payload: "h"})
			x.Append(model.Step{Proc: b.from, Kind: model.KindBroadcastReturn, Msg: b.m})
		case r < 14:
			// Recent broadcasts are delivered most, so messages gather
			// many deliverers.
			b := bcasts[len(bcasts)-1-src.Intn(min(len(bcasts), 8))]
			if p := proc(); !b.by[p] {
				b.by[p] = true
				x.Append(model.Step{Proc: p, Kind: model.KindDeliver, Peer: b.from, Msg: b.m, Payload: "h", Batch: int64(src.Intn(2))})
			}
		case r < 17:
			s := model.Step{Proc: proc(), Kind: model.KindSend, Peer: proc(), Msg: fresh(), Payload: "s"}
			sends = append(sends, s)
			x.Append(s)
		case r < 19 && len(sends) > 0:
			s := sends[src.Intn(len(sends))]
			x.Append(model.Step{Proc: s.Peer, Kind: model.KindReceive, Peer: s.Proc, Msg: s.Msg, Payload: s.Payload})
		default:
			if src.Intn(10) == 0 {
				x.Append(model.Step{Proc: proc(), Kind: model.KindCrash})
			}
		}
	}
	x.Steps = x.Steps[:steps]
	return &trace.Trace{X: x, Complete: true, Name: "hostile"}
}

// TestCheckBodiesPinned pins the bytes of /v1/check bodies, spec=all at
// k=1..3, to a digest taken while every checker kept its state in maps:
// on the daemon benchmark's upload, on 1,000 random uploads (half of them
// perturbed recordings, half step soup), and on the hostile upload of
// TestCheckHostileIDsStayLinear. Every verdict, witness and latched step
// is covered; nothing is masked.
func TestCheckBodiesPinned(t *testing.T) {
	const want = "2e72ea262ef185ae86f660ee3115f7ada4e774f6275b7d0781cc50e64c42f2d0"
	s := New(Config{Obs: obs.New()})
	h := sha256.New()
	add := func(tr *trace.Trace) {
		up := encodeUpload(t, tr)
		for k := 1; k <= 3; k++ {
			h.Write(checkBody(t, s, "all", k, up))
		}
	}
	add(checkUpload(t, rng.Derive(3, 1<<33)))
	src := rng.New(24)
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			add(recordedUpload(t, src.Split()))
		} else {
			add(messyUpload(src.Split()))
		}
	}
	h.Write(checkBody(t, s, "all", 2, encodeUpload(t, hostileUpload(true))))
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest of the check bodies = %s, want %s", got, want)
	}
}

// TestCheckHostileIDsStayLinear: message ids spread over the whole int64
// range, negative ones included, under a 4,096-process header must not
// cost a check much more than the same upload with its ids renumbered
// 1..M: the checkers' memory follows the ids and processes an upload
// names, not their values.
func TestCheckHostileIDsStayLinear(t *testing.T) {
	s := New(Config{Obs: obs.New()})
	alloc := func(up []byte) (uint64, []byte) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body := checkBody(t, s, "all", 2, up)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, body
	}
	spread, dense := encodeUpload(t, hostileUpload(true)), encodeUpload(t, hostileUpload(false))
	sa, sbody := alloc(spread)
	da, dbody := alloc(dense)
	if !bytes.Contains(sbody, []byte(`"steps":10000`)) || !bytes.Contains(dbody, []byte(`"steps":10000`)) {
		t.Fatalf("hostile uploads were not checked in full:\n%s\n%s", sbody, dbody)
	}
	t.Logf("spread ids: %d KiB allocated, renumbered: %d KiB", sa>>10, da>>10)
	if sa > 2*da {
		t.Fatalf("spread ids allocated %d bytes, more than twice the %d of the renumbered upload", sa, da)
	}
}

// BenchmarkCheckUpload times runCheck, spec=all at k=2, on the daemon
// benchmark's upload. `make profile-check` profiles it.
func BenchmarkCheckUpload(b *testing.B) {
	s := New(Config{Obs: obs.New()})
	up := encodeUpload(b, checkUpload(b, rng.Derive(3, 1<<33)))
	b.SetBytes(int64(len(up)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkBody(b, s, "all", 2, up)
	}
}
