package spec

import (
	"fmt"
	"reflect"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
)

// Differential tests of the conflict stream: the production form (dense
// per-message slots, the running-maxima early exit) must return, step for
// step, exactly the conflicts and order of the reference form in
// online_order_ref_test.go, which rescans every pair's common messages on
// each first delivery. Equal conflict lists keep every Total-Order/SCD
// Detail and StepIdx and every k-BO/k-SCD clique search, budget included.

// matchConflictStreams feeds steps to both streams in both key modes and
// reports the first step whose conflict lists differ. It returns how many
// conflicts were compared.
func matchConflictStreams(n int, steps []model.Step) (int, error) {
	compared := 0
	for _, scd := range []bool{false, true} {
		got, want := newConflictStream(n, scd), newRefConflictStream(n, scd)
		var ids idTable
		for i, s := range steps {
			g, w := got.step(&steps[i], ids.stepSlot(&steps[i])), want.step(s)
			if !reflect.DeepEqual(g, w) {
				return compared, fmt.Errorf("scd=%v step %d (%v): got %v, reference %v", scd, i, s, g, w)
			}
			compared += len(w)
		}
	}
	return compared, nil
}

// perturbSteps moves some invocations later, past some or all of their
// deliveries, drops the odd one, repeats some deliveries and adds
// deliveries by processes outside p1..pn: the inputs an admissible
// generator never produces, and the ones that take the tracker's full-scan
// path.
func perturbSteps(src *rng.Source, n int, steps []model.Step) []model.Step {
	out := make([]model.Step, 0, len(steps)+len(steps)/4)
	var moved []model.Step
	for _, s := range steps {
		switch {
		case s.Kind == model.KindBroadcastInvoke && src.Intn(3) == 0:
			if src.Intn(6) != 0 { // else never broadcast
				moved = append(moved, s)
			}
			continue
		case s.Kind == model.KindDeliver && src.Intn(8) == 0:
			out = append(out, s)
			dup := s
			dup.Batch = int64(src.Intn(3))
			moved = append(moved, dup)
		case s.Kind == model.KindDeliver && src.Intn(10) == 0:
			f := s
			if src.Bool() {
				f.Proc = model.ProcID(n + 1 + src.Intn(3))
			} else {
				f.Proc = model.ProcID(-src.Intn(2))
			}
			out = append(out, f)
		}
		out = append(out, s)
		// Release held steps at random later points.
		for len(moved) > 0 && src.Intn(4) == 0 {
			j := src.Intn(len(moved))
			out = append(out, moved[j])
			moved = append(moved[:j], moved[j+1:]...)
		}
	}
	return append(out, moved...)
}

// TestConflictStreamMatchesScan compares the conflict stream with the
// reference full-rescan tracker on random traces of 2–5 processes (half of
// them perturbed by perturbSteps) and on the conflict-heavy traces, whose
// every delivery by p2 takes the full scan.
func TestConflictStreamMatchesScan(t *testing.T) {
	src := rng.New(2020)
	total := 0
	for round := 0; round < 3000; round++ {
		n := 2 + src.Intn(4)
		tr := genTraceFull(src.Split(), n, 2+src.Intn(11))
		steps := tr.X.Steps
		if round%2 == 1 {
			steps = perturbSteps(src.Split(), n, steps)
		}
		c, err := matchConflictStreams(n, steps)
		if err != nil {
			t.Fatalf("round %d (n=%d): %v\nsteps: %v", round, n, err, steps)
		}
		total += c
	}
	for _, msgs := range []int{4, 12, 30} {
		tr := conflictHeavyTrace(3, msgs)
		c, err := matchConflictStreams(3, tr.X.Steps)
		if err != nil {
			t.Fatalf("conflict-heavy %d: %v", msgs, err)
		}
		if want := msgs * (msgs - 1); c != want { // both key modes
			t.Fatalf("conflict-heavy %d: %d conflicts, want %d", msgs, c, want)
		}
		total += c
	}
	if total < 5000 {
		t.Fatalf("only %d conflicts compared: the traces no longer exercise the scan", total)
	}
	t.Logf("%d conflicts compared", total)
}

// Fuzz input layout: byte 0 picks n (1–6); then 3 bytes per step.
//   - kind byte: bits 0-1 select invoke (0), deliver (1, 2) or broadcast
//     return (3, which the stream ignores); bits 2-3 are the Batch tag.
//   - process byte: below 0xc0 it is p1..pn; 0xc0+i for i < 32 is the
//     process -i (p0 included); 0xe0+i is p(n+1+i).
//   - message byte: the MsgID modulo 16, so random inputs reuse ids.
func fuzzSteps(data []byte) (int, []model.Step) {
	if len(data) == 0 {
		return 1, nil
	}
	n := 1 + int(data[0])%6
	var steps []model.Step
	for i := 1; i+3 <= len(data); i += 3 {
		kb, pb, mb := data[i], int(data[i+1]), data[i+2]
		s := model.Step{Msg: model.MsgID(mb % 16)}
		switch kb & 3 {
		case 0:
			s.Kind = model.KindBroadcastInvoke
		case 3:
			s.Kind = model.KindBroadcastReturn
		default:
			s.Kind = model.KindDeliver
			s.Batch = int64(kb>>2) & 3
		}
		switch {
		case pb < 0xc0:
			s.Proc = model.ProcID(1 + pb%n)
		case pb < 0xe0:
			s.Proc = model.ProcID(-(pb - 0xc0))
		default:
			s.Proc = model.ProcID(n + 1 + pb - 0xe0)
		}
		steps = append(steps, s)
	}
	return n, steps
}

// fuzzBytes is fuzzSteps' inverse for steps it can express.
func fuzzBytes(n int, steps []model.Step) []byte {
	out := []byte{byte(n - 1)}
	for _, s := range steps {
		var kb byte
		switch s.Kind {
		case model.KindBroadcastInvoke:
			kb = 0
		case model.KindDeliver:
			kb = 1 | byte(s.Batch&3)<<2
		default:
			kb = 3
		}
		var pb int
		switch p := int(s.Proc); {
		case p >= 1 && p <= n:
			pb = p - 1
		case p <= 0:
			pb = 0xc0 - p
		default:
			pb = 0xe0 + p - n - 1
		}
		out = append(out, kb, byte(pb), byte(s.Msg%16))
	}
	return out
}

// FuzzConflictStream asserts the conflict stream equals the reference on
// arbitrary step sequences, in both key modes. The seeds are the corners
// of TestOnlineEqualsBatchOnCorners and SCD parked deliveries inside a
// delivered set.
func FuzzConflictStream(f *testing.F) {
	b := func(p model.ProcID, m model.MsgID) []model.Step {
		return []model.Step{
			{Proc: p, Kind: model.KindBroadcastInvoke, Msg: m},
			{Proc: p, Kind: model.KindBroadcastReturn, Msg: m},
		}
	}
	d := func(p model.ProcID, m model.MsgID, batch int64) model.Step {
		return model.Step{Proc: p, Kind: model.KindDeliver, Msg: m, Batch: batch}
	}
	cat := func(groups ...[]model.Step) []model.Step {
		var out []model.Step
		for _, g := range groups {
			out = append(out, g...)
		}
		return out
	}
	seeds := [][]model.Step{
		// deliver-before-broadcast, never-broadcast and foreign-proc.
		cat(b(1, 1), []model.Step{d(1, 1, 0), d(1, 2, 0), d(2, 2, 0), d(2, 1, 0)}, b(2, 2)),
		cat(b(1, 1), []model.Step{d(1, 1, 0), d(1, 2, 0), d(2, 2, 0), d(2, 1, 0)}),
		cat(b(1, 1), b(2, 2), []model.Step{d(9, 1, 0), d(9, 2, 0), d(1, 1, 0), d(1, 2, 0), d(2, 2, 0), d(2, 1, 0)}),
		// SCD: p1 delivers m1 and the not-yet-broadcast m2 in one set, so
		// the parked m2 shares m1's ordinal; p2 orders them. Then the same
		// with m2 in p1's next set, which conflicts.
		cat(b(1, 1), []model.Step{d(1, 1, 1), d(1, 2, 1), d(2, 2, 2), d(2, 1, 3)}, b(2, 2)),
		cat(b(1, 1), []model.Step{d(1, 1, 1), d(1, 2, 2), d(2, 2, 3), d(2, 1, 1)}, b(2, 2)),
	}
	for _, s := range seeds {
		data := fuzzBytes(3, s)
		if n, got := fuzzSteps(data); n != 3 || !reflect.DeepEqual(got, s) {
			f.Fatalf("seed does not round-trip: n=%d, %v, want %v", n, got, s)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, steps := fuzzSteps(data)
		if _, err := matchConflictStreams(n, steps); err != nil {
			t.Fatalf("n=%d: %v\nsteps: %v", n, err, steps)
		}
	})
}
