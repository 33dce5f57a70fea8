package adversary

import (
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/trace"
)

// TestProposeDecideWitnessDeterministic: with several proposals left open,
// the Lemma 3 report names the lowest process, then the lowest object,
// whatever the map order, so 1,000 checks give one string.
func TestProposeDecideWitnessDeterministic(t *testing.T) {
	x := model.NewExecution(3)
	for _, s := range []model.Step{
		{Proc: 3, Kind: model.KindPropose, Obj: 1, Val: "a"},
		{Proc: 2, Kind: model.KindPropose, Obj: 5, Val: "b"},
		{Proc: 2, Kind: model.KindPropose, Obj: 4, Val: "c"},
		{Proc: 1, Kind: model.KindPropose, Obj: 2, Val: "d"},
		{Proc: 1, Kind: model.KindDecide, Obj: 2, Val: "d"},
	} {
		x.Append(s)
	}
	tr := &trace.Trace{X: x}
	const want = "p2 proposed on ksa4 but never decides"
	for i := 0; i < 1000; i++ {
		if err := checkEveryProposeDecides(tr); err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
}
