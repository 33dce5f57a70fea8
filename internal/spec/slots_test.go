package spec

import (
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
)

// TestIDTableNumbersFirstAppearance: each namespace numbers its ids 0, 1,
// 2… in the order they first appear and gives a repeated id its old slot,
// whichever way the id resolves (the slice, the map, or the map of ids
// reused across namespaces), and the slice stays within its bound.
func TestIDTableNumbersFirstAppearance(t *testing.T) {
	src := rng.New(7)
	var tab idTable
	want := [2]map[model.MsgID]int{{}, {}}
	var seen []model.MsgID
	for i := 0; i < 20_000; i++ {
		var m model.MsgID
		switch src.Intn(5) {
		case 0:
			m = model.MsgID(src.Intn(300))
		case 1:
			m = -model.MsgID(src.Intn(50))
		case 2:
			m = model.MsgID(src.Uint64())
		case 3:
			m = model.MsgID(src.Intn(100_000))
		default:
			if len(seen) == 0 {
				continue
			}
			m = seen[src.Intn(len(seen))]
		}
		seen = append(seen, m)
		ns := src.Intn(2)
		w, ok := want[ns][m]
		if !ok {
			w = len(want[ns])
			want[ns][m] = w
		}
		if got := tab.slot(m, ns); got != w {
			t.Fatalf("step %d: id %d in namespace %d got slot %d, want %d", i, m, ns, got, w)
		}
		if len(tab.dense) > 2*tab.ids+64 {
			t.Fatalf("step %d: id slice of %d entries for %d ids", i, len(tab.dense), tab.ids)
		}
	}
	if len(tab.cross) == 0 || len(tab.sparse) == 0 || len(tab.dense) == 0 {
		t.Fatalf("a path went unused: %d in the slice, %d in the map, %d reused across namespaces", len(tab.dense), len(tab.sparse), len(tab.cross))
	}
}
