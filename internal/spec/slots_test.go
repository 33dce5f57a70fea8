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

// TestSlotlessMonitorNumbersNoIDs: a Monitor whose leaves all ignore the
// slot (Well-Formed and k-SA) numbers no message id, and one more leaf
// that reads slots makes it number every id, as before.
func TestSlotlessMonitorNumbersNoIDs(t *testing.T) {
	const n = 3
	steps := []model.Step{
		{Proc: 1, Kind: model.KindBroadcastInvoke, Msg: 7, Payload: "a"},
		{Proc: 1, Kind: model.KindSend, Peer: 2, Msg: 8, Payload: "a"},
		{Proc: 2, Kind: model.KindReceive, Peer: 1, Msg: 8, Payload: "a"},
		{Proc: 2, Kind: model.KindDeliver, Peer: 1, Msg: 7, Payload: "a"},
		{Proc: 1, Kind: model.KindBroadcastReturn, Msg: 7},
	}
	for _, tc := range []struct {
		name     string
		specs    []Spec
		numbered bool
	}{
		{"well-formed", []Spec{WellFormed()}, false},
		{"ksa", []Spec{KSA(2)}, false},
		{"both", []Spec{WellFormed(), KSA(2)}, false},
		{"with-basic", []Spec{WellFormed(), SendToAll()}, true},
	} {
		m := NewMonitor(n, tc.specs...)
		for i := range steps {
			m.FeedStep(&steps[i])
		}
		if m.numbered != tc.numbered {
			t.Errorf("%s: numbered = %v, want %v", tc.name, m.numbered, tc.numbered)
		}
		if want := map[bool]int{false: 0, true: 2}[tc.numbered]; m.ids.ids != want {
			t.Errorf("%s: %d ids numbered, want %d", tc.name, m.ids.ids, want)
		}
	}
}
