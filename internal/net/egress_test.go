package net

import (
	"errors"
	"testing"
	"time"

	"nobroadcast/internal/model"
)

func TestEgressReliableDefaults(t *testing.T) {
	e, err := NewEgress(nil, 3, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ds, copies := e.Pass(1, 2)
		if copies != 1 || ds[0] != 0 {
			t.Fatalf("reliable zero-delay egress returned %v", ds[:copies])
		}
	}
	st := e.Stats()
	if st.Sent != 100 || st.FaultDrops != 0 || st.FaultDups != 0 {
		t.Fatalf("stats = %+v, want 100 clean sends", st)
	}
}

func TestEgressDropAndDup(t *testing.T) {
	e, err := NewEgress(&FaultPlan{Drop: 0.5, Dup: 0.5}, 2, 42, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lost, dups int
	for i := 0; i < 1000; i++ {
		switch _, copies := e.Pass(1, 2); copies {
		case 0:
			lost++
		case 2:
			dups++
		}
	}
	if lost < 300 || lost > 700 {
		t.Errorf("0.5 drop lost %d/1000", lost)
	}
	if dups < 100 {
		t.Errorf("0.5 dup duplicated %d/1000", dups)
	}
	st := e.Stats()
	if st.FaultDrops != int64(lost) || st.FaultDups != int64(dups) {
		t.Errorf("stats %+v disagree with observed lost=%d dups=%d", st, lost, dups)
	}
}

func TestEgressPartitionCutsAndHeals(t *testing.T) {
	e, err := NewEgress(&FaultPlan{Partitions: []Partition{{
		A: []model.ProcID{1}, B: []model.ProcID{2},
		Start: 0, Heal: 50 * time.Millisecond,
	}}}, 2, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds, copies := e.Pass(1, 2); copies != 0 {
		t.Fatalf("active partition passed a message: %v", ds[:copies])
	}
	if _, copies := e.Pass(2, 1); copies != 0 {
		t.Fatal("partitions cut both directions")
	}
	time.Sleep(60 * time.Millisecond)
	if ds, copies := e.Pass(1, 2); copies != 1 {
		t.Fatalf("healed link still cut: %v", ds[:copies])
	}
	if e.Stats().PartitionDrops != 2 {
		t.Errorf("PartitionDrops = %d, want 2", e.Stats().PartitionDrops)
	}
}

func TestEgressSeededDeterminism(t *testing.T) {
	mk := func() []int {
		e, err := NewEgress(&FaultPlan{Drop: 0.3, Dup: 0.3}, 2, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 200)
		for i := range out {
			_, out[i] = e.Pass(1, 2)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at send %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEgressRejectsBadPlan(t *testing.T) {
	if _, err := NewEgress(&FaultPlan{Drop: 2}, 2, 1, 0, nil); err == nil {
		t.Fatal("NewEgress accepted drop probability 2")
	}
	var vErr error
	if vErr = (&FaultPlan{Links: map[Link]LinkFaults{{From: 1, To: 9}: {}}}).Validate(2); vErr == nil {
		t.Fatal("Validate accepted a link outside the system")
	}
	if errors.Is(vErr, nil) {
		t.Fatal("unreachable")
	}
}
