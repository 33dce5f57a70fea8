package adversary_test

import (
	"strings"
	"testing"

	"nobroadcast/internal/spec"
)

// TestLiveMonitorAgreesWithBatch: the Lemma 1-6 specs checked
// incrementally while Algorithm 1 runs latch the same verdicts a batch
// re-scan of α produces, and Verify consumes them (Result.Live is set on
// every fresh run).
func TestLiveMonitorAgreesWithBatch(t *testing.T) {
	res := mustRun(t, "first-k", 3, 2)
	if res.Live == nil {
		t.Fatal("Run did not attach the live monitor")
	}
	if res.Live.Steps() != res.Alpha.X.Len() {
		t.Fatalf("monitor saw %d steps, alpha has %d", res.Live.Steps(), res.Alpha.X.Len())
	}
	for _, s := range []spec.Spec{spec.KSA(3), spec.Channels(), spec.WellFormed()} {
		live, ok := res.Live.Verdict(s.Name())
		if !ok {
			t.Fatalf("%s not monitored", s.Name())
		}
		batch := s.Check(res.Alpha)
		if !spec.SameVerdict(live, batch) {
			t.Errorf("%s: live=%v batch=%v", s.Name(), live, batch)
		}
	}
	if reports, ok := res.Verify(); !ok {
		t.Fatalf("Verify failed with live verdicts: %+v", reports)
	}
}

// TestVerifyWithoutLiveMonitorFails: α's Lemma 1-6 verdicts come only from
// the live monitor, so a Result whose monitor is missing fails those
// lemmas instead of passing them unchecked.
func TestVerifyWithoutLiveMonitorFails(t *testing.T) {
	res := mustRun(t, "first-k", 2, 1)
	res.Live = nil
	reports, ok := res.Verify()
	if ok {
		t.Fatal("Verify passed without a live monitor")
	}
	failed := 0
	for _, rep := range reports {
		if !rep.OK {
			failed++
			if !strings.Contains(rep.Err, "not monitored") {
				t.Errorf("%s: %s", rep.Lemma, rep.Err)
			}
		}
	}
	if failed != 3 {
		t.Errorf("%d lemmas failed, want the 3 checked on alpha: %+v", failed, reports)
	}
}
