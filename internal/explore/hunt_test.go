package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"nobroadcast/internal/rng"
)

// huntOptions is one op of ksabench's hunt workload: kbo's message-passing
// attempt at k-BO broadcast at n=3, k=2, 16 random schedules, the first
// violation delta-debugged, on one worker.
func huntOptions(seed uint64) Options {
	return Options{
		Candidate: "kbo", N: 3, K: 2, Strategy: "random",
		Schedules: 16, Minimize: 1, Workers: 1, Seed: seed,
	}
}

// TestHuntResultsPinned pins the bytes of 20 hunt Results, minimized
// counterexamples and replay counts included, to a digest taken when every
// ddmin replay still built its own runtime and trace. Sharing one reset
// runtime per minimization must not change a byte, nor which candidates
// ddmin tries.
func TestHuntResultsPinned(t *testing.T) {
	const want = "aaec69359d050b51598e2cc29c543e3dae6b3b2c8a4460f49dbd76952cec2a4d"
	h := sha256.New()
	for i := 0; i < 20; i++ {
		res, err := Run(context.Background(), huntOptions(rng.Derive(1, uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest of 20 hunt Results = %s, want %s", got, want)
	}
}

// BenchmarkExploreHunt runs hunt ops, each with its own seed, as the hunt
// workload does. `make profile-hunt` profiles it.
func BenchmarkExploreHunt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), huntOptions(rng.Derive(1, uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
