package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/rng"
)

// BenchmarkRunNet sends one net-runtime /v1/run body per iteration
// through the handler: the daemon benchmark's recipe, a random candidate
// at n=3, k=2 with fresh network and workload seeds, on one goroutine.
// Net bodies bypass the result cache, so every iteration starts a
// network, drives the workload script to convergence and checks the
// trace. `make profile-net` profiles it.
func BenchmarkRunNet(b *testing.B) {
	s := New(Config{})
	defer s.Drain(context.Background()) //nolint:errcheck
	cands := broadcast.Names()
	r := rng.New(rng.Derive(11, 1<<34))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(map[string]any{
			"candidate": cands[r.Intn(len(cands))], "runtime": "net", "n": 3, "k": 2,
			"seed": r.Uint64(), "workload": map[string]uint64{"seed": r.Uint64()},
		})
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		var resp RunResponse
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil || !resp.Complete {
			b.Fatalf("net run %s: status %d: %s", body, w.Code, w.Body.Bytes())
		}
	}
}
