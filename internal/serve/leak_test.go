package serve

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDrainLeaksNoGoroutines: once Drain returns, the test server is
// closed and the client's idle connections are dropped, the goroutine
// count returns to its pre-start value within 1s, after one completed
// job on each runtime — the deterministic one, the in-memory concurrent
// network and an in-process TCP socket cluster.
func TestDrainLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{Workers: 2})
	client := &http.Client{Transport: &http.Transport{}}
	for _, req := range []string{
		`{"candidate":"fifo","runtime":"sched","n":3,"workload":{"messages":6}}`,
		`{"candidate":"reliable","runtime":"net","n":3,"seed":7,"workload":{"messages":6}}`,
		`{"candidate":"send-to-all","runtime":"tcp","n":3,"seed":11,"workload":{"messages":6}}`,
	} {
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatalf("POST %s: %v", req, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading response to %s: %v", req, err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"complete":true`) {
			t.Fatalf("run %s: status %d, body %s", req, resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts.Close()
	client.CloseIdleConnections()

	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1s after Drain, %d before start:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
