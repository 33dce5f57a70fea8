package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// TestRunCacheByteIdentical is the acceptance criterion: a repeated
// identical POST /v1/run is served from the cache with a byte-identical
// body, and serve.cache_hits increments.
func TestRunCacheByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := `{"candidate":"fifo","n":3,"workload":{"messages":6}}`

	r1, b1 := postJSON(t, ts.URL+"/v1/run", req)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d, body %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first run X-Cache = %q, want miss", got)
	}
	r2, b2 := postJSON(t, ts.URL+"/v1/run", req)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d, body %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached body differs:\n first: %s\nsecond: %s", b1, b2)
	}
	if hits := s.hits.Value(); hits != 1 {
		t.Fatalf("serve.cache_hits = %d, want 1", hits)
	}
	if misses := s.misses.Value(); misses != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1", misses)
	}
	var doc RunResponse
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("result document: %v", err)
	}
	if doc.Verdict != "" {
		t.Fatalf("fifo run rejected: %s", doc.Verdict)
	}
	if !doc.Complete || doc.Deliveries != 6*3 {
		t.Fatalf("unexpected result: complete=%v deliveries=%d", doc.Complete, doc.Deliveries)
	}

	// An equivalent request with defaults spelled out normalizes to the
	// same hash and also hits.
	r3, _ := postJSON(t, ts.URL+"/v1/run", `{"candidate":"fifo","runtime":"sched","n":3,"k":2,"workload":{"kind":"uniform","messages":6}}`)
	if got := r3.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("normalized-equal request X-Cache = %q, want hit", got)
	}
}

// TestRunValidation: malformed parameters are rejected up front with 400,
// before touching the job machinery.
func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"candidate":"no-such-candidate"}`,
		`{"candidate":"fifo","n":-2}`,
		`{"candidate":"fifo","n":100000}`,
		`{"candidate":"fifo","k":9,"n":4}`,
		`{"candidate":"fifo","runtime":"quantum"}`,
		`{"candidate":"fifo","workload":{"kind":"prime"}}`,
		`{"candidate":"fifo","drop":0.5}`,
		`not json`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

// blockingJob submits a managed job whose body blocks until release is
// closed, through the real handler path.
func blockingJob(s *Server, hash string, start chan<- struct{}, release <-chan struct{}) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/test", nil)
	s.runManaged(w, r, "test", hash, 0, func(ctx context.Context) (jobOutput, error) {
		start <- struct{}{}
		select {
		case <-release:
			return jobOutput{body: []byte(`{"ok":true}`)}, nil
		case <-ctx.Done():
			return jobOutput{}, ctx.Err()
		}
	})
	return w
}

// TestSaturationReturns429: with one worker and a queue of one, a third
// distinct job bounces off the admission queue with 429 + Retry-After and
// is counted by serve.jobs_rejected; the accepted jobs still finish.
func TestSaturationReturns429(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	start := make(chan struct{}, 8)
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = blockingJob(s, fmt.Sprintf("h%d", i), start, release)
		}(i)
	}
	<-start // the running job occupies the single slot

	// Wait until the second job holds its admission ticket (queued).
	// queue_depth counts only jobs waiting for a slot — the executing job
	// left the queue when it claimed its slot — so both tickets are held
	// exactly when one job is in flight and one is queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Value() < 1 || s.queueDepth.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/test", nil)
	s.runManaged(w, r, "test", "h-overflow", 0, func(ctx context.Context) (jobOutput, error) {
		t.Error("overflow job must not execute")
		return jobOutput{}, nil
	})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429; body %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.rejected.Value(); got != 1 {
		t.Errorf("serve.jobs_rejected = %d, want 1", got)
	}

	close(release)
	<-start // the queued job starts once the slot frees
	wg.Wait()
	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Errorf("job %d status = %d, want 200; body %s", i, w.Code, w.Body)
		}
	}
	if got := s.completed.Value(); got != 2 {
		t.Errorf("serve.jobs_completed = %d, want 2", got)
	}
}

// TestCancellationMidJob: cancelling the request context mid-execution
// settles the job as cancelled, counts it, and frees the slot for the
// next job.
func TestCancellationMidJob(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	start := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())

	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/test", nil).WithContext(ctx)
	done := make(chan struct{})
	var jobID string
	go func() {
		defer close(done)
		s.runManaged(w, r, "test", "h-cancel", 0, func(ctx context.Context) (jobOutput, error) {
			start <- struct{}{}
			<-ctx.Done()
			return jobOutput{}, ctx.Err()
		})
	}()
	<-start
	s.mu.Lock()
	if j := s.flight["h-cancel"]; j != nil {
		jobID = j.ID
	}
	s.mu.Unlock()
	cancel()
	<-done
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("cancelled job status = %d, want 408; body %s", w.Code, w.Body)
	}
	if got := s.cancel.Value(); got != 1 {
		t.Errorf("serve.jobs_cancelled = %d, want 1", got)
	}
	if j := s.lookup(jobID); j == nil || j.Status != StatusCancelled {
		t.Errorf("job record not cancelled: %+v", j)
	}

	// The slot is free again: a fresh job runs to completion.
	w2 := httptest.NewRecorder()
	r2 := httptest.NewRequest("POST", "/test", nil)
	s.runManaged(w2, r2, "test", "h-after", 0, func(ctx context.Context) (jobOutput, error) {
		return jobOutput{body: []byte(`{}`)}, nil
	})
	if w2.Code != http.StatusOK {
		t.Fatalf("post-cancel job status = %d, want 200", w2.Code)
	}
}

// TestGracefulDrain: drain mode rejects new work with 503 while the jobs
// already accepted run to completion, and Drain returns once they settle.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	start := make(chan struct{}, 1)
	release := make(chan struct{})

	var w *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		w = blockingJob(s, "h-drain", start, release)
	}()
	<-start

	s.StopAdmitting()
	resp, body := postJSON(t, ts.URL+"/v1/run", `{"candidate":"fifo"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining run status = %d (%s), want 503", resp.StatusCode, body)
	}
	// Liveness and readiness split: the draining process is still alive
	// (200, so orchestrators don't kill it mid-drain) but not ready (503
	// with a Retry-After, so coordinators stop dispatching to it).
	hresp, _ := http.Get(ts.URL + "/healthz")
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz status = %d, want 200 (liveness)", hresp.StatusCode)
	}
	rresp, _ := http.Get(ts.URL + "/readyz")
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status = %d, want 503", rresp.StatusCode)
	}
	if rresp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz has no Retry-After")
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned before the in-flight job settled: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	<-done
	if w.Code != http.StatusOK {
		t.Fatalf("in-flight job during drain: status = %d, want 200", w.Code)
	}

	// A bounded drain against a stuck job reports the interruption.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain with nothing in flight: %v", err)
	}
}

// TestCoalescing: identical in-flight requests share one execution.
func TestCoalescing(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	start := make(chan struct{}, 1)
	release := make(chan struct{})
	executions := 0

	var wg sync.WaitGroup
	var w1 *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/test", nil)
		s.runManaged(w, r, "test", "h-shared", 0, func(ctx context.Context) (jobOutput, error) {
			executions++ // safe: the follower must not execute at all
			start <- struct{}{}
			<-release
			return jobOutput{body: []byte(`{"shared":true}`)}, nil
		})
		w1 = w
	}()
	<-start

	var w2 *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/test", nil)
		s.runManaged(w, r, "test", "h-shared", 0, func(ctx context.Context) (jobOutput, error) {
			t.Error("coalesced follower executed its own job")
			return jobOutput{}, nil
		})
		w2 = w
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.coalesced.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if executions != 1 {
		t.Fatalf("executions = %d, want 1", executions)
	}
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("statuses = %d, %d, want 200, 200", w1.Code, w2.Code)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("coalesced bodies differ: %s vs %s", w1.Body, w2.Body)
	}
	if got := w2.Header().Get("X-Cache"); got != "coalesced" {
		t.Fatalf("follower X-Cache = %q, want coalesced", got)
	}
}

// TestAdversaryEndpoint: a construction returns the β summary with every
// lemma verified, and the α trace streams from the jobs endpoint.
func TestAdversaryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/adversary", `{"candidate":"first-k","k":2,"n":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adversary: status %d, body %s", resp.StatusCode, body)
	}
	var doc AdversaryResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding summary: %v", err)
	}
	if !doc.LemmasOK {
		t.Fatalf("lemmas failed: %+v", doc.Lemmas)
	}
	if doc.AlphaSteps == 0 || doc.BetaEvents == 0 || len(doc.Counted) != doc.K+1 {
		t.Fatalf("degenerate summary: %+v", doc)
	}

	// The α trace is downloadable and parses back as JSONL.
	id := resp.Header.Get("X-Job-Id")
	tresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: status %d", tresp.StatusCode)
	}
	sr, err := trace.NewStepReader(tresp.Body)
	if err != nil {
		t.Fatalf("downloaded trace header: %v", err)
	}
	steps := 0
	for {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("downloaded trace step %d: %v", steps, err)
		}
		steps++
	}
	if steps != doc.AlphaSteps {
		t.Fatalf("downloaded %d steps, summary says %d", steps, doc.AlphaSteps)
	}

	// Job status view embeds the settled result.
	jresp, jbody := getBody(t, ts.URL+"/v1/jobs/"+id)
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("job view: status %d", jresp.StatusCode)
	}
	var view struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(jbody, &view); err != nil {
		t.Fatalf("job view: %v", err)
	}
	if view.Status != StatusDone || len(view.Result) == 0 {
		t.Fatalf("job view = %s", jbody)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// sampleTrace runs a small fifo workload on the deterministic runtime —
// a genuinely admissible execution, not a handcrafted approximation.
func sampleTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cand, err := broadcast.Lookup("fifo")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sched.New(sched.Config{N: 2, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(2)})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rt.RunFair(sched.RunOptions{Broadcasts: []sched.BroadcastReq{
		{Proc: 1, Payload: "a"}, {Proc: 2, Payload: "b"}, {Proc: 1, Payload: "c"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sampleJSONL renders the sample trace in streaming form.
func sampleJSONL(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace(t).EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckEndpoint: an uploaded JSONL trace is checked against every
// spec in streaming form, with per-spec verdict lines and a summary.
func TestCheckEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/check?spec=all&k=2", string(sampleJSONL(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d, body %s", resp.StatusCode, body)
	}
	sum, err := summaryLine(body)
	if err != nil {
		t.Fatalf("summary line: %v (body %s)", err, body)
	}
	wantSteps := float64(sampleTrace(t).X.Len())
	if sum["steps"].(float64) != wantSteps {
		t.Fatalf("summary steps = %v, want %v", sum["steps"], wantSteps)
	}
	if sum["specs"].(float64) < 10 {
		t.Fatalf("summary specs = %v, want the full registry", sum["specs"])
	}
	// The sample is well-formed and fifo-ordered; both verdict lines say so.
	for _, want := range []string{`"spec":"well-formed","rejected":false`, `"spec":"fifo-order","rejected":false`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("check body missing %s:\n%s", want, body)
		}
	}
	if got := s.checks.Value(); got != 1 {
		t.Errorf("serve.checks = %d, want 1", got)
	}

	// A single named spec checks just that spec.
	resp, body = postJSON(t, ts.URL+"/v1/check?spec=fifo&k=2", string(sampleJSONL(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-spec check: status %d, body %s", resp.StatusCode, body)
	}
	if sum, _ := summaryLine(body); sum["specs"].(float64) != 1 {
		t.Fatalf("single-spec summary = %v", sum)
	}

	// Unknown spec name is a 400 before any job is created.
	resp, _ = postJSON(t, ts.URL+"/v1/check?spec=nope", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown spec: status %d, want 400", resp.StatusCode)
	}
}

// TestCheckBoundsDeclaredProcs: an upload's header alone decides how
// large every checker is built, so a header declaring more than
// maxCheckProcs processes is answered 400 before any checker exists. A
// header-only upload declaring 65,536 processes must cost the handler
// well under the tens of MiB the checkers would take; one at the bound
// is still checked.
func TestCheckBoundsDeclaredProcs(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	check := func(n int) (*httptest.ResponseRecorder, uint64) {
		body := fmt.Sprintf("{\"n\":%d,\"complete\":false}\n", n)
		req := httptest.NewRequest(http.MethodPost, "/v1/check?spec=all&k=2", strings.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec, after.TotalAlloc - before.TotalAlloc
	}
	rec, alloc := check(65_536)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "at most 4096") {
		t.Fatalf("n=65536: status %d, body %s", rec.Code, rec.Body)
	}
	if alloc >= 4<<20 {
		t.Fatalf("n=65536: the rejected upload allocated %d bytes, want under 4 MiB", alloc)
	}
	if rec, _ := check(maxCheckProcs + 1); rec.Code != http.StatusBadRequest {
		t.Fatalf("n=%d: status %d, want 400", maxCheckProcs+1, rec.Code)
	}
	rec, _ = check(maxCheckProcs)
	if rec.Code != http.StatusOK {
		t.Fatalf("n=%d: status %d, body %s", maxCheckProcs, rec.Code, rec.Body)
	}
	if sum, err := summaryLine(rec.Body.Bytes()); err != nil || sum["steps"].(float64) != 0 {
		t.Fatalf("n=%d: summary %v (%v)", maxCheckProcs, sum, err)
	}
}

// TestCheckTruncatedUpload is the satellite acceptance: a truncated JSONL
// upload is answered 400 with a "truncated upload" error, not a generic
// parse failure or a hang.
func TestCheckTruncatedUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	full := sampleJSONL(t)
	cut := bytes.TrimRight(full, "\n")
	cut = cut[:len(cut)-7] // mid-way through the final step line

	resp, body := postJSON(t, ts.URL+"/v1/check?spec=well-formed", string(cut))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated check: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "truncated upload") {
		t.Fatalf("truncated check body = %s, want 'truncated upload'", body)
	}

	// A stray second header mid-stream is a 400 too, named as such.
	lines := bytes.SplitN(full, []byte("\n"), 2)
	dup := append(append(append([]byte{}, lines[0]...), '\n'), full...)
	resp, body = postJSON(t, ts.URL+"/v1/check?spec=well-formed", string(dup))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("double-header check: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "second header") {
		t.Fatalf("double-header body = %s, want 'second header'", body)
	}
}

// TestNetRuntimeRun: the concurrent runtime path works end to end but
// bypasses the result cache — its documents depend on real goroutine
// scheduling against wall-clock convergence budgets, so a cached copy
// could freeze a timing accident (an incomplete faulty run, a different
// send count) as the permanent verdict for that parameter hash. A repeat
// therefore re-executes.
func TestNetRuntimeRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := `{"candidate":"reliable","runtime":"net","n":3,"seed":7,"workload":{"messages":6}}`
	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("net run: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "uncached" {
		t.Fatalf("net run X-Cache = %q, want uncached", got)
	}
	var doc RunResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Complete || doc.Sends == 0 {
		t.Fatalf("net run degenerate: %+v", doc)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("net repeat: status %d, body %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "uncached" {
		t.Fatalf("net repeat X-Cache = %q, want uncached (timing-sensitive results must not be replayed)", got)
	}
	if id1, id2 := resp.Header.Get("X-Job-Id"), resp2.Header.Get("X-Job-Id"); id1 == id2 {
		t.Fatalf("net repeat reused job %s instead of re-executing", id1)
	}
	if hits := s.hits.Value(); hits != 0 {
		t.Fatalf("serve.cache_hits = %d, want 0 (net jobs bypass the cache)", hits)
	}
	// The uncached job records are still parked and resolvable by id.
	jresp, jbody := getBody(t, ts.URL+"/v1/jobs/"+resp.Header.Get("X-Job-Id"))
	if jresp.StatusCode != http.StatusOK || !strings.Contains(string(jbody), `"status":"done"`) {
		t.Fatalf("net job record not resolvable: %d %s", jresp.StatusCode, jbody)
	}
}

// TestTCPRuntimeRun: the socket-transport path works end to end —
// loopback TCP nodes, per-node trace streams merged by the harness —
// and bypasses the result cache for the same reason the net runtime
// does: the documents race real sockets against wall-clock budgets.
func TestTCPRuntimeRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"candidate":"send-to-all","runtime":"tcp","n":3,"seed":11,"workload":{"messages":6}}`
	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tcp run: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "uncached" {
		t.Fatalf("tcp run X-Cache = %q, want uncached", got)
	}
	var doc RunResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Runtime != "tcp" || !doc.Complete {
		t.Fatalf("tcp run degenerate: %+v", doc)
	}
	if doc.Verdict != "" {
		t.Fatalf("tcp run rejected by spec: %s", doc.Verdict)
	}
	if want := 3 * 6; doc.Deliveries != want {
		t.Fatalf("tcp run deliveries = %d, want %d", doc.Deliveries, want)
	}
	// The tcp runtime shares the n ceiling enforcement with the others
	// but at a tighter bound (a full TCP mesh per extra node).
	resp2, body2 := postJSON(t, ts.URL+"/v1/run", `{"candidate":"send-to-all","runtime":"tcp","n":32,"workload":{"messages":6}}`)
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body2), "tcp runtime") {
		t.Fatalf("oversize tcp run: status %d, body %s", resp2.StatusCode, body2)
	}
}

// TestJobViewDuringExecution: the job GET endpoints are safe while the
// job is still running and while it settles concurrently — the
// regression was handleJob/handleJobTrace reading Status/Err/Body
// without s.mu while settle mutated them under the lock, which tests
// that only poll after completion never exercise under -race.
func TestJobViewDuringExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	start := make(chan struct{}, 1)
	release := make(chan struct{})
	jobDone := make(chan struct{})
	go func() {
		defer close(jobDone)
		blockingJob(s, "h-live", start, release)
	}()
	<-start
	s.mu.Lock()
	j := s.flight["h-live"]
	s.mu.Unlock()
	if j == nil {
		t.Fatal("running job not registered in flight")
	}

	// Readers hammer both endpoints across the running→done transition.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID)
				if err != nil {
					t.Errorf("job view: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("job view status = %d, want 200", resp.StatusCode)
					return
				}
				tresp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/trace")
				if err != nil {
					t.Errorf("trace view: %v", err)
					return
				}
				io.Copy(io.Discard, tresp.Body)
				tresp.Body.Close()
				// 409 while running (no blocking wait), 404 once settled:
				// this job records no trace.
				if tresp.StatusCode != http.StatusConflict && tresp.StatusCode != http.StatusNotFound {
					t.Errorf("trace view status = %d, want 409 or 404", tresp.StatusCode)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let readers observe the running state
	close(release)
	<-jobDone
	close(stop)
	wg.Wait()

	// Settled: the view embeds the result and the trace endpoint answers
	// definitively without waiting.
	jresp, jbody := getBody(t, ts.URL+"/v1/jobs/"+j.ID)
	if jresp.StatusCode != http.StatusOK || !strings.Contains(string(jbody), `"status":"done"`) {
		t.Fatalf("settled job view: %d %s", jresp.StatusCode, jbody)
	}
}

// TestCacheEviction: the LRU keeps the job index bounded.
func TestCacheEviction(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, CacheEntries: 2})
	for i := 0; i < 5; i++ {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/test", nil)
		body := []byte(fmt.Sprintf(`{"i":%d}`, i))
		s.runManaged(w, r, "test", fmt.Sprintf("h-ev-%d", i), 0, func(ctx context.Context) (jobOutput, error) {
			return jobOutput{body: body}, nil
		})
		if w.Code != http.StatusOK {
			t.Fatalf("job %d: status %d", i, w.Code)
		}
	}
	s.mu.Lock()
	cached, jobs := s.cache.len(), len(s.jobs)
	s.mu.Unlock()
	if cached != 2 {
		t.Fatalf("cache holds %d entries, want 2", cached)
	}
	if jobs != 2 {
		t.Fatalf("job index holds %d records, want 2 (evictions must release them)", jobs)
	}
}

// sampleBinary renders the sample trace in wire format v1.
func sampleBinary(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleTrace(t).EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckBinaryUpload: the same trace uploaded in wire format v1 —
// with the explicit Content-Type or sniffed without one — produces a
// check document identical to its JSONL upload, and a truncated binary
// upload is the same 400 "truncated upload" the JSONL path answers.
func TestCheckBinaryUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	url := ts.URL + "/v1/check?spec=all&k=2"

	resp, jsonlBody := postJSON(t, url, string(sampleJSONL(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl check: status %d, body %s", resp.StatusCode, jsonlBody)
	}

	bin := sampleBinary(t)
	for _, ct := range []string{trace.ContentTypeBinary, ""} {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		bresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		binBody, err := io.ReadAll(bresp.Body)
		bresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bresp.StatusCode != http.StatusOK {
			t.Fatalf("binary check (ct=%q): status %d, body %s", ct, bresp.StatusCode, binBody)
		}
		if !bytes.Equal(binBody, jsonlBody) {
			t.Fatalf("binary check (ct=%q) body differs from jsonl upload:\n%s\nvs\n%s", ct, binBody, jsonlBody)
		}
	}

	// A cut binary upload is detected as truncation, not a parse error.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check?spec=well-formed", bytes.NewReader(bin[:len(bin)-5]))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", trace.ContentTypeBinary)
	tresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(tbody), "truncated upload") {
		t.Fatalf("truncated binary check: status %d, body %s", tresp.StatusCode, tbody)
	}
}

// TestJobTraceBinaryDownload: Accept: application/x-ksatrace on the
// trace endpoint streams wire format v1 (a .ktr attachment) carrying
// exactly the execution the default JSONL download carries.
func TestJobTraceBinaryDownload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/adversary", `{"candidate":"first-k","k":2,"n":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adversary: status %d, body %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Job-Id")

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", trace.ContentTypeBinary)
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("binary trace download: status %d", bresp.StatusCode)
	}
	if got := bresp.Header.Get("Content-Type"); got != trace.ContentTypeBinary {
		t.Fatalf("binary download Content-Type = %q", got)
	}
	if got := bresp.Header.Get("Content-Disposition"); !strings.Contains(got, ".ktr") {
		t.Fatalf("binary download Content-Disposition = %q, want a .ktr attachment", got)
	}
	fromBin, err := trace.DecodeBinary(bresp.Body)
	if err != nil {
		t.Fatalf("decoding binary download: %v", err)
	}

	jresp, jbody := getBody(t, ts.URL+"/v1/jobs/"+id+"/trace")
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl trace download: status %d", jresp.StatusCode)
	}
	if got := jresp.Header.Get("Content-Disposition"); !strings.Contains(got, ".jsonl") {
		t.Fatalf("jsonl download Content-Disposition = %q", got)
	}
	fromJSONL, err := trace.DecodeJSONL(bytes.NewReader(jbody))
	if err != nil {
		t.Fatalf("decoding jsonl download: %v", err)
	}
	if len(fromBin.X.Steps) != len(fromJSONL.X.Steps) || fromBin.X.N != fromJSONL.X.N {
		t.Fatalf("downloads disagree: %d/%d steps, N %d/%d",
			len(fromBin.X.Steps), len(fromJSONL.X.Steps), fromBin.X.N, fromJSONL.X.N)
	}
	for i := range fromBin.X.Steps {
		if fromBin.X.Steps[i] != fromJSONL.X.Steps[i] {
			t.Fatalf("step %d differs between formats: %+v vs %+v", i, fromBin.X.Steps[i], fromJSONL.X.Steps[i])
		}
	}
}
