package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/serve"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
	"nobroadcast/internal/workload"
)

// The daemon's request mix, in tenths of a percent: /v1/run cache hits
// on popularBodies bodies warmed at set-up, sched misses with a fresh
// workload seed, /v1/check uploads, then uncached net runs. The tcp
// runtime is left out: the socket-merge defect fails a tcp run now and
// then (README.md, "Known defect"), and the corpus workload reproduces it.
const (
	permilleHit   = 700
	permilleMiss  = 200
	permilleCheck = 50

	popularBodies = 32
	// uploadMessages total-order broadcasts over uploadN processes make
	// an upload trace of about 3k steps.
	uploadN        = 4
	uploadMessages = 62
	checkK         = 2
)

// checkLine is one per-spec verdict line of a /v1/check response.
type checkLine struct {
	Spec        string `json:"spec"`
	Rejected    bool   `json:"rejected"`
	Violation   string `json:"violation,omitempty"`
	LatchedStep int    `json:"latched_step"`
}

type runBody struct {
	Candidate string       `json:"candidate"`
	Runtime   string       `json:"runtime,omitempty"`
	N         int          `json:"n"`
	K         int          `json:"k"`
	Seed      uint64       `json:"seed,omitempty"`
	Workload  workloadBody `json:"workload"`
}

type workloadBody struct {
	Seed uint64 `json:"seed"`
}

// daemon sends one HTTP request per op to an in-process serve.Server on
// a loopback listener, over two client connections.
type daemon struct {
	seed   uint64
	tr     *tracer
	cands  []string
	srv    *serve.Server
	hs     *http.Server
	tp     *http.Transport
	client *http.Client
	base   string

	popular [][]byte // request bodies
	warm    [][]byte // their set-up responses
	upload  []byte   // the /v1/check body, wire format v1
	steps   []model.Step
	want    []checkLine
	vars0   map[string]float64
}

func newDaemon(seed uint64, tr *tracer) instance {
	return &daemon{seed: seed, tr: tr, cands: broadcast.Names()}
}

func (w *daemon) setup() error {
	w.srv = serve.New(serve.Config{})
	var h http.Handler = w.srv
	if w.tr != nil {
		h = timedHandler{w.srv, w.tr}
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: h}
	go w.hs.Serve(ln)
	w.tp = &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}
	w.client = &http.Client{Transport: w.tp, Timeout: time.Minute}

	if err := w.buildUpload(); err != nil {
		return err
	}
	for p := 0; p < popularBodies; p++ {
		b, err := json.Marshal(runBody{
			Candidate: w.cands[p%len(w.cands)], N: 3 + p%2, K: 2,
			Workload: workloadBody{rng.Derive(w.seed, 1<<32+uint64(p))},
		})
		if err != nil {
			return err
		}
		resp, err := w.post(-1, "", "/v1/run", "application/json", b)
		if err != nil {
			return err
		}
		if err := checkRun(resp, false); err != nil {
			return err
		}
		w.popular = append(w.popular, b)
		w.warm = append(w.warm, resp)
	}
	return nil
}

// buildUpload records a total-order run and computes the verdict lines a
// direct pass of every registered spec gives on it.
func (w *daemon) buildUpload() error {
	cand, err := broadcast.Lookup("total-order")
	if err != nil {
		return err
	}
	reqs, err := workload.Generate(workload.Config{
		Kind: workload.Uniform, N: uploadN, Messages: uploadMessages, Seed: rng.Derive(w.seed, 1<<33),
	})
	if err != nil {
		return err
	}
	rt, err := sched.New(sched.Config{N: uploadN, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(checkK)})
	if err != nil {
		return err
	}
	t, err := rt.RunFair(sched.RunOptions{Broadcasts: reqs})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := t.EncodeBinary(&buf); err != nil {
		return err
	}
	w.upload, w.steps = buf.Bytes(), t.X.Steps
	w.want = nil
	for _, e := range spec.Registry() {
		c := spec.NewCheckerFor(e.New(checkK), uploadN)
		line := checkLine{Spec: e.Key, LatchedStep: -1}
		for i, s := range w.steps {
			if v := c.Feed(s); v != nil {
				line.Rejected, line.Violation, line.LatchedStep = true, v.String(), i
				break
			}
		}
		if !line.Rejected {
			if v := c.Finish(t.Complete); v != nil {
				line.Rejected, line.Violation = true, v.String()
			}
		}
		w.want = append(w.want, line)
	}
	return nil
}

func (w *daemon) close() {
	if w.hs != nil {
		w.hs.Close()
		w.tp.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		w.srv.Drain(ctx)
	}
}

// post sends one request; a traced op (op >= 0 with a tracer) names its
// class so the server-side wrapper times the handler.
func (w *daemon) post(op int, class, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if class != "" {
		req.Header.Set("X-Bench-Class", class)
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
		defer w.tr.span(op, "serve.client")()
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (w *daemon) op(i int, tr *tracer) error {
	r := rng.New(rng.Derive(w.seed, uint64(i)))
	u := r.Intn(1000)
	// traced names the request class of a traced op, "" otherwise.
	traced := func(class string) string {
		if tr == nil {
			return ""
		}
		return class
	}
	switch {
	case u < permilleHit:
		p := r.Intn(len(w.popular))
		resp, err := w.post(i, traced("hit"), "/v1/run", "application/json", w.popular[p])
		if err != nil {
			return err
		}
		if !bytes.Equal(resp, w.warm[p]) {
			return fmt.Errorf("cache hit differs from its warm-up response: %s", resp)
		}
		return nil
	case u < permilleHit+permilleMiss:
		b, err := json.Marshal(runBody{
			Candidate: w.cands[r.Intn(len(w.cands))], N: 3 + r.Intn(2), K: 2,
			Workload: workloadBody{r.Uint64()},
		})
		if err != nil {
			return err
		}
		resp, err := w.post(i, traced("miss"), "/v1/run", "application/json", b)
		if err != nil {
			return err
		}
		return checkRun(resp, false)
	case u < permilleHit+permilleMiss+permilleCheck:
		resp, err := w.post(i, traced("check"), "/v1/check?spec=all&k="+strconv.Itoa(checkK), trace.ContentTypeBinary, w.upload)
		if err != nil {
			return err
		}
		return w.checkVerdicts(resp)
	}
	cand := w.cands[r.Intn(len(w.cands))]
	b, err := json.Marshal(runBody{
		Candidate: cand, Runtime: "net", N: 3, K: 2, Seed: r.Uint64(),
		Workload: workloadBody{r.Uint64()},
	})
	if err != nil {
		return err
	}
	resp, err := w.post(i, traced("net"), "/v1/run", "application/json", b)
	if err != nil {
		return err
	}
	return checkRun(resp, cand == "kbo")
}

// checkRun checks a /v1/run response: the run completed and its verdict
// is empty, unless a concurrent refutation is sanctioned (kbo).
func checkRun(body []byte, sanctioned bool) error {
	var resp serve.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("run response: %w", err)
	}
	if !resp.Complete || resp.Verdict != "" && !sanctioned {
		return fmt.Errorf("%s run on %s: complete=%t verdict=%q", resp.Candidate, resp.Runtime, resp.Complete, resp.Verdict)
	}
	return nil
}

// checkVerdicts compares a /v1/check response's verdict lines with the
// direct pass made at set-up.
func (w *daemon) checkVerdicts(body []byte) error {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != len(w.want)+2 {
		return fmt.Errorf("check response has %d lines, want %d", len(lines), len(w.want)+2)
	}
	for i, want := range w.want {
		var got checkLine
		if err := json.Unmarshal(lines[i+1], &got); err != nil {
			return fmt.Errorf("check verdict line: %w", err)
		}
		if got != want {
			return fmt.Errorf("check verdict %+v, direct pass gives %+v", got, want)
		}
	}
	return nil
}

// timedHandler times Server.ServeHTTP for the requests a traced op names.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h timedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if class := r.Header.Get("X-Bench-Class"); class != "" {
		op, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
		defer h.tr.span(op, "serve.handler."+class)()
	}
	h.next.ServeHTTP(rw, r)
}

// begin snapshots the server's counters before a traced measurement.
func (w *daemon) begin() error {
	if w.tr == nil {
		return nil
	}
	var err error
	w.vars0, err = w.scrape()
	return err
}

// scrape reads the counters from /vars and the histogram sums and counts
// from /metrics (/vars carries no histograms).
func (w *daemon) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, path := range []string{"/vars", "/metrics"} {
		resp, err := w.client.Get(w.base + path)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if path == "/vars" {
			if err := json.Unmarshal(body, &out); err != nil {
				return nil, fmt.Errorf("/vars: %w", err)
			}
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || !strings.HasPrefix(name, "serve_") || !(strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count")) {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

func (w *daemon) layers(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	handler := 0.0
	for _, class := range []string{"hit", "miss", "check", "net"} {
		out["serve.handler_ms."+class] = tr.perCall("serve.handler."+class, 1e6)
		handler += tr.total["serve.handler."+class]
	}
	out["serve.transport_us"] = tr.perCall("serve.client", 1e3) - safeDiv(handler, float64(tr.calls["serve.client"]))/1e3

	if vars1, err := w.scrape(); err == nil {
		d := func(name string) float64 { return vars1[name] - w.vars0[name] }
		hits := d("serve.cache_hits")
		out["serve.cache_hit_ratio"] = safeDiv(hits, hits+d("serve.cache_misses"))
		out["serve.jobs_rejected"] = d("serve.jobs_rejected")
		out["serve.coalesced"] = d("serve.coalesced")
		for _, h := range []string{"queue_wait_us", "exec_us", "check_decode_us"} {
			out["serve."+h] = safeDiv(d("serve_"+h+"_sum"), d("serve_"+h+"_count"))
		}
	}

	// Layer probes on the upload, after the measured interval.
	const reps = 20
	t0 := time.Now()
	decoded := 0
	for r := 0; r < reps; r++ {
		br, err := trace.NewBinaryReader(bytes.NewReader(w.upload))
		if err != nil {
			break
		}
		for {
			if _, err := br.Next(); err != nil {
				break
			}
			decoded++
		}
	}
	out["trace.decode_ns_per_step"] = safeDiv(float64(time.Since(t0).Nanoseconds()), float64(decoded))
	for _, e := range spec.Registry() {
		fed := 0
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			c := spec.NewCheckerFor(e.New(checkK), uploadN)
			for _, s := range w.steps {
				fed++
				if c.Feed(s) != nil {
					break
				}
			}
		}
		out["spec.feed_ns_per_step."+e.Key] = safeDiv(float64(time.Since(t0).Nanoseconds()), float64(fed))
	}
	if fair, err := w.fairProbe(reps); err == nil {
		out["sched.fair_ms"] = fair
	}
	return out
}

// fairProbe times the sched script of one miss body, mean ms per run.
func (w *daemon) fairProbe(reps int) (float64, error) {
	cand, err := broadcast.Lookup(w.cands[0])
	if err != nil {
		return 0, err
	}
	reqs, err := workload.Generate(workload.Config{
		Kind: workload.Uniform, N: 4, Messages: 12, Seed: rng.Derive(w.seed, 1<<34), BurstLen: 4,
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		rt, err := sched.New(sched.Config{N: 4, NewAutomaton: cand.NewAutomaton, Oracle: cand.OracleFor(2)})
		if err != nil {
			return 0, err
		}
		if _, err := rt.RunFair(sched.RunOptions{Broadcasts: reqs}); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps) / 1e6, nil
}
