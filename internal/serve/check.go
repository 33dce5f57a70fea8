package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// checkVerdict is one per-spec verdict line of a /v1/check response.
// LatchedStep is the index of the step that latched the violation, or -1
// when the spec was not rejected or rejected only at finish time (a
// liveness clause on the complete trace).
type checkVerdict struct {
	Spec        string `json:"spec"`
	Rejected    bool   `json:"rejected"`
	Violation   string `json:"violation,omitempty"`
	LatchedStep int    `json:"latched_step"`
}

// handleCheck serves POST /v1/check?spec=all&k=2: the uploaded trace is
// streamed through the selected online checkers — only checker state is
// resident, never the trace — and the response is JSONL: a header echo,
// one verdict line per spec, and a summary line. The upload format is
// negotiated by Content-Type: application/x-ksatrace is decoded as wire
// format v1 (the fast path), anything else is sniffed, so both binary
// and JSONL bodies work with or without the header. A header declaring
// more than maxCheckProcs processes is a 400 before any checker is built.
// Checks are admission-controlled managed jobs like runs, but uncached:
// the input arrives in the request body, so there is no parameter hash to
// key a cache by.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.totalUS.Observe(time.Since(t0).Microseconds()) }()
	specName := r.URL.Query().Get("spec")
	if specName == "" {
		specName = "all"
	}
	k := 2
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "k must be a positive integer, got "+ks)
			return
		}
		k = v
	}
	if specName != "all" {
		if _, err := spec.ByName(specName, k); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "draining: not admitting new jobs")
		return
	}
	j := s.newJobLocked("check", "")
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	qsp, _ := s.reg.StartSpanIfTraced(r.Context(), "serve.queue")
	release, err := s.acquire(r.Context())
	qsp.End()
	if err != nil {
		if errors.Is(err, errSaturated) {
			s.rejected.Inc()
			s.settle(j, jobOutput{}, err)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "admission queue saturated; retry later")
			return
		}
		s.settle(j, jobOutput{}, err)
		httpError(w, http.StatusRequestTimeout, "cancelled while queued: "+err.Error())
		return
	}
	defer release()
	s.admitted.Inc()
	s.checks.Inc()

	jsp, jctx := s.reg.StartSpanIfTraced(r.Context(), "serve.job")
	ctx, cancel := context.WithTimeout(jctx, s.cfg.JobTimeout)
	defer cancel()
	execStart := time.Now()
	out, err := s.execute(ctx, 0, func(ctx context.Context) (jobOutput, error) {
		return s.runCheck(ctx, specName, k, r.Header.Get("Content-Type"), r.Body)
	})
	s.execUS.Observe(time.Since(execStart).Microseconds())
	jsp.End()
	s.settle(j, out, err)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		w.Header().Set("X-Job-Id", j.ID)
		w.Write(j.Body)
	case errors.Is(err, trace.ErrTruncated):
		httpError(w, http.StatusBadRequest, "truncated upload: "+err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "check exceeded the server-side timeout")
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusRequestTimeout, "check cancelled")
	default:
		// Every remaining error is a malformed upload: a stray second
		// header, an invalid step kind, or broken JSON.
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// maxCheckProcs bounds the process count a /v1/check upload may declare.
// Every selected checker is built for that many processes before the
// first step is read, so an unbounded count in a header of a few bytes
// could claim the daemon's memory.
const maxCheckProcs = 4096

// checkBatch is how many steps runCheck decodes between two clock reads.
const checkBatch = 256

// runCheck streams one uploaded trace through the selected checkers. It
// decodes the upload in batches of up to checkBatch steps into one reused
// buffer, then feeds the batch's steps to the monitor in place, so only
// one batch of steps is ever resident. Decode time is read off the clock
// once per batch, around the header parse and around each batch's Next
// calls, and its total is recorded in serve.check_decode_us — on large
// JSONL uploads decode dominates the check, which is why the binary format
// exists; the histogram makes the difference visible. Cancellation is
// checked once per batch. An explicit application/x-ksatrace Content-Type
// selects the binary reader outright; otherwise the format is sniffed.
func (s *Server) runCheck(ctx context.Context, specName string, k int, contentType string, body io.Reader) (jobOutput, error) {
	var decodeNS int64
	defer func() { s.decodeUS.Observe(decodeNS / 1e3) }()
	decodeStart := time.Now()
	var sr trace.Reader
	var err error
	if strings.HasPrefix(contentType, trace.ContentTypeBinary) {
		sr, err = trace.NewBinaryReader(body)
	} else {
		sr, err = trace.NewAnyReader(body)
	}
	decodeNS += time.Since(decodeStart).Nanoseconds()
	if err != nil {
		return jobOutput{}, err
	}
	hdr := sr.Header()
	if hdr.N > maxCheckProcs {
		return jobOutput{}, fmt.Errorf("trace declares %d processes, at most %d accepted", hdr.N, maxCheckProcs)
	}

	// Verdict lines carry the registry key (the name a client selects
	// by), not the spec's display name.
	var keys []string
	var specs []spec.Spec
	if specName == "all" {
		for _, e := range spec.Registry() {
			keys = append(keys, e.Key)
			specs = append(specs, e.New(k))
		}
	} else {
		sp, err := spec.ByName(specName, k)
		if err != nil {
			return jobOutput{}, err
		}
		keys, specs = []string{specName}, []spec.Spec{sp}
	}
	mon := spec.NewMonitor(hdr.N, specs...)
	batch := make([]model.Step, checkBatch)
	for err == nil {
		batchStart := time.Now()
		n := 0
		for n < len(batch) {
			if batch[n], err = sr.Next(); err != nil {
				break
			}
			n++
		}
		decodeNS += time.Since(batchStart).Nanoseconds()
		for i := range batch[:n] {
			mon.FeedStep(&batch[i])
		}
		if err == nil {
			err = ctx.Err()
		}
	}
	if err != io.EOF {
		return jobOutput{}, err
	}
	mon.Finish(hdr.Complete)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{
		"trace": hdr.Name, "n": hdr.N, "complete": hdr.Complete, "k": k,
	}); err != nil {
		return jobOutput{}, err
	}
	rejected := 0
	for i, v := range mon.Verdicts() {
		line := checkVerdict{Spec: keys[i], LatchedStep: v.StepIdx}
		if v.Violation != nil {
			line.Rejected, line.Violation = true, v.Violation.String()
			rejected++
		}
		if err := enc.Encode(&line); err != nil {
			return jobOutput{}, err
		}
	}
	if err := enc.Encode(map[string]any{
		"steps": mon.Steps(), "specs": len(keys), "rejected": rejected,
	}); err != nil {
		return jobOutput{}, err
	}
	return jobOutput{body: buf.Bytes()}, nil
}

// summaryLine decodes a check body's trailing summary line (test seam).
func summaryLine(body []byte) (map[string]any, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty check body")
	}
	var m map[string]any
	if err := json.Unmarshal(lines[len(lines)-1], &m); err != nil {
		return nil, err
	}
	return m, nil
}
