package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"nobroadcast/internal/adversary"
	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/nettcp"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/trace"
	"nobroadcast/internal/workload"
)

// Service-side parameter ceilings. Requests arrive over the network, so
// every axis that sizes an allocation is bounded before any work starts.
const (
	maxProcs    = 64
	maxMessages = 10000
	maxAdvK     = 8
	maxAdvN     = 64
	// The tcp runtime opens a full mesh of real loopback connections plus
	// harness control and trace streams per node, so it gets a tighter
	// process ceiling than the in-memory runtimes.
	maxTCPProcs = 16
)

// WorkloadSpec selects the broadcast request pattern of a /v1/run job.
type WorkloadSpec struct {
	// Kind is uniform (default), skewed, bursty, or single.
	Kind string `json:"kind,omitempty"`
	// Messages is the total number of broadcasts (default 3·n).
	Messages int `json:"messages,omitempty"`
	// Seed drives the randomized shapes.
	Seed uint64 `json:"seed,omitempty"`
	// BurstLen is the burst length for bursty (default 4).
	BurstLen int `json:"burst_len,omitempty"`
}

var workloadKinds = map[string]workload.Kind{
	"uniform": workload.Uniform,
	"skewed":  workload.Skewed,
	"bursty":  workload.Bursty,
	"single":  workload.Single,
}

// RunRequest is the body of POST /v1/run: one workload simulation on the
// deterministic ("sched") or concurrent ("net") runtime. The normalized
// form of this struct is the job's cache identity.
type RunRequest struct {
	Candidate string       `json:"candidate"`
	Runtime   string       `json:"runtime,omitempty"` // sched (default) | net | tcp
	N         int          `json:"n,omitempty"`       // processes, default 4
	K         int          `json:"k,omitempty"`       // agreement degree, default 2
	Seed      uint64       `json:"seed,omitempty"`    // concurrent/tcp runtime delay seed
	Drop      float64      `json:"drop,omitempty"`    // per-transit loss probability (net/tcp)
	Dup       float64      `json:"dup,omitempty"`     // per-transit duplication probability (net/tcp)
	Workload  WorkloadSpec `json:"workload"`
}

func (q *RunRequest) normalize() error {
	if q.Runtime == "" {
		q.Runtime = "sched"
	}
	if q.Runtime != "sched" && q.Runtime != "net" && q.Runtime != "tcp" {
		return fmt.Errorf("runtime must be \"sched\", \"net\", or \"tcp\", got %q", q.Runtime)
	}
	if q.N == 0 {
		q.N = 4
	}
	if q.N < 1 || q.N > maxProcs {
		return fmt.Errorf("n must be in 1..%d, got %d", maxProcs, q.N)
	}
	if q.Runtime == "tcp" && q.N > maxTCPProcs {
		return fmt.Errorf("n must be in 1..%d on the tcp runtime, got %d", maxTCPProcs, q.N)
	}
	if q.K == 0 {
		q.K = 2
	}
	if q.K < 1 || q.K > q.N {
		return fmt.Errorf("k must be in 1..n, got k=%d n=%d", q.K, q.N)
	}
	if q.Drop < 0 || q.Drop >= 1 || q.Dup < 0 || q.Dup >= 1 {
		return fmt.Errorf("drop/dup must be probabilities in [0,1), got %g/%g", q.Drop, q.Dup)
	}
	if (q.Drop != 0 || q.Dup != 0) && q.Runtime != "net" && q.Runtime != "tcp" {
		return fmt.Errorf("drop/dup need the net or tcp runtime (the deterministic runtime has no transport faults)")
	}
	if q.Workload.Kind == "" {
		q.Workload.Kind = "uniform"
	}
	if _, ok := workloadKinds[q.Workload.Kind]; !ok {
		return fmt.Errorf("unknown workload kind %q", q.Workload.Kind)
	}
	if q.Workload.Messages == 0 {
		q.Workload.Messages = 3 * q.N
	}
	if q.Workload.Messages < 1 || q.Workload.Messages > maxMessages {
		return fmt.Errorf("workload.messages must be in 1..%d, got %d", maxMessages, q.Workload.Messages)
	}
	if q.Workload.BurstLen == 0 {
		q.Workload.BurstLen = 4
	}
	if _, err := broadcast.Lookup(q.Candidate); err != nil {
		return err
	}
	return nil
}

// canonicalHash derives the cache identity of a normalized request: the
// endpoint kind plus the canonical JSON encoding (fixed field order, all
// defaults applied). Executions are pure functions of these parameters,
// so equal hashes mean byte-identical results.
func canonicalHash(kind string, v any) string {
	b, _ := json.Marshal(v)
	sum := sha256.Sum256(append([]byte(kind+"\x00"), b...))
	return hex.EncodeToString(sum[:16])
}

// RunResponse is the result document of a /v1/run job. The executing
// job's id travels in the X-Job-Id header, not the body, so cache hits
// stay byte-identical.
type RunResponse struct {
	Candidate  string `json:"candidate"`
	Runtime    string `json:"runtime"`
	N          int    `json:"n"`
	K          int    `json:"k"`
	Steps      int    `json:"steps"`
	Complete   bool   `json:"complete"`
	Verdict    string `json:"verdict,omitempty"` // empty = admissible
	Deliveries int    `json:"deliveries"`
	Sends      int64  `json:"sends,omitempty"`       // net runtime
	FaultDrops int64  `json:"fault_drops,omitempty"` // net runtime
	FaultDups  int64  `json:"fault_dups,omitempty"`  // net runtime
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var q RunRequest
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := q.normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := canonicalHash("run", &q)
	s.runManaged(w, r, "run", hash, q.Seed, func(ctx context.Context) (jobOutput, error) {
		return s.executeRun(ctx, &q)
	})
}

// executeRun performs the simulation and renders the result document.
func (s *Server) executeRun(ctx context.Context, q *RunRequest) (jobOutput, error) {
	cand, err := broadcast.Lookup(q.Candidate)
	if err != nil {
		return jobOutput{}, err
	}
	reqs, err := workload.Generate(workload.Config{
		Kind:     workloadKinds[q.Workload.Kind],
		N:        q.N,
		Messages: q.Workload.Messages,
		Seed:     q.Workload.Seed,
		BurstLen: q.Workload.BurstLen,
	})
	if err != nil {
		return jobOutput{}, err
	}
	var tr *trace.Trace
	resp := RunResponse{Candidate: cand.Name, Runtime: q.Runtime, N: q.N, K: q.K}
	if q.Runtime == "sched" {
		tr, err = s.runSched(ctx, cand, q, reqs)
	} else {
		tr, err = s.runConcurrent(ctx, cand, q, reqs, &resp)
	}
	if err != nil {
		return jobOutput{}, err
	}
	if v := cand.Spec(q.K).Check(tr); v != nil {
		resp.Verdict = v.String()
	}
	resp.Steps = tr.X.Len()
	resp.Complete = tr.Complete
	for i := range tr.X.Steps {
		if tr.X.Steps[i].Kind == model.KindDeliver {
			resp.Deliveries++
		}
	}
	out, err := encodeBody(&resp, tr)
	// Net- and tcp-runtime documents are not pure functions of
	// (params, seed): both race real goroutines (or processes) against a
	// wall-clock convergence budget, so under load a faulty run can
	// settle with complete=false or different send/fault counts. Caching
	// one would replay a timing accident as the permanent verdict for
	// that parameter hash, so these jobs bypass the result cache.
	out.uncacheable = q.Runtime == "net" || q.Runtime == "tcp"
	return out, err
}

// encodeBody renders a result document to the bytes cached and served to
// this and every future identical request.
func encodeBody(doc any, tr *trace.Trace) (jobOutput, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return jobOutput{}, err
	}
	b = append(b, '\n')
	return jobOutput{body: b, tr: tr}, nil
}

// runSched executes the workload script on the deterministic runtime
// under the fair scheduler.
func (s *Server) runSched(ctx context.Context, cand broadcast.Candidate, q *RunRequest, reqs []sched.BroadcastReq) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, _ := s.reg.StartSpanIfTraced(ctx, "serve.runtime")
	defer sp.End()
	rt, err := sched.New(sched.Config{
		N:            q.N,
		NewAutomaton: cand.NewAutomaton,
		Oracle:       cand.OracleFor(q.K),
		Obs:          s.reg,
	})
	if err != nil {
		return nil, err
	}
	return rt.RunFair(sched.RunOptions{Broadcasts: reqs})
}

// runConcurrent executes the workload script on the concurrent runtime
// ("net": goroutine nodes on in-memory channels) or the socket transport
// ("tcp": an in-process nettcp cluster whose nodes speak the real wire
// protocol over loopback, each recording its own trace stream, merged by
// the conformance projection), with trace recording on. Each convergence
// wait is bounded by half the job timeout and ends early with the job
// context.
func (s *Server) runConcurrent(ctx context.Context, cand broadcast.Candidate, q *RunRequest, reqs []sched.BroadcastReq, resp *RunResponse) (*trace.Trace, error) {
	sp, _ := s.reg.StartSpanIfTraced(ctx, "serve.runtime")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var faults *net.FaultPlan
	if q.Drop != 0 || q.Dup != 0 {
		faults = &net.FaultPlan{Drop: q.Drop, Dup: q.Dup}
	}
	var (
		c interface {
			net.Cluster
			Stop()
		}
		nw  *net.Network
		cl  *nettcp.Cluster
		err error
	)
	if q.Runtime == "tcp" {
		cl, err = nettcp.StartCluster(nettcp.ClusterConfig{
			N:         q.N,
			K:         cand.OracleDegree(q.K),
			Candidate: cand.Name,
			Seed:      q.Seed,
			Faults:    faults,
			Obs:       s.reg,
		})
		c = cl
	} else {
		nw, err = net.New(net.Config{
			N:            q.N,
			NewAutomaton: cand.NewAutomaton,
			K:            cand.OracleDegree(q.K),
			MaxDelay:     100 * time.Microsecond,
			Seed:         q.Seed,
			Faults:       faults,
			RecordTrace:  true,
			Obs:          s.reg,
		})
		c = nw
	}
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	complete, err := net.Drive(ctx, c, q.N, reqs, s.cfg.JobTimeout/2)
	if err != nil {
		return nil, fmt.Errorf("serve: %s runtime: %w", q.Runtime, err)
	}
	if !complete && faults == nil {
		return nil, fmt.Errorf("serve: fault-free %s run did not converge within the job timeout", q.Runtime)
	}
	c.Stop()
	if nw != nil {
		st := nw.StatsSnapshot()
		resp.Sends = st.Sent
		resp.FaultDrops = st.FaultDrops
		resp.FaultDups = st.FaultDups
		tr := nw.Trace()
		tr.Complete = complete
		return tr, nil
	}
	tr, perNode, err := cl.Collect()
	if err != nil {
		return nil, err
	}
	for _, nt := range perNode {
		if nt.Err != nil {
			return nil, fmt.Errorf("serve: node %d trace stream: %w", nt.ID, nt.Err)
		}
	}
	// Node streams carry the identity-erased projection (no KindSend
	// steps), so the tcp runtime reports no send count.
	tr.Complete = tr.Complete && complete
	return tr, nil
}

// AdversaryRequest is the body of POST /v1/adversary: one Algorithm 1
// construction against a candidate implementation.
type AdversaryRequest struct {
	Candidate string `json:"candidate"`
	K         int    `json:"k,omitempty"` // agreement degree, default 3 (k+1 processes)
	N         int    `json:"n,omitempty"` // solo self-deliveries per process, default 2
}

func (q *AdversaryRequest) normalize() error {
	if q.Candidate == "" {
		q.Candidate = "first-k"
	}
	if q.K == 0 {
		q.K = 3
	}
	if q.K < 2 || q.K > maxAdvK {
		return fmt.Errorf("k must be in 2..%d, got %d", maxAdvK, q.K)
	}
	if q.N == 0 {
		q.N = 2
	}
	if q.N < 1 || q.N > maxAdvN {
		return fmt.Errorf("n must be in 1..%d, got %d", maxAdvN, q.N)
	}
	if _, err := broadcast.Lookup(q.Candidate); err != nil {
		return err
	}
	return nil
}

// LemmaReport is one mechanical lemma verdict in the adversary summary.
type LemmaReport struct {
	Lemma string `json:"lemma"`
	OK    bool   `json:"ok"`
	Err   string `json:"err,omitempty"`
}

// AdversaryResponse is the β projection summary of one construction.
type AdversaryResponse struct {
	Candidate  string         `json:"candidate"`
	K          int            `json:"k"`
	N          int            `json:"n"`
	AlphaSteps int            `json:"alpha_steps"`
	BetaEvents int            `json:"beta_events"`
	Resets     int            `json:"resets"`
	Adoptions  int            `json:"adoptions"`
	Counted    map[string]int `json:"counted"` // per-process counted N-solo messages
	LemmasOK   bool           `json:"lemmas_ok"`
	Lemmas     []LemmaReport  `json:"lemmas"`
}

func (s *Server) handleAdversary(w http.ResponseWriter, r *http.Request) {
	var q AdversaryRequest
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := q.normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := canonicalHash("adversary", &q)
	s.runManaged(w, r, "adversary", hash, uint64(q.K)<<32|uint64(q.N), func(ctx context.Context) (jobOutput, error) {
		return s.executeAdversary(ctx, &q)
	})
}

func (s *Server) executeAdversary(ctx context.Context, q *AdversaryRequest) (jobOutput, error) {
	if err := ctx.Err(); err != nil {
		return jobOutput{}, err
	}
	cand, err := broadcast.Lookup(q.Candidate)
	if err != nil {
		return jobOutput{}, err
	}
	res, err := adversary.Run(adversary.Options{K: q.K, N: q.N, NewAutomaton: cand.NewAutomaton, Obs: s.reg})
	if err != nil {
		return jobOutput{}, err
	}
	reports, ok := res.Verify()
	resp := AdversaryResponse{
		Candidate:  cand.Name,
		K:          q.K,
		N:          q.N,
		AlphaSteps: res.Alpha.X.Len(),
		BetaEvents: res.Beta.X.Len(),
		Resets:     res.Resets,
		Adoptions:  res.Adoptions,
		Counted:    make(map[string]int, len(res.Counted)),
		LemmasOK:   ok,
	}
	for p, ms := range res.Counted {
		resp.Counted[fmt.Sprintf("p%d", int(p))] = len(ms)
	}
	for _, rep := range reports {
		resp.Lemmas = append(resp.Lemmas, LemmaReport{Lemma: rep.Lemma, OK: rep.OK, Err: rep.Err})
	}
	return encodeBody(&resp, res.Alpha)
}
