package conformance

import (
	"fmt"
	"time"

	"nobroadcast/internal/nettcp"
)

// This file extends the differential harness to the third transport:
// the same workload script runs on the deterministic runtime and on a
// nettcp socket cluster (each CAMP node behind a real TCP connection,
// in-process by default, forked processes via SocketConfig.Spawn), and
// the two traces are compared by the identity-erased projections.
//
// Socket runs are conformance-checked, not byte-replayable: kernels and
// schedulers order socket events, so the assertion is verdict
// equivalence plus delivery-set equality, exactly the contract the
// in-process concurrent runtime is held to.

// SocketConfig parameterizes one in-proc-vs-socket differential run.
type SocketConfig struct {
	// Config carries the shared parameters (candidate, N, K, script,
	// seed, fault plan). Faults apply to the socket side only, like the
	// concurrent side of Run.
	Config
	// Rebroadcast floods copies with hash dedup on the socket side.
	Rebroadcast bool
	// Spawn overrides how node processes start (nil = goroutine nodes
	// in this process; nettcp.ExecSpawn forks real processes).
	Spawn nettcp.SpawnFunc
	// Listen is the harness bind address (default loopback ephemeral;
	// bind an explicit port for multi-host runs).
	Listen string
	// External awaits operator-started node processes on other hosts
	// instead of spawning any.
	External bool
	// StartTimeout bounds cluster startup (default 30s; raise it for
	// multi-host runs where operators start nodes by hand).
	StartTimeout time.Duration
}

// SocketResult is the outcome of one socket differential run.
type SocketResult struct {
	// Sched is the deterministic baseline; Socket the merged trace of
	// the TCP cluster's per-node streams.
	Sched, Socket Side
	Comparison
	// SocketComplete reports the socket side converged (every broadcast
	// returned, every node delivered the full script).
	SocketComplete bool
	// Truncated lists node ids whose trace streams ended without the
	// end marker (killed processes); empty on clean runs.
	Truncated []int
}

// RunSockets executes the script on the deterministic runtime and on a
// socket cluster and compares the projections. Errors are reserved for
// runs that fail outright; disagreements land in the result.
func RunSockets(cfg SocketConfig) (*SocketResult, error) {
	schedTr, err := cfg.baseline()
	if err != nil {
		return nil, err
	}
	cl, err := nettcp.StartCluster(nettcp.ClusterConfig{
		N:            cfg.N,
		K:            cfg.Candidate.OracleDegree(cfg.K),
		Candidate:    cfg.Candidate.Name,
		NewAutomaton: cfg.Candidate.NewAutomaton,
		Seed:         cfg.Seed,
		MaxDelay:     cfg.MaxDelay,
		Faults:       cfg.Faults,
		Rebroadcast:  cfg.Rebroadcast,
		Spawn:        cfg.Spawn,
		Listen:       cfg.Listen,
		External:     cfg.External,
		StartTimeout: cfg.StartTimeout,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Stop()
	complete, err := drive(&cfg.Config, cl, "socket")
	if err != nil {
		return nil, err
	}
	cl.Stop()
	tr, perNode, err := cl.Collect()
	if err != nil {
		return nil, err
	}
	// Liveness clauses apply only to converged runs with intact streams.
	tr.Complete = tr.Complete && complete
	res := &SocketResult{SocketComplete: complete}
	for _, nt := range perNode {
		if nt.Err != nil {
			res.Truncated = append(res.Truncated, nt.ID)
		}
	}
	res.Sched, res.Socket, res.Comparison = compare(&cfg.Config, cfg.Candidate.Spec(cfg.K), schedTr, tr)
	return res, nil
}

// CheckSockets runs the socket differential comparison and returns a
// descriptive error on a lost node stream or any divergence, under the
// same rules Check applies to the concurrent runtime. Truncation is
// reported first: a merge that lost a stream can make up verdicts.
func CheckSockets(cfg SocketConfig) (*SocketResult, error) {
	res, err := RunSockets(cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Truncated) > 0 {
		return res, fmt.Errorf("conformance: %s socket run lost node streams %v", cfg.Candidate.Name, res.Truncated)
	}
	return res, res.divergence(&cfg.Config, "socket", res.Sched, res.Socket, res.SocketComplete)
}

// SocketCorpus crosses a representative candidate set with socket runs,
// including a fault-plan cell — the verdict-equivalence battery the
// socket transport is held to. Like Corpus, it is a pure function of
// seed.
func SocketCorpus(seed uint64) []SocketConfig {
	cfgs := Corpus(seed)
	var out []SocketConfig
	for _, cfg := range cfgs {
		// Socket clusters cost real connections per cell; keep the
		// 3-process points and every candidate.
		if cfg.N != 3 {
			continue
		}
		out = append(out, SocketConfig{Config: cfg})
	}
	return out
}
