package nettcp

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/trace"
)

// NodeHandle controls one spawned node: Kill tears it down abruptly (a
// killed process leaves a truncated trace stream), Wait joins its exit.
type NodeHandle interface {
	Kill() error
	Wait() error
}

// SpawnFunc starts node id pointed at the harness address and returns
// its handle. Nil ClusterConfig.Spawn means in-process goroutine nodes;
// ExecSpawn forks real processes.
type SpawnFunc func(id int, harnessAddr string) (NodeHandle, error)

// ClusterConfig configures a full socket run: a harness plus N spawned
// nodes.
type ClusterConfig struct {
	N, K      int
	Candidate string
	// NewAutomaton overrides the candidate for in-process nodes (ignored
	// by forked processes, which resolve the candidate by name).
	NewAutomaton func(id model.ProcID) sched.Automaton
	Seed         uint64
	MaxDelay     time.Duration
	Faults       *net.FaultPlan
	Rebroadcast  bool
	// Listen is the harness bind address; StartTimeout bounds startup.
	Listen       string
	StartTimeout time.Duration
	// Spawn starts each node. Nil runs nodes as goroutines in this
	// process — same wire protocol, same sockets, no fork.
	Spawn SpawnFunc
	// External skips spawning entirely: node processes are started by an
	// operator on other hosts and dial in on their own (multi-host mode).
	External bool
	Obs      *obs.Registry
}

// Cluster is a started socket run.
type Cluster struct {
	h       *Harness
	handles []NodeHandle
}

// goroutineHandle adapts an in-process Node to NodeHandle. The run
// result is latched so Wait is reentrant (Stop runs more than once in
// tests: once explicitly, once from cleanup).
type goroutineHandle struct {
	nd   *Node
	done chan struct{}
	err  error
}

func (g *goroutineHandle) Kill() error {
	g.nd.Kill()
	return nil
}

func (g *goroutineHandle) Wait() error {
	<-g.done
	return g.err
}

// procHandle adapts a forked process to NodeHandle.
type procHandle struct{ cmd *exec.Cmd }

func (p *procHandle) Kill() error { return p.cmd.Process.Kill() }
func (p *procHandle) Wait() error { return p.cmd.Wait() }

// ExecSpawn returns a SpawnFunc forking bin with argv(id, harnessAddr)
// as arguments — the harness side of cmd/ksasim's -node mode, which
// re-execs its own binary once per node.
func ExecSpawn(bin string, argv func(id int, harnessAddr string) []string) SpawnFunc {
	return func(id int, harnessAddr string) (NodeHandle, error) {
		cmd := exec.Command(bin, argv(id, harnessAddr)...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("nettcp: spawn node %d: %w", id, err)
		}
		return &procHandle{cmd: cmd}, nil
	}
}

// StartCluster brings up a harness and its N nodes and completes the
// start handshake. Callers must Stop the cluster.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	h, err := NewHarness(HarnessConfig{
		N: cfg.N, K: cfg.K, Candidate: cfg.Candidate, Seed: cfg.Seed,
		MaxDelay: cfg.MaxDelay, Faults: cfg.Faults, Rebroadcast: cfg.Rebroadcast,
		Listen: cfg.Listen, StartTimeout: cfg.StartTimeout, Obs: cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	cl := &Cluster{h: h}
	if !cfg.External {
		spawn := cfg.Spawn
		if spawn == nil {
			spawn = goroutineSpawn(cfg)
		}
		for id := 1; id <= cfg.N; id++ {
			hd, err := spawn(id, h.Addr())
			if err != nil {
				cl.Stop()
				return nil, err
			}
			cl.handles = append(cl.handles, hd)
		}
	}
	if err := h.Start(); err != nil {
		cl.Stop()
		return nil, err
	}
	return cl, nil
}

// goroutineSpawn runs nodes inside this process: full wire protocol
// over loopback sockets, without fork/exec. Tests and the serve layer
// use it; cmd/ksasim forks real processes via ExecSpawn.
func goroutineSpawn(cfg ClusterConfig) SpawnFunc {
	return func(id int, harnessAddr string) (NodeHandle, error) {
		nd, err := newNode(NodeConfig{
			ID: id, Harness: harnessAddr, NewAutomaton: cfg.NewAutomaton, Obs: cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		g := &goroutineHandle{nd: nd, done: make(chan struct{})}
		go func() {
			g.err = nd.run()
			close(g.done)
		}()
		return g, nil
	}
}

// Broadcast invokes B.broadcast at process p.
func (cl *Cluster) Broadcast(p model.ProcID, payload model.Payload) (model.MsgID, error) {
	return cl.h.Broadcast(p, payload)
}

// Crash crashes process p (it stops processing but exits cleanly).
func (cl *Cluster) Crash(p model.ProcID) error { return cl.h.Crash(p) }

// Kill abruptly terminates process p's node, leaving its trace stream
// truncated.
func (cl *Cluster) Kill(p model.ProcID) error {
	if p < 1 || int(p) > len(cl.handles) {
		return fmt.Errorf("nettcp: no spawned process %v", p)
	}
	return cl.handles[p-1].Kill()
}

// Delivered and Returned report process p's last-pushed progress.
func (cl *Cluster) Delivered(p model.ProcID) int64 { return cl.h.Delivered(p) }
func (cl *Cluster) Returned(p model.ProcID) int64  { return cl.h.Returned(p) }

// Progress is the harness's progress signal, announced after every status
// frame it stores.
func (cl *Cluster) Progress() *net.Progress { return &cl.h.progress }

// WaitUntil blocks until cond holds or timeout, re-checking it after each
// status frame (see net.Progress.Await).
func (cl *Cluster) WaitUntil(cond func() bool, timeout time.Duration) bool {
	return cl.Progress().Await(context.TODO(), cond, timeout)
}

// Stop ends the run and joins the spawned nodes.
func (cl *Cluster) Stop() {
	cl.h.Stop()
	for _, hd := range cl.handles {
		hd.Wait()
	}
}

// Collect merges the per-node trace streams; call after Stop.
func (cl *Cluster) Collect() (*trace.Trace, []NodeTrace, error) { return cl.h.Collect() }

// Addr returns the harness listen address (for external nodes).
func (cl *Cluster) Addr() string { return cl.h.Addr() }

// ReadHostsFile parses a multi-host flag file: one line per node,
// "<id> <host>", '#' comments and blank lines ignored. It returns the
// highest id as N and the per-node host annotations (informational —
// nodes dial the harness, not the reverse). Operators start
// `ksasim -node -id <id> -harness <addr>` on each listed host.
func ReadHostsFile(path string) (n int, hosts map[int]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	hosts = make(map[int]string)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var id int
		var host string
		if _, err := fmt.Sscanf(text, "%d %s", &id, &host); err != nil {
			return 0, nil, fmt.Errorf("nettcp: %s:%d: want \"<id> <host>\", got %q", path, line, text)
		}
		if id < 1 {
			return 0, nil, fmt.Errorf("nettcp: %s:%d: node ids are 1-based, got %d", path, line, id)
		}
		if _, dup := hosts[id]; dup {
			return 0, nil, fmt.Errorf("nettcp: %s:%d: duplicate node id %d", path, line, id)
		}
		hosts[id] = host
		if id > n {
			n = id
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if len(hosts) == 0 {
		return 0, nil, fmt.Errorf("nettcp: %s lists no nodes", path)
	}
	if len(hosts) != n {
		return 0, nil, fmt.Errorf("nettcp: %s lists %d nodes but the highest id is %d — ids must be contiguous from 1", path, len(hosts), n)
	}
	return n, hosts, nil
}
