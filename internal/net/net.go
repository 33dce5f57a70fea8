// Package net provides the concurrent runtime: an in-memory asynchronous
// network where each process runs as its own goroutine and messages travel
// with randomized delays and reordering. It drives the same deterministic
// automata as the step-driven runtime (internal/sched), so algorithms
// verified there run unchanged under real concurrency. Its processes run
// on the node core (Core), which internal/nettcp's socket transport
// shares.
//
// By default the network implements the communication model of Section 2:
// complete (every process can send to every process, including itself),
// reliable (no loss, duplication, or corruption), non-FIFO (randomized
// per-message delay), and asynchronous (finite but unbounded — here
// bounded by MaxDelay — transit times). Crash failures stop a process's
// event loop; messages addressed to crashed processes are dropped, which
// is indistinguishable from them being forever in transit.
//
// A Config.Faults plan deliberately violates the reliability assumptions —
// seeded message loss, duplication, alternative delay distributions, and
// timed partitions — so experiments can measure which broadcast
// specifications survive which model violations. Every injected fault is
// counted under the net.faults.* metrics.
//
// Unlike internal/sched, runs are not deterministic: this runtime exists
// for realistic end-to-end examples, fault-injection experiments, and
// throughput benchmarks, not for the proof machinery. The cross-runtime
// conformance harness (internal/conformance) differentially checks the two
// runtimes against the same specifications using the optional trace
// recorder (Config.RecordTrace).
package net

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
)

// Delivery is one B-delivery observed at a node.
type Delivery struct {
	At      model.ProcID
	From    model.ProcID
	Msg     model.MsgID
	Payload model.Payload
}

// Config configures a Network.
type Config struct {
	// N is the number of processes.
	N int
	// NewAutomaton builds the broadcast algorithm per process. Required.
	NewAutomaton func(id model.ProcID) sched.Automaton
	// K is the agreement degree of the shared k-SA oracle (default 1).
	K int
	// MaxDelay bounds the random per-message transit delay. Zero means
	// inline forwarding: messages are enqueued at their destination in
	// send order (per-link FIFO), though cross-node concurrency remains.
	MaxDelay time.Duration
	// Seed feeds the delay generator and the fault plan's coin flips.
	Seed uint64
	// OnDeliver, if set, observes every B-delivery. It is called from node
	// goroutines and must be safe for concurrent use; it may call back
	// into Broadcast (reentrancy is supported — inboxes are unbounded, so
	// enqueueing never blocks the node loop). Progress is announced after
	// it returns.
	OnDeliver func(Delivery)
	// Faults optionally injects link-level faults (drop, duplication,
	// delay distributions, timed partitions). Nil keeps the reliable
	// network of the model.
	Faults *FaultPlan
	// RecordTrace records broadcast-interface events (invocations,
	// returns, deliveries) plus k-SA propositions, decisions, and crashes
	// into an Execution retrievable via Trace. Used by the cross-runtime
	// conformance harness.
	RecordTrace bool
	// LiveSpecs are specifications checked online during the run: every
	// step the recorder observes is fed to each spec's incremental
	// checker, under the recorder mutex. This works with or without
	// RecordTrace — without it, the run is checked in O(checker state)
	// memory and no step log is kept (streaming mode). Verdicts are read
	// via LiveViolation and FinishLive.
	LiveSpecs []spec.Spec
	// Obs receives network metrics (send/receive/delivery counters, the
	// in-flight gauge, delay and handler-latency histograms, fault
	// counters). Nil keeps the cheap standalone counters behind
	// StatsSnapshot and nothing else.
	Obs *obs.Registry
}

// Network is a running concurrent system: a Core hosting all N processes
// on in-memory channels, with one k-SA oracle, one recorder and one
// Egress shared by every node.
type Network struct {
	cfg    Config
	core   *Core
	egress *Egress
	oracle *safeOracle
	msgSeq atomic.Int64
	rec    *recorder
}

// StatsSnapshot is a plain copy of the network counters (backed by
// internal/obs; this type remains as the compatibility surface of the old
// hand-rolled Stats struct, extended with the drop/reorder/crash counters
// it never tracked and the fault-injection counters).
type StatsSnapshot struct {
	Sent, Received, Delivered, Broadcasts int64
	Dropped, Reordered, Crashes           int64
	// FaultDrops, FaultDups, and PartitionDrops count messages lost,
	// duplicated, and cut by the FaultPlan (zero without one).
	FaultDrops, FaultDups, PartitionDrops int64
}

// safeOracle serializes k-SA propositions across node goroutines.
type safeOracle struct {
	mu    sync.Mutex
	inner *sched.FreeOracle
}

func (o *safeOracle) propose(obj model.KSAID, proc model.ProcID, v model.Value) model.Value {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.Propose(obj, proc, v)
}

// safeRng serializes the delay/fault generator.
type safeRng struct {
	mu  sync.Mutex
	src *rng.Source
}

// uniform draws a uniform duration in [0, max). The draw reduces a full
// 64-bit value modulo the int64 nanosecond count: the previous
// int-truncating Intn path overflowed for max > ~2.1s on 32-bit platforms
// (Intn panics on a non-positive bound). The modulo bias is max/2^64 —
// negligible for any realistic delay.
func (s *safeRng) uniform(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.src.Uint64() % uint64(max))
}

// float64 draws a uniform value in [0, 1) for fault coin flips.
func (s *safeRng) float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Float64()
}

// New builds and starts a network. Callers must Stop it.
func New(cfg Config) (*Network, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("net: N must be positive, got %d", cfg.N)
	}
	if cfg.NewAutomaton == nil {
		return nil, fmt.Errorf("net: NewAutomaton is required")
	}
	eg, err := NewEgress(cfg.Faults, cfg.N, cfg.Seed, cfg.MaxDelay, cfg.Obs)
	if err != nil {
		return nil, err
	}
	if cfg.K < 1 {
		cfg.K = 1
	}
	nw := &Network{
		cfg:    cfg,
		egress: eg,
		oracle: &safeOracle{inner: sched.NewFreeOracle(cfg.K)},
	}
	if cfg.RecordTrace || len(cfg.LiveSpecs) > 0 {
		nw.rec = newRecorder(cfg.N, cfg.RecordTrace, cfg.LiveSpecs)
	}
	ids := make([]model.ProcID, cfg.N)
	for i := range ids {
		ids[i] = model.ProcID(i + 1)
	}
	nw.core = NewCore(cfg.N, ids, cfg.NewAutomaton, eg, Transport{
		Emit: func(from, to model.ProcID, seq int64, _ int, payload model.Payload) {
			nw.core.Receive(to, from, seq, payload)
		},
		Propose: func(p model.ProcID, obj model.KSAID, v model.Value) (model.Value, bool) {
			return nw.oracle.propose(obj, p, v), true
		},
		Record:  nw.rec.record,
		Deliver: cfg.OnDeliver,
	})
	nw.core.Start()
	return nw, nil
}

// Broadcast invokes B.broadcast at process p with the given content and
// returns the fresh message identity. It never blocks: the invocation
// event joins p's unbounded inbox, and an event still queued when Stop
// begins is discarded (indistinguishable from a crash between invocation
// and any send).
func (nw *Network) Broadcast(p model.ProcID, payload model.Payload) (model.MsgID, error) {
	if p < 1 || int(p) > nw.cfg.N {
		return model.NoMsg, fmt.Errorf("net: no process %v", p)
	}
	msg := model.MsgID(nw.msgSeq.Add(1))
	if !nw.core.Invoke(p, msg, payload) {
		return model.NoMsg, fmt.Errorf("net: network is stopped or %v crashed", p)
	}
	return msg, nil
}

// Crash crashes process p: it stops processing events immediately.
func (nw *Network) Crash(p model.ProcID) error {
	if p < 1 || int(p) > nw.cfg.N {
		return fmt.Errorf("net: no process %v", p)
	}
	nw.core.Crash(p)
	return nil
}

// Delivered reports how many messages process p has B-delivered.
func (nw *Network) Delivered(p model.ProcID) int64 { return nw.core.Delivered(p) }

// Returned reports how many B.broadcast invocations at process p have
// returned. The conformance harness uses it to respect well-formedness
// (invocations and responses alternate per process).
func (nw *Network) Returned(p model.ProcID) int64 { return nw.core.Returned(p) }

// StatsSnapshot returns the current counters.
func (nw *Network) StatsSnapshot() StatsSnapshot { return nw.egress.met.snapshot() }

// Progress is the network's progress signal, announced after every event
// a process takes, every drop and every crash.
func (nw *Network) Progress() *Progress { return nw.core.Progress() }

// WaitUntil blocks until cond holds or the timeout elapses, returning
// whether it held; it re-checks cond after each progress announcement
// (see Progress.Await). It is the intended way for integration tests and
// examples to await eventual-delivery conditions. cond may read the
// counters, the recorder and state the OnDeliver callback keeps.
func (nw *Network) WaitUntil(cond func() bool, timeout time.Duration) bool {
	return nw.Progress().Await(context.TODO(), cond, timeout)
}

// Stop shuts the network down: no further events are accepted, in-flight
// message goroutines drain, queued events are dropped, and all node
// goroutines join. It is idempotent, and it terminates even while
// OnDeliver callbacks are reentrantly broadcasting.
func (nw *Network) Stop() { nw.core.Stop() }
