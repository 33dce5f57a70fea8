package nettcp

import (
	"fmt"
	"hash/fnv"
	stdnet "net"
	"sync"
	"sync/atomic"
	"time"

	"nobroadcast/internal/broadcast"
	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/trace"
)

// NodeConfig configures one CAMP node process.
type NodeConfig struct {
	// ID is the node's process identity (1-based).
	ID int
	// Harness is the coordinator's listen address. Required.
	Harness string
	// Listen is the node's own listen address (default "127.0.0.1:0").
	Listen string
	// NewAutomaton overrides the candidate named in the start frame —
	// used by in-process tests running custom automata. Nil resolves the
	// candidate from the broadcast registry.
	NewAutomaton func(id model.ProcID) sched.Automaton
	// DialTimeout bounds each dial (harness, trace, peers); default 10s.
	DialTimeout time.Duration
	// Obs receives the node's metrics (nettcp.* counters plus the
	// net.faults.* counters of the egress). Nil disables recording.
	Obs *obs.Registry
}

// Node is one CAMP process speaking the nettcp wire protocol: a net.Core
// hosting the one process, on a transport of framed TCP connections to
// its peers, with the k-SA oracle reached over the control connection and
// its steps streamed to the harness as a `.ktr` trace.
type Node struct {
	cfg NodeConfig
	id  model.ProcID
	n   int

	core        *net.Core
	rebroadcast bool

	control *frameConn
	traceC  stdnet.Conn
	ln      stdnet.Listener
	peers   []*frameConn // index p-1; nil at own id
	outs    []chan dataMsg

	decideCh chan model.Value
	killed   atomic.Bool

	// recMu serializes trace recording: the event loop and the control
	// reader (crash steps) both record.
	recMu sync.Mutex
	bw    *trace.BinaryWriter

	// seen dedups flood copies in rebroadcast mode.
	seenMu sync.Mutex
	seen   map[uint64]struct{}

	connWg sync.WaitGroup // the peer accept loop, readers and dispatchers

	framesOut, framesIn, relays, dedups *obs.Counter
}

// RunNode wires a node into the harness's run and blocks until the run
// ends (fStop, a kill, or a connection failure). It is the whole
// lifetime of a node process: cmd/ksasim's -node mode calls exactly
// this.
func RunNode(cfg NodeConfig) error {
	nd, err := newNode(cfg)
	if err != nil {
		return err
	}
	return nd.run()
}

func newNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID < 1 {
		return nil, fmt.Errorf("nettcp: node id must be positive, got %d", cfg.ID)
	}
	if cfg.Harness == "" {
		return nil, fmt.Errorf("nettcp: node needs the harness address")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	return &Node{
		cfg:       cfg,
		id:        model.ProcID(cfg.ID),
		decideCh:  make(chan model.Value, 1),
		seen:      make(map[uint64]struct{}),
		framesOut: cfg.Obs.Counter("nettcp.frames.out"),
		framesIn:  cfg.Obs.Counter("nettcp.frames.in"),
		relays:    cfg.Obs.Counter("nettcp.rebroadcast.relays"),
		dedups:    cfg.Obs.Counter("nettcp.rebroadcast.dedups"),
	}, nil
}

// run executes the node lifecycle: listen, register, receive the start
// frame, wire the mesh, init the automaton, signal ready, then serve the
// event loop until stopped.
func (nd *Node) run() error {
	sp := nd.cfg.Obs.StartSpan("nettcp.node.run")
	defer sp.End()

	var err error
	nd.ln, err = stdnet.Listen("tcp", nd.cfg.Listen)
	if err != nil {
		return fmt.Errorf("nettcp: node %d listen: %w", nd.cfg.ID, err)
	}
	defer nd.ln.Close()

	hc, err := dialRetry(nd.cfg.Harness, nd.cfg.DialTimeout)
	if err != nil {
		return err
	}
	nd.control = newFrameConn(hc)
	defer nd.control.Close()
	if err := nd.control.send(fHello, helloMsg{ID: nd.cfg.ID, Addr: nd.ln.Addr().String()}); err != nil {
		return fmt.Errorf("nettcp: node %d hello: %w", nd.cfg.ID, err)
	}

	t, body, err := nd.control.recv()
	if err != nil {
		return fmt.Errorf("nettcp: node %d awaiting start: %w", nd.cfg.ID, err)
	}
	if t != fStart {
		return fmt.Errorf("nettcp: node %d expected start frame, got type %d", nd.cfg.ID, t)
	}
	var start startMsg
	if err := decode(t, body, &start); err != nil {
		return err
	}
	if err := nd.applyStart(start); err != nil {
		return err
	}
	defer nd.core.Stop() // releases the dispatchers if setup fails

	if err := nd.openTrace(start); err != nil {
		return err
	}
	nd.connWg.Add(1)
	go nd.acceptPeers()
	if err := nd.dialPeers(start.Peers); err != nil {
		return err
	}

	// The mesh is wired: Init may emit sends.
	nd.core.Start()
	go nd.readControl()
	if err := nd.control.send(fReady, struct{}{}); err != nil {
		return fmt.Errorf("nettcp: node %d ready: %w", nd.cfg.ID, err)
	}

	// The control reader stops the core on fStop or a lost harness.
	nd.core.Wait()
	nd.shutdown()
	return nil
}

// applyStart validates the start frame and builds the node's core from
// it.
func (nd *Node) applyStart(start startMsg) error {
	if start.N < 1 || nd.cfg.ID > start.N {
		return fmt.Errorf("nettcp: node %d outside system of %d processes", nd.cfg.ID, start.N)
	}
	if len(start.Peers) != start.N {
		return fmt.Errorf("nettcp: start frame carries %d peer addresses for %d processes", len(start.Peers), start.N)
	}
	nd.n = start.N
	nd.rebroadcast = start.Rebroadcast
	nd.peers = make([]*frameConn, start.N)
	nd.outs = make([]chan dataMsg, start.N)

	newAutomaton := nd.cfg.NewAutomaton
	if newAutomaton == nil {
		c, err := broadcast.Lookup(start.Candidate)
		if err != nil {
			return err
		}
		newAutomaton = c.NewAutomaton
	}
	egress, err := net.NewEgress(start.Faults.plan(), start.N,
		rng.Derive(start.Seed, uint64(nd.cfg.ID)), time.Duration(start.MaxDelayNS), nd.cfg.Obs)
	if err != nil {
		return err
	}
	nd.core = net.NewCore(start.N, []model.ProcID{nd.id}, newAutomaton, 1024, egress, net.Transport{
		Emit:    nd.emit,
		Propose: nd.propose,
		Record:  nd.record,
		Deliver: func(net.Delivery) { nd.pushStatus() },
		Return:  func(model.ProcID) { nd.pushStatus() },
	})
	return nil
}

// openTrace dials the harness a second time and turns the connection
// into a raw wire-format-v1 stream after one identifying frame.
func (nd *Node) openTrace(start startMsg) error {
	tc, err := dialRetry(nd.cfg.Harness, nd.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if err := newFrameConn(tc).send(fTraceHello, helloMsg{ID: nd.cfg.ID}); err != nil {
		tc.Close()
		return fmt.Errorf("nettcp: node %d trace hello: %w", nd.cfg.ID, err)
	}
	bw, err := trace.NewBinaryWriter(tc, trace.StreamHeader{
		N: start.N, Complete: true, Name: fmt.Sprintf("node-%d", nd.cfg.ID), Steps: -1,
	})
	if err != nil {
		tc.Close()
		return err
	}
	nd.traceC = tc
	nd.bw = bw
	return nil
}

// acceptPeers accepts inbound peer connections and serves each with a
// reader goroutine until the listener closes at shutdown. Like the
// harness's accept loop, it holds its own count in connWg, so its Adds
// never race shutdown's Wait.
func (nd *Node) acceptPeers() {
	defer nd.connWg.Done()
	for {
		c, err := nd.ln.Accept()
		if err != nil {
			return
		}
		nd.connWg.Add(1)
		go func() {
			defer nd.connWg.Done()
			defer c.Close()
			fc := newFrameConn(c)
			t, body, err := fc.recv()
			if err != nil || t != fPeerHello {
				return
			}
			var ph peerHelloMsg
			if decode(t, body, &ph) != nil {
				return
			}
			for {
				t, body, err := fc.recv()
				if err != nil {
					return
				}
				if t != fData {
					continue
				}
				var dm dataMsg
				if decode(t, body, &dm) != nil {
					continue
				}
				nd.framesIn.Inc()
				nd.onData(dm)
			}
		}()
	}
}

// dialPeers connects to every other node and starts one dispatcher
// goroutine per peer, drand-style: the event loop never blocks on a
// socket write — it hands frames to the peer's out channel and the
// dispatcher pumps them.
func (nd *Node) dialPeers(peers []string) error {
	for p := 1; p <= nd.n; p++ {
		if p == nd.cfg.ID {
			continue
		}
		c, err := dialRetry(peers[p-1], nd.cfg.DialTimeout)
		if err != nil {
			return err
		}
		fc := newFrameConn(c)
		if err := fc.send(fPeerHello, peerHelloMsg{From: nd.cfg.ID}); err != nil {
			c.Close()
			return fmt.Errorf("nettcp: node %d peer hello to %d: %w", nd.cfg.ID, p, err)
		}
		out := make(chan dataMsg, 1024)
		nd.peers[p-1] = fc
		nd.outs[p-1] = out
		nd.connWg.Add(1)
		go func(fc *frameConn, out chan dataMsg) {
			defer nd.connWg.Done()
			for {
				select {
				case dm := <-out:
					// Write errors mean the peer died or the run is
					// tearing down: a lost frame is indistinguishable
					// from one forever in transit.
					if fc.send(fData, dm) == nil {
						nd.framesOut.Inc()
					}
				case <-nd.core.Done():
					return
				}
			}
		}(fc, out)
	}
	return nil
}

// readControl serves the harness's control frames. A read error (the
// harness hung up) ends the run like an fStop would.
func (nd *Node) readControl() {
	for {
		t, body, err := nd.control.recv()
		if err != nil {
			nd.core.Stop()
			return
		}
		switch t {
		case fBcast:
			var bm bcastMsg
			if decode(t, body, &bm) != nil {
				continue
			}
			nd.core.Invoke(nd.id, bm.Msg, bm.Payload)
		case fCrash:
			nd.core.Crash(nd.id)
		case fDecide:
			var km ksaMsg
			if decode(t, body, &km) != nil {
				continue
			}
			select {
			case nd.decideCh <- km.Val:
			case <-nd.core.Done():
				return
			}
		case fStop:
			nd.core.Stop()
			return
		}
	}
}

// propose round-trips one k-SA proposition through the harness-hosted
// oracle. ok is false when the run stopped before the decision arrived.
func (nd *Node) propose(_ model.ProcID, obj model.KSAID, val model.Value) (model.Value, bool) {
	if err := nd.control.send(fPropose, ksaMsg{Obj: obj, Val: val}); err != nil {
		return "", false
	}
	select {
	case v := <-nd.decideCh:
		return v, true
	case <-nd.core.Done():
		return "", false
	}
}

// emit puts one copy on the wire at its origin. In direct mode the
// frame goes straight to its destination (or the local inbox). In
// rebroadcast mode every copy floods to all peers — destination
// included — and dedup keeps each copy's first sighting only.
func (nd *Node) emit(from, to model.ProcID, seq int64, dup int, payload model.Payload) {
	dm := dataMsg{From: int(from), Dest: int(to), Seq: seq, Copy: dup, Payload: payload}
	if !nd.rebroadcast {
		if to == nd.id {
			nd.core.Receive(to, from, seq, payload)
			return
		}
		nd.toPeer(dm.Dest, dm)
		return
	}
	nd.markSeen(dm)
	if to == nd.id {
		nd.core.Receive(to, from, seq, payload)
	}
	for p := 1; p <= nd.n; p++ {
		if p == nd.cfg.ID {
			continue
		}
		nd.toPeer(p, dm)
	}
}

// onData handles one inbound data frame. Direct mode delivers it to the
// event loop; rebroadcast mode dedups, relays once, and delivers only
// frames addressed here.
func (nd *Node) onData(dm dataMsg) {
	if nd.rebroadcast {
		if !nd.markSeen(dm) {
			nd.dedups.Inc()
			return
		}
		nd.relay(dm)
		if dm.Dest != nd.cfg.ID {
			return
		}
	}
	nd.core.Receive(nd.id, model.ProcID(dm.From), dm.Seq, dm.Payload)
}

// relay forwards a first-sighted flood copy to every peer except
// ourselves, the origin, and the hop it arrived from.
func (nd *Node) relay(dm dataMsg) {
	via := dm.Via
	dm.Via = nd.cfg.ID
	for p := 1; p <= nd.n; p++ {
		if p == nd.cfg.ID || p == dm.From || p == via {
			continue
		}
		nd.relays.Inc()
		nd.toPeer(p, dm)
	}
}

// toPeer hands a frame to peer p's dispatcher. A full out channel
// blocks briefly: the dispatcher always drains (peer readers never
// block — the core's inbox sheds), so this cannot deadlock.
func (nd *Node) toPeer(p int, dm dataMsg) {
	out := nd.outs[p-1]
	if out == nil {
		return
	}
	select {
	case out <- dm:
	case <-nd.core.Done():
	}
}

// markSeen records a flood copy's identity hash; false means it was
// already seen. The hash keys origin, destination, send ordinal, copy
// index, and payload, so fault-injected duplicates (distinct Copy)
// still arrive as duplicates.
func (nd *Node) markSeen(dm dataMsg) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|", dm.From, dm.Dest, dm.Seq, dm.Copy)
	h.Write([]byte(dm.Payload))
	key := h.Sum64()
	nd.seenMu.Lock()
	defer nd.seenMu.Unlock()
	if _, ok := nd.seen[key]; ok {
		return false
	}
	nd.seen[key] = struct{}{}
	return true
}

// record appends one step to the node's trace stream.
func (nd *Node) record(s model.Step) {
	nd.recMu.Lock()
	defer nd.recMu.Unlock()
	if nd.bw != nil {
		nd.bw.Step(s)
	}
}

// pushStatus sends the progress counters to the harness, best-effort.
func (nd *Node) pushStatus() {
	nd.control.send(fStatus, statusMsg{Delivered: nd.core.Delivered(nd.id), Returned: nd.core.Returned(nd.id)})
}

// Kill tears the node down abruptly — no trace end marker, no final
// status — emulating a killed process for in-process clusters. The
// harness observes the cut trace stream as trace.ErrTruncated.
func (nd *Node) Kill() {
	nd.killed.Store(true)
	if nd.traceC != nil {
		nd.traceC.Close()
	}
	nd.core.Stop()
}

// shutdown finishes a run whose core has drained: the trace stream's end
// marker flushes and a final status reaches the harness before the
// connections close. A killed node skips the clean half.
func (nd *Node) shutdown() {
	if !nd.killed.Load() {
		nd.recMu.Lock()
		if nd.bw != nil {
			nd.bw.Close()
		}
		nd.recMu.Unlock()
		nd.pushStatus()
	}
	if nd.traceC != nil {
		nd.traceC.Close()
	}
	nd.ln.Close()
	for _, fc := range nd.peers {
		if fc != nil {
			fc.Close()
		}
	}
	nd.connWg.Wait()
}
