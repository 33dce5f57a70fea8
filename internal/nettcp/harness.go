package nettcp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"sync"
	"sync/atomic"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/trace"
)

// HarnessConfig configures a run coordinator.
type HarnessConfig struct {
	// N is the number of processes; K the oracle's agreement degree
	// (default 1).
	N, K int
	// Candidate names the broadcast abstraction nodes should run (nodes
	// with a NewAutomaton override ignore it, but it still labels the
	// collected trace).
	Candidate string
	// Seed feeds the per-node egress generators (derived positionally).
	Seed uint64
	// MaxDelay bounds each node's artificial egress delay.
	MaxDelay time.Duration
	// Faults is the fault plan every node's egress applies. Validated
	// against N here, before any node process starts.
	Faults *net.FaultPlan
	// Rebroadcast floods every copy to all peers with hash dedup.
	Rebroadcast bool
	// Listen is the harness bind address (default "127.0.0.1:0"; bind
	// "0.0.0.0:port" for multi-host runs).
	Listen string
	// StartTimeout bounds the wait for all nodes to register and become
	// ready (default 30s).
	StartTimeout time.Duration
	// Obs receives harness metrics. Nil disables recording.
	Obs *obs.Registry
}

// nodeLink is the harness's view of one node.
type nodeLink struct {
	id int

	mu      sync.Mutex
	fc      *frameConn // control connection; nil until hello
	addr    string
	rawLive stdnet.Conn // trace connection; nil until trace hello

	ready     chan struct{}
	traceDone chan struct{}
	traceMu   sync.Mutex
	traceBuf  bytes.Buffer

	delivered atomic.Int64
	returned  atomic.Int64
}

// Harness coordinates one socket run: it distributes the address book
// and run parameters, hosts the shared k-SA oracle, injects broadcasts
// and crashes, and collects the per-node trace streams.
type Harness struct {
	cfg    HarnessConfig
	ln     stdnet.Listener
	links  []*nodeLink
	msgSeq atomic.Int64

	oracleMu sync.Mutex
	oracle   *sched.FreeOracle

	helloCh chan int // control registrations, by node id
	traceCh chan int // trace registrations, by node id

	stopOnce sync.Once
	wg       sync.WaitGroup // the accept loop and its connections

	// progress is announced after every status frame a link stores.
	progress net.Progress

	proposes, statuses *obs.Counter
}

// NewHarness binds the coordinator's listener and starts accepting node
// registrations. Callers spawn the node processes (or let a Cluster do
// it), then call Start.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("nettcp: N must be positive, got %d", cfg.N)
	}
	if cfg.K < 1 {
		cfg.K = 1
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.StartTimeout <= 0 {
		cfg.StartTimeout = 30 * time.Second
	}
	if err := cfg.Faults.Validate(cfg.N); err != nil {
		return nil, err
	}
	ln, err := stdnet.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("nettcp: harness listen: %w", err)
	}
	h := &Harness{
		cfg:      cfg,
		ln:       ln,
		links:    make([]*nodeLink, cfg.N),
		oracle:   sched.NewFreeOracle(cfg.K),
		helloCh:  make(chan int, cfg.N),
		traceCh:  make(chan int, cfg.N),
		proposes: cfg.Obs.Counter("nettcp.harness.proposes"),
		statuses: cfg.Obs.Counter("nettcp.harness.statuses"),
	}
	for i := range h.links {
		h.links[i] = &nodeLink{
			id:        i + 1,
			ready:     make(chan struct{}),
			traceDone: make(chan struct{}),
		}
	}
	h.wg.Add(1)
	go h.accept()
	return h, nil
}

// Addr returns the harness's listen address, for node -harness flags.
func (h *Harness) Addr() string { return h.ln.Addr().String() }

// accept identifies each inbound connection by its first frame: a
// control registration (fHello) or a trace stream (fTraceHello). The
// loop holds its own count in wg until the listener closes, so every
// Add here starts from a positive counter and never races Stop's Wait.
func (h *Harness) accept() {
	defer h.wg.Done()
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.identify(c)
		}()
	}
}

// identify reads the first frame without buffering past it, so a trace
// connection's following raw `.ktr` bytes stay on the wire.
func (h *Harness) identify(c stdnet.Conn) {
	t, body, err := readFrameFrom(c)
	if err != nil {
		c.Close()
		return
	}
	var hm helloMsg
	if decode(t, body, &hm) != nil || hm.ID < 1 || hm.ID > h.cfg.N {
		c.Close()
		return
	}
	nl := h.links[hm.ID-1]
	switch t {
	case fHello:
		nl.mu.Lock()
		nl.fc = newFrameConn(c)
		nl.addr = hm.Addr
		nl.mu.Unlock()
		select {
		case h.helloCh <- hm.ID:
		default:
		}
		h.serveControl(nl)
	case fTraceHello:
		nl.mu.Lock()
		nl.rawLive = c
		nl.mu.Unlock()
		select {
		case h.traceCh <- hm.ID:
		default:
		}
		h.drainTrace(nl, c)
	default:
		c.Close()
	}
}

// serveControl handles one node's control frames until the connection
// drops: readiness, status pushes, and oracle round-trips.
func (h *Harness) serveControl(nl *nodeLink) {
	fc := nl.control()
	for {
		t, body, err := fc.recv()
		if err != nil {
			return
		}
		switch t {
		case fReady:
			select {
			case <-nl.ready:
			default:
				close(nl.ready)
			}
		case fStatus:
			var sm statusMsg
			if decode(t, body, &sm) != nil {
				continue
			}
			h.statuses.Inc()
			nl.delivered.Store(sm.Delivered)
			nl.returned.Store(sm.Returned)
			h.progress.Announce()
		case fPropose:
			var km ksaMsg
			if decode(t, body, &km) != nil {
				continue
			}
			h.proposes.Inc()
			h.oracleMu.Lock()
			val := h.oracle.Propose(km.Obj, model.ProcID(nl.id), km.Val)
			h.oracleMu.Unlock()
			fc.send(fDecide, ksaMsg{Obj: km.Obj, Val: val})
		}
	}
}

// drainTrace buffers a node's raw trace stream until the node closes it
// (cleanly after the end marker, or abruptly on a kill).
func (h *Harness) drainTrace(nl *nodeLink, c stdnet.Conn) {
	defer close(nl.traceDone)
	defer c.Close()
	buf := make([]byte, 32*1024)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			nl.traceMu.Lock()
			nl.traceBuf.Write(buf[:n])
			nl.traceMu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

func (nl *nodeLink) control() *frameConn {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	return nl.fc
}

// Start runs the registration handshake to completion: await all
// control registrations, distribute the start frame with the full
// address book, then await every node's readiness and trace stream. A
// stream still in the listener's backlog when a short run stops would
// be lost with the listener, so Start returns only once all N are
// registered.
func (h *Harness) Start() error {
	deadline := time.NewTimer(h.cfg.StartTimeout)
	defer deadline.Stop()
	if err := h.await(h.helloCh, deadline.C, "nodes"); err != nil {
		return err
	}
	start := startMsg{
		N:           h.cfg.N,
		K:           h.cfg.K,
		Candidate:   h.cfg.Candidate,
		Seed:        h.cfg.Seed,
		MaxDelayNS:  int64(h.cfg.MaxDelay),
		Rebroadcast: h.cfg.Rebroadcast,
		Faults:      wireFaults(h.cfg.Faults),
		Peers:       make([]string, h.cfg.N),
	}
	for i, nl := range h.links {
		nl.mu.Lock()
		start.Peers[i] = nl.addr
		nl.mu.Unlock()
	}
	for _, nl := range h.links {
		if err := nl.control().send(fStart, start); err != nil {
			return fmt.Errorf("nettcp: start frame to node %d: %w", nl.id, err)
		}
	}
	for _, nl := range h.links {
		select {
		case <-nl.ready:
		case <-deadline.C:
			return fmt.Errorf("nettcp: node %d not ready within %v", nl.id, h.cfg.StartTimeout)
		}
	}
	return h.await(h.traceCh, deadline.C, "trace streams")
}

// await receives N registrations from ch before the deadline fires.
func (h *Harness) await(ch chan int, deadline <-chan time.Time, what string) error {
	for seen := 0; seen < h.cfg.N; seen++ {
		select {
		case <-ch:
		case <-deadline:
			return fmt.Errorf("nettcp: %d of %d %s registered within %v", seen, h.cfg.N, what, h.cfg.StartTimeout)
		}
	}
	return nil
}

// Broadcast invokes B.broadcast at process p with a fresh global
// message identity.
func (h *Harness) Broadcast(p model.ProcID, payload model.Payload) (model.MsgID, error) {
	nl, err := h.link(p)
	if err != nil {
		return model.NoMsg, err
	}
	msg := model.MsgID(h.msgSeq.Add(1))
	if err := nl.control().send(fBcast, bcastMsg{Msg: msg, Payload: payload}); err != nil {
		return model.NoMsg, fmt.Errorf("nettcp: broadcast to node %d: %w", p, err)
	}
	return msg, nil
}

// Crash crashes process p: it stops processing events but still closes
// its trace stream cleanly at the end of the run.
func (h *Harness) Crash(p model.ProcID) error {
	nl, err := h.link(p)
	if err != nil {
		return err
	}
	return nl.control().send(fCrash, struct{}{})
}

// Delivered reports process p's last-pushed delivery count.
func (h *Harness) Delivered(p model.ProcID) int64 {
	nl, err := h.link(p)
	if err != nil {
		return 0
	}
	return nl.delivered.Load()
}

// Returned reports process p's last-pushed count of returned
// B.broadcast invocations.
func (h *Harness) Returned(p model.ProcID) int64 {
	nl, err := h.link(p)
	if err != nil {
		return 0
	}
	return nl.returned.Load()
}

func (h *Harness) link(p model.ProcID) (*nodeLink, error) {
	if p < 1 || int(p) > h.cfg.N {
		return nil, fmt.Errorf("nettcp: no process %v", p)
	}
	return h.links[p-1], nil
}

// Stop ends the run: every reachable node gets a stop frame, trace
// streams drain (bounded), and the listener closes. Idempotent.
func (h *Harness) Stop() {
	h.stopOnce.Do(func() {
		for _, nl := range h.links {
			if fc := nl.control(); fc != nil {
				fc.send(fStop, struct{}{})
			}
		}
		drain := time.NewTimer(10 * time.Second)
		defer drain.Stop()
		for _, nl := range h.links {
			nl.mu.Lock()
			open := nl.rawLive != nil
			nl.mu.Unlock()
			if !open {
				continue
			}
			select {
			case <-nl.traceDone:
			case <-drain.C:
				nl.mu.Lock()
				nl.rawLive.Close()
				nl.mu.Unlock()
			}
		}
		h.ln.Close()
		for _, nl := range h.links {
			if fc := nl.control(); fc != nil {
				fc.Close()
			}
		}
		h.wg.Wait()
	})
}

// NodeTrace is the decoded trace stream of one node, with its
// end-of-stream condition: Err wraps trace.ErrTruncated when the node
// died without closing its stream (a killed process), nil on a clean
// end marker.
type NodeTrace struct {
	ID    int
	Steps []model.Step
	Err   error
}

// Collect decodes every node's trace stream and merges them into one
// execution. Call after Stop. The merged trace holds per-node step
// order exactly and interleaves streams so that cross-process
// constraints (a delivery's broadcast invocation, a decided value's
// proposition) precede their dependents — the identity-erased
// conformance projections are insensitive to the remaining ordering
// freedom. Complete is true only when every stream ended cleanly.
func (h *Harness) Collect() (*trace.Trace, []NodeTrace, error) {
	perNode := make([]NodeTrace, h.cfg.N)
	streams := make([][]model.Step, h.cfg.N)
	complete := true
	for i, nl := range h.links {
		nl.traceMu.Lock()
		raw := append([]byte(nil), nl.traceBuf.Bytes()...)
		nl.traceMu.Unlock()
		steps, err := decodeStream(raw)
		perNode[i] = NodeTrace{ID: i + 1, Steps: steps, Err: err}
		streams[i] = steps
		if err != nil {
			complete = false
		}
	}
	x := model.NewExecution(h.cfg.N)
	x.Append(mergeStreams(streams)...)
	tr := trace.New(x)
	tr.Complete = complete
	tr.Name = h.cfg.Candidate
	return tr, perNode, nil
}

// decodeStream reads one node's raw stream to its end, returning the
// steps that made it onto the wire plus the stream's terminal
// condition.
func decodeStream(raw []byte) ([]model.Step, error) {
	br, err := trace.NewBinaryReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	var steps []model.Step
	for {
		s, err := br.Next()
		if errors.Is(err, io.EOF) {
			return steps, nil
		}
		if err != nil {
			return steps, err
		}
		steps = append(steps, s)
	}
}

// mergeStreams interleaves per-node step streams into one execution.
// Per-stream order is preserved exactly. Two cross-stream constraints
// hold steps back until their enablers merge: a delivery (or broadcast
// return) waits for its message's invocation, and a decision waits for
// its value's proposition — precisely the cross-process dependencies
// the spec checkers evaluate (BC-Validity and k-SA-Validity). When no
// stream's head is enabled (a truncated producer lost the enabling
// step), the lowest-numbered non-exhausted stream emits anyway so the
// merge always terminates.
func mergeStreams(streams [][]model.Step) []model.Step {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]model.Step, 0, total)
	idx := make([]int, len(streams))
	invoked := make(map[model.MsgID]bool)
	proposed := make(map[model.KSAID]map[model.Value]bool)

	note := func(s model.Step) {
		switch s.Kind {
		case model.KindBroadcastInvoke:
			invoked[s.Msg] = true
		case model.KindPropose:
			m := proposed[s.Obj]
			if m == nil {
				m = make(map[model.Value]bool)
				proposed[s.Obj] = m
			}
			m[s.Val] = true
		}
	}
	enabled := func(s model.Step) bool {
		switch s.Kind {
		case model.KindDeliver, model.KindBroadcastReturn:
			return s.Msg == model.NoMsg || invoked[s.Msg]
		case model.KindDecide:
			return proposed[s.Obj][s.Val]
		}
		return true
	}
	take := func(i int) {
		s := streams[i][idx[i]]
		idx[i]++
		note(s)
		out = append(out, s)
	}

	for len(out) < total {
		progress := false
		for i := range streams {
			for idx[i] < len(streams[i]) && enabled(streams[i][idx[i]]) {
				take(i)
				progress = true
			}
		}
		if progress {
			continue
		}
		for i := range streams {
			if idx[i] < len(streams[i]) {
				take(i)
				break
			}
		}
	}
	return out
}
