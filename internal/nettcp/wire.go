// Package nettcp is the third transport: CAMP nodes as separate
// processes (or goroutine-isolated peers) wired over real TCP sockets.
// Each node runs internal/net's node core — the same automaton cascade
// and Egress fault path as the in-memory network — so the same
// candidates, workloads, and FaultPlans that run in-process run across
// loopback or real hosts.
//
// Topology follows the drand overlay sketched in SNIPPETS.md §3: every
// node listens on one TCP port, dials every peer once, and pumps egress
// frames through a dispatcher goroutine per peer. Frames are
// length-prefixed (uvarint) with a one-byte type tag and a JSON body.
// An optional rebroadcast mode floods each logical send to all peers
// with hash-based deduplication — first sight delivers (when addressed
// to this node) and relays once, so reliable-broadcast candidates keep
// making progress around severed links.
//
// A harness process coordinates a run: it collects the nodes' listen
// addresses, distributes the address book and run parameters, hosts the
// shared k-SA oracle (propose/decide round-trips travel over the control
// connection), injects broadcasts and crashes, and collects each node's
// literal `.ktr` trace stream over a dedicated connection. After the
// run, the per-node streams are merged into one causally-consistent
// linearization and compared by the same identity-erased projections the
// conformance harness applies to the in-process runtimes.
//
// Socket runs are conformance-checked, not byte-replayable: real
// schedulers and real sockets order events, so only the deterministic
// runtime's traces replay bit-identically. What the transport preserves
// is the verdict — see internal/conformance's socket corpus.
package nettcp

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"slices"
	"sync"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
)

// maxFrameBytes bounds one frame body, matching the binary trace
// format's block bound: a corrupt or malicious length prefix fails fast
// instead of sizing an allocation.
const maxFrameBytes = 1 << 26

// frameReadChunk is the most of a frame body readFrameFrom allocates
// before the bytes arrive: a smaller frame is read in one exactly-sized
// piece, a larger one grows with what the peer actually sends.
const frameReadChunk = 64 << 10

// Frame types. Node→harness and harness→node frames travel on the
// control connection; fData travels node→node; fTraceHello opens the
// dedicated trace connection whose remaining bytes are a raw `.ktr`
// stream.
const (
	fHello      byte = 1  // node→harness: {id, addr} — registers a control conn
	fStart      byte = 2  // harness→node: run parameters + peer address book
	fReady      byte = 3  // node→harness: mesh wired, automaton initialized
	fBcast      byte = 4  // harness→node: invoke B.broadcast
	fCrash      byte = 5  // harness→node: crash the node (stop processing)
	fStop       byte = 6  // harness→node: finish cleanly (end marker, final status)
	fStatus     byte = 7  // node→harness: {delivered, returned} progress push
	fPropose    byte = 8  // node→harness: k-SA propose (blocks for fDecide)
	fDecide     byte = 9  // harness→node: k-SA decision value
	fPeerHello  byte = 10 // node→node: identifies the dialing peer
	fData       byte = 11 // node→node: one point-to-point message (or flood copy)
	fTraceHello byte = 12 // node→harness: opens the raw .ktr trace stream
)

// helloMsg registers a node's control connection and listen address.
type helloMsg struct {
	ID   int    `json:"id"`
	Addr string `json:"addr"`
}

// startMsg carries the run parameters from harness to node. Peers[i] is
// the listen address of process i+1.
type startMsg struct {
	N           int            `json:"n"`
	K           int            `json:"k"`
	Candidate   string         `json:"candidate"`
	Seed        uint64         `json:"seed"`
	MaxDelayNS  int64          `json:"max_delay_ns"`
	Rebroadcast bool           `json:"rebroadcast,omitempty"`
	Faults      *wireFaultPlan `json:"faults,omitempty"`
	Peers       []string       `json:"peers"`
}

// bcastMsg invokes B.broadcast at the receiving node with a
// harness-assigned global message identity.
type bcastMsg struct {
	Msg     model.MsgID   `json:"msg"`
	Payload model.Payload `json:"payload"`
}

// statusMsg is a node's progress push: cumulative deliveries and
// returned broadcast invocations.
type statusMsg struct {
	Delivered int64 `json:"delivered"`
	Returned  int64 `json:"returned"`
}

// ksaMsg is one k-SA propose (node→harness) or decide (harness→node).
type ksaMsg struct {
	Obj model.KSAID `json:"obj"`
	Val model.Value `json:"val"`
}

// peerHelloMsg identifies the dialing node on a node→node connection.
type peerHelloMsg struct {
	From int `json:"from"`
}

// dataMsg is one point-to-point message. From is the logical sender,
// Dest the logical receiver (in rebroadcast mode frames reach nodes
// other than Dest, which relay but do not deliver). Seq is the
// per-(From,Dest) send ordinal and Copy distinguishes fault-injected
// duplicates — together with the payload they key the rebroadcast
// dedup hash, so an injected duplicate still arrives twice. Via is the
// last relaying hop (0 = direct from the sender).
type dataMsg struct {
	From    int           `json:"from"`
	Dest    int           `json:"dest"`
	Seq     int64         `json:"seq"`
	Copy    int           `json:"copy"`
	Via     int           `json:"via,omitempty"`
	Payload model.Payload `json:"payload"`
}

// wireLinkFault is the JSON form of one per-link override (the
// in-memory form keys a map by a struct, which JSON cannot encode).
type wireLinkFault struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Drop float64 `json:"drop,omitempty"`
	Dup  float64 `json:"dup,omitempty"`
}

// wireFaultPlan is the JSON-encodable form of a net.FaultPlan.
type wireFaultPlan struct {
	Drop       float64         `json:"drop,omitempty"`
	Dup        float64         `json:"dup,omitempty"`
	Delay      *net.DelayDist  `json:"delay,omitempty"`
	Links      []wireLinkFault `json:"links,omitempty"`
	Partitions []net.Partition `json:"partitions,omitempty"`
}

// wireFaults converts a FaultPlan to its wire form (nil-safe).
func wireFaults(fp *net.FaultPlan) *wireFaultPlan {
	if fp == nil {
		return nil
	}
	w := &wireFaultPlan{Drop: fp.Drop, Dup: fp.Dup, Delay: fp.Delay, Partitions: fp.Partitions}
	for l, lf := range fp.Links {
		w.Links = append(w.Links, wireLinkFault{From: int(l.From), To: int(l.To), Drop: lf.Drop, Dup: lf.Dup})
	}
	return w
}

// plan converts the wire form back to a FaultPlan (nil-safe).
func (w *wireFaultPlan) plan() *net.FaultPlan {
	if w == nil {
		return nil
	}
	fp := &net.FaultPlan{Drop: w.Drop, Dup: w.Dup, Delay: w.Delay, Partitions: w.Partitions}
	if len(w.Links) > 0 {
		fp.Links = make(map[net.Link]net.LinkFaults, len(w.Links))
		for _, l := range w.Links {
			fp.Links[net.Link{From: model.ProcID(l.From), To: model.ProcID(l.To)}] =
				net.LinkFaults{Drop: l.Drop, Dup: l.Dup}
		}
	}
	return fp
}

// oneByteReader adapts an io.Reader to io.ByteReader without buffering,
// so a frame can be read off a connection whose following bytes belong
// to a different protocol (the trace connection's raw .ktr stream).
type oneByteReader struct{ r io.Reader }

func (b oneByteReader) ReadByte() (byte, error) {
	var p [1]byte
	_, err := io.ReadFull(b.r, p[:])
	return p[0], err
}

// readFrameFrom reads one length-prefixed frame without buffering past
// its end: the uvarint length byte-by-byte, then exactly the body, in
// pieces of at most frameReadChunk bytes so that a declared length the
// peer never sends costs about what it did send, not the declared size.
func readFrameFrom(r io.Reader) (byte, []byte, error) {
	n, err := binary.ReadUvarint(oneByteReader{r})
	if err != nil {
		return 0, nil, err
	}
	if n < 1 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("nettcp: frame length %d outside [1, %d]", n, maxFrameBytes)
	}
	body := make([]byte, 0, min(n, frameReadChunk))
	for len(body) < int(n) {
		k := min(int(n)-len(body), frameReadChunk)
		body = slices.Grow(body, k)
		got, err := io.ReadFull(r, body[len(body):len(body)+k])
		body = body[:len(body)+got]
		if err != nil {
			if err == io.EOF && len(body) > 0 {
				err = io.ErrUnexpectedEOF // the body stopped part-way
			}
			return 0, nil, fmt.Errorf("nettcp: short frame: %w", err)
		}
	}
	return body[0], body[1:], nil
}

// frameConn frames a connection: length-prefixed type-tagged JSON both
// ways. Sends are mutex-serialized (the dispatcher and the control
// pusher share egress); reads belong to a single reader goroutine.
type frameConn struct {
	c   stdnet.Conn
	wmu sync.Mutex
}

func newFrameConn(c stdnet.Conn) *frameConn { return &frameConn{c: c} }

// send writes one frame: uvarint(1+len(json)) ‖ type ‖ json.
func (fc *frameConn) send(t byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf := binary.AppendUvarint(nil, uint64(1+len(body)))
	buf = append(buf, t)
	buf = append(buf, body...)
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	_, err = fc.c.Write(buf)
	return err
}

// recv reads one frame. Only one goroutine may call recv.
func (fc *frameConn) recv() (byte, []byte, error) {
	return readFrameFrom(fc.c)
}

func (fc *frameConn) Close() error { return fc.c.Close() }

// decode unmarshals a frame body, naming the frame type on error.
func decode(t byte, body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("nettcp: bad frame type %d body: %w", t, err)
	}
	return nil
}

// dialRetry dials addr, retrying brief connection refusals while a peer
// or harness finishes binding its listener.
func dialRetry(addr string, timeout time.Duration) (stdnet.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := stdnet.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("nettcp: dial %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
