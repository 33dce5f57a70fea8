package nettcp

import (
	"bytes"
	"encoding/binary"
	stdnet "net"
	"testing"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
)

// bufConn is a connection whose writes land in a buffer, so frames can
// be encoded through frameConn.send without a socket.
type bufConn struct {
	stdnet.Conn
	buf bytes.Buffer
}

func (b *bufConn) Write(p []byte) (int, error) { return b.buf.Write(p) }

// encodeFrame returns the wire bytes frameConn.send writes for (t, v).
func encodeFrame(tb testing.TB, t byte, v any) []byte {
	tb.Helper()
	bc := &bufConn{}
	if err := newFrameConn(bc).send(t, v); err != nil {
		tb.Fatalf("encode frame type %d: %v", t, err)
	}
	return bc.buf.Bytes()
}

// frameBody returns a fresh value of the body type frame t carries, or
// nil for an unknown type.
func frameBody(t byte) any {
	switch t {
	case fHello, fTraceHello:
		return &helloMsg{}
	case fStart:
		return &startMsg{}
	case fReady, fCrash, fStop:
		return &struct{}{}
	case fBcast:
		return &bcastMsg{}
	case fStatus:
		return &statusMsg{}
	case fPropose, fDecide:
		return &ksaMsg{}
	case fPeerHello:
		return &peerHelloMsg{}
	case fData:
		return &dataMsg{}
	}
	return nil
}

// validFrames returns one well-formed frame of every type.
func validFrames(tb testing.TB) [][]byte {
	tb.Helper()
	start := startMsg{
		N: 3, K: 2, Candidate: "kbo", Seed: 1 << 40, MaxDelayNS: int64(time.Millisecond),
		Rebroadcast: true, Peers: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Faults: wireFaults(&net.FaultPlan{
			Drop: 0.25, Dup: 0.125,
			Delay: &net.DelayDist{Kind: net.DelayExponential, Mean: time.Millisecond},
			Links: map[net.Link]net.LinkFaults{{From: 1, To: 2}: {Drop: 0.5}},
			Partitions: []net.Partition{{
				A: []model.ProcID{1}, B: []model.ProcID{2, 3}, Start: time.Second, Heal: 2 * time.Second,
			}},
		}),
	}
	var out [][]byte
	for _, f := range []struct {
		t byte
		v any
	}{
		{fHello, helloMsg{ID: 2, Addr: "127.0.0.1:9000"}},
		{fStart, start},
		{fReady, struct{}{}},
		{fBcast, bcastMsg{Msg: 7, Payload: "m-1-0"}},
		{fCrash, struct{}{}},
		{fStop, struct{}{}},
		{fStatus, statusMsg{Delivered: 12, Returned: 3}},
		{fPropose, ksaMsg{Obj: 4, Val: "v1"}},
		{fDecide, ksaMsg{Obj: 4, Val: "v2"}},
		{fPeerHello, peerHelloMsg{From: 3}},
		{fData, dataMsg{From: 1, Dest: 3, Seq: 9, Copy: 1, Via: 2, Payload: "p\x00é"}},
		{fTraceHello, helloMsg{ID: 1}},
	} {
		out = append(out, encodeFrame(tb, f.t, f.v))
	}
	return out
}

// FuzzFrame feeds arbitrary bytes to the frame reader and the body
// decoder of every frame type — the decoder a multi-host node faces on
// the network. Every input must yield a frame or an error, never a
// panic, and a decoded frame must re-encode to a fixed point: encoding
// its decoded body again gives the same bytes. The seed corpus holds a
// valid frame of every type (each of which re-encodes byte-identically),
// every strict prefix of each, and a length prefix past maxFrameBytes.
func FuzzFrame(f *testing.F) {
	for _, frame := range validFrames(f) {
		t, body, err := readFrameFrom(bytes.NewReader(frame))
		if err != nil {
			f.Fatalf("valid frame rejected: %v", err)
		}
		v := frameBody(t)
		if err := decode(t, body, v); err != nil {
			f.Fatalf("valid frame type %d body rejected: %v", t, err)
		}
		if again := encodeFrame(f, t, v); !bytes.Equal(again, frame) {
			f.Fatalf("frame type %d re-encodes as %q, want %q", t, again, frame)
		}
		for i := 0; i <= len(frame); i++ {
			f.Add(frame[:i])
		}
	}
	f.Add(binary.AppendUvarint(nil, maxFrameBytes+1))
	f.Add(append(binary.AppendUvarint(nil, 1<<63), fData))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := readFrameFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		v := frameBody(typ)
		if v == nil || decode(typ, body, v) != nil {
			return
		}
		enc := encodeFrame(t, typ, v)
		typ2, body2, err := readFrameFrom(bytes.NewReader(enc))
		if err != nil || typ2 != typ {
			t.Fatalf("re-encoded frame unreadable: type %d→%d, %v", typ, typ2, err)
		}
		v2 := frameBody(typ2)
		if err := decode(typ2, body2, v2); err != nil {
			t.Fatalf("re-encoded frame type %d body rejected: %v", typ, err)
		}
		if again := encodeFrame(t, typ2, v2); !bytes.Equal(again, enc) {
			t.Fatalf("frame type %d is not a fixed point: %q then %q", typ, enc, again)
		}
	})
}
