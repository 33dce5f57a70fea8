package nettcp

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"nobroadcast/internal/model"
)

// TestReadFrameAllocatesByInput: a frame's declared length is the peer's
// claim, not its bytes. A lone length prefix declaring the largest
// admissible frame must cost the reader far less than that length and
// still fail as a short frame, while a valid frame decodes and leaves
// the bytes after it unread (the trace connection switches protocols
// right after its hello frame). Not parallel: the measurement reads the
// process-wide allocation counter.
func TestReadFrameAllocatesByInput(t *testing.T) {
	prefix := binary.AppendUvarint(nil, maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrameFrom(bytes.NewReader(prefix))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "short frame") {
		t.Fatalf("lone %d-byte length prefix: err = %v, want a short frame", maxFrameBytes, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte input allocated %d B, want under 1 MiB", len(prefix), got)
	}

	want := dataMsg{From: 1, Dest: 3, Seq: 9, Copy: 1, Payload: "m-1-0"}
	r := bytes.NewReader(append(encodeFrame(t, fData, want), "KSATRC1\n"...))
	typ, body, err := readFrameFrom(r)
	if err != nil || typ != fData {
		t.Fatalf("valid frame: type %d, err %v", typ, err)
	}
	var got dataMsg
	if err := decode(typ, body, &got); err != nil || got != want {
		t.Fatalf("valid frame decoded as %+v (err %v), want %+v", got, err, want)
	}
	if rest, _ := io.ReadAll(r); string(rest) != "KSATRC1\n" {
		t.Errorf("bytes after the frame = %q, want them unread", rest)
	}

	// A frame larger than one read piece arrives whole; cut short
	// part-way, it reports the partial read as io.ReadFull does.
	big := dataMsg{From: 2, Dest: 1, Seq: 1, Payload: model.Payload(strings.Repeat("x", 3*frameReadChunk))}
	frame := encodeFrame(t, fData, big)
	typ, body, err = readFrameFrom(bytes.NewReader(frame))
	got = dataMsg{}
	if err != nil || decode(typ, body, &got) != nil || got != big {
		t.Fatalf("%d-byte frame: type %d, err %v, payload intact %v", len(frame), typ, err, got == big)
	}
	for _, cut := range []int{len(frame) - 1, len(frame) - frameReadChunk - 1} {
		if _, _, err := readFrameFrom(bytes.NewReader(frame[:cut])); err == nil ||
			!strings.Contains(err.Error(), "short frame: unexpected EOF") {
			t.Errorf("body cut to %d of %d bytes: err = %v, want short frame: unexpected EOF", cut, len(frame), err)
		}
	}
}
