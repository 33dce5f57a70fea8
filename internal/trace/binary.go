package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"nobroadcast/internal/model"
)

// Wire format v1 ("ksatrace"): a compact length-prefixed binary step
// stream, the transport the checkers and the daemon exchange traces in.
// JSONL (stream.go) remains the human-debuggable view; the two formats
// are informationally identical and convert losslessly in both
// directions (cmd/ksatrace).
//
// Layout:
//
//	stream  := magic header block* end
//	magic   := "KSATRC1\n" (8 bytes; the trailing version digit + newline
//	           keep accidental text-mode corruption detectable)
//	header  := uvarint(len(body)) body
//	          body := zigzag(N) flags [uvarint(steps)] uvarint(len(name)) name
//	          flags bit0 = Complete, bit1 = step count present
//	block   := uvarint(len(body)) body          (len > 0)
//	          body := uvarint(stepsInBlock) step*
//	end     := uvarint(0)                        (a zero-length block)
//
// Steps are grouped into blocks of BlockSteps (aligned with
// model.StepBuffer's chunk size, so a recorder can encode chunk by chunk
// without re-slicing), each block length-prefixed so a reader can pull a
// whole block into one reused buffer and decode steps from it without
// further reads — and so truncation anywhere, including exactly at a
// block boundary, is detectable: a cut stream is missing the end marker,
// and a header-carried step count cross-checks the total.
//
// One step:
//
//	step := flags byte, zigzag(kind), zigzag(proc), then present fields
//	        in order: zigzag(peer), zigzag(msg), str(payload),
//	        zigzag(obj), str(val), str(note), zigzag(batch)
//
// A field is present iff nonzero (bit i of the flags byte, in the order
// above), mirroring the JSONL omitempty contract, so the two encodings
// carry exactly the same information.
//
// Strings are interned: str is a uvarint v where v == 0 is the empty
// string, odd v introduces a literal of (v-1)/2 bytes that follows
// inline, and even v references literal number v/2 - 1 (in order of
// first appearance, shared across payload/val/note, persistent for the
// whole stream). Repeated payloads — the common case, every delivery
// repeats its broadcast's payload — cost two bytes and zero allocations
// after their first occurrence.

// wireMagic identifies a ksatrace stream; the final "1" is the version.
const wireMagic = "KSATRC1\n"

// ContentTypeBinary and ContentTypeJSONL are the media types the daemon
// negotiates trace bodies with (/v1/check uploads by Content-Type,
// /v1/jobs/{id}/trace downloads by Accept).
const (
	ContentTypeBinary = "application/x-ksatrace"
	ContentTypeJSONL  = "application/x-ndjson"
)

// BlockSteps is the number of steps per block, aligned with
// model.StepBuffer's chunk size so recorders encode chunk by chunk.
const BlockSteps = model.ChunkSteps

// Decoder hardening bounds: corrupt or adversarial length fields must
// not translate into huge allocations.
const (
	maxHeaderBytes = 1 << 20 // header block (the name is the only variable part)
	maxBlockBytes  = 1 << 26 // one step block; the writer emits ~100KiB blocks
	maxInterned    = 1 << 20 // interned strings per stream; later literals are not tabled
)

// errBadMagic reports input that is not a ksatrace stream at all.
var errBadMagic = errors.New("trace: not a ksatrace stream (bad magic)")

// corruptError is the structured "complete but invalid input" error: the
// stream was not cut short, its bytes are wrong. Distinct from
// ErrTruncated by construction.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return "trace: corrupt ksatrace stream: " + e.msg }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}

// zigzag maps signed to unsigned so small negatives stay small on the
// wire; zagzig inverts it.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func zagzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Step field presence bits, in field order.
const (
	fPeer = 1 << iota
	fMsg
	fPayload
	fObj
	fVal
	fNote
	fBatch
)

// header flags.
const (
	hComplete = 1 << iota
	hHasCount
)

// BinaryWriter encodes a step stream in wire format v1. It implements
// Sink, so a recorder can stream steps straight into it; errors are
// sticky (Step is error-free by signature) and surface from Err and
// Close. Close writes the final partial block and the end marker —
// without it the stream is, by design, detectably truncated.
type BinaryWriter struct {
	w      *bufio.Writer
	hdr    StreamHeader
	body   []byte // current block body (steps only; count prefixed at flush)
	steps  int    // steps in current block
	total  int
	intern map[string]uint64
	err    error
	closed bool
}

// NewBinaryWriter writes the magic and header immediately and returns a
// writer ready for steps. hdr.Steps < 0 means the total is unknown (a
// live recorder); a known count is cross-checked at Close.
func NewBinaryWriter(w io.Writer, hdr StreamHeader) (*BinaryWriter, error) {
	bw := &BinaryWriter{
		w:      bufio.NewWriter(w),
		hdr:    hdr,
		intern: make(map[string]uint64),
	}
	if _, err := bw.w.WriteString(wireMagic); err != nil {
		return nil, fmt.Errorf("trace: write ksatrace magic: %w", err)
	}
	var flags byte
	if hdr.Complete {
		flags |= hComplete
	}
	if hdr.Steps >= 0 {
		flags |= hHasCount
	}
	body := binary.AppendUvarint(nil, zigzag(int64(hdr.N)))
	body = append(body, flags)
	if hdr.Steps >= 0 {
		body = binary.AppendUvarint(body, uint64(hdr.Steps))
	}
	body = binary.AppendUvarint(body, uint64(len(hdr.Name)))
	body = append(body, hdr.Name...)
	pre := binary.AppendUvarint(nil, uint64(len(body)))
	if _, err := bw.w.Write(pre); err != nil {
		return nil, fmt.Errorf("trace: write ksatrace header: %w", err)
	}
	if _, err := bw.w.Write(body); err != nil {
		return nil, fmt.Errorf("trace: write ksatrace header: %w", err)
	}
	return bw, nil
}

// appendStr appends one interned string reference, registering first
// occurrences in the table.
func (bw *BinaryWriter) appendStr(b []byte, s string) []byte {
	if s == "" {
		return append(b, 0)
	}
	if id, ok := bw.intern[s]; ok {
		return binary.AppendUvarint(b, (id+1)<<1)
	}
	if uint64(len(bw.intern)) < maxInterned {
		bw.intern[s] = uint64(len(bw.intern))
	}
	b = binary.AppendUvarint(b, uint64(len(s))<<1|1)
	return append(b, s...)
}

// Step implements Sink: encode one step into the current block, flushing
// a full block to the underlying writer. Errors are sticky.
func (bw *BinaryWriter) Step(s model.Step) {
	if bw.err != nil || bw.closed {
		if bw.err == nil {
			bw.err = errors.New("trace: Step after Close on BinaryWriter")
		}
		return
	}
	var flags byte
	if s.Peer != 0 {
		flags |= fPeer
	}
	if s.Msg != 0 {
		flags |= fMsg
	}
	if s.Payload != "" {
		flags |= fPayload
	}
	if s.Obj != 0 {
		flags |= fObj
	}
	if s.Val != "" {
		flags |= fVal
	}
	if s.Note != "" {
		flags |= fNote
	}
	if s.Batch != 0 {
		flags |= fBatch
	}
	b := append(bw.body, flags)
	b = binary.AppendUvarint(b, zigzag(int64(s.Kind)))
	b = binary.AppendUvarint(b, zigzag(int64(s.Proc)))
	if flags&fPeer != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(s.Peer)))
	}
	if flags&fMsg != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(s.Msg)))
	}
	if flags&fPayload != 0 {
		b = bw.appendStr(b, string(s.Payload))
	}
	if flags&fObj != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(s.Obj)))
	}
	if flags&fVal != 0 {
		b = bw.appendStr(b, string(s.Val))
	}
	if flags&fNote != 0 {
		b = bw.appendStr(b, s.Note)
	}
	if flags&fBatch != 0 {
		b = binary.AppendUvarint(b, zigzag(s.Batch))
	}
	bw.body = b
	bw.steps++
	bw.total++
	if bw.steps == BlockSteps {
		bw.flushBlock()
	}
}

// flushBlock writes the accumulated block (length prefix, step count,
// step bytes) and resets the body buffer for reuse.
func (bw *BinaryWriter) flushBlock() {
	if bw.err != nil || bw.steps == 0 {
		return
	}
	var pre [2 * binary.MaxVarintLen64]byte
	cnt := binary.PutUvarint(pre[:], uint64(bw.steps))
	blen := binary.AppendUvarint(nil, uint64(cnt+len(bw.body)))
	if _, err := bw.w.Write(blen); err != nil {
		bw.err = fmt.Errorf("trace: write ksatrace block: %w", err)
		return
	}
	if _, err := bw.w.Write(pre[:cnt]); err != nil {
		bw.err = fmt.Errorf("trace: write ksatrace block: %w", err)
		return
	}
	if _, err := bw.w.Write(bw.body); err != nil {
		bw.err = fmt.Errorf("trace: write ksatrace block: %w", err)
		return
	}
	bw.body = bw.body[:0]
	bw.steps = 0
}

// Err returns the sticky error, if any — the streaming-Sink counterpart
// of a return value on Step.
func (bw *BinaryWriter) Err() error { return bw.err }

// Close flushes the final partial block, writes the end marker, and
// flushes the underlying writer. A header that promised a step count is
// cross-checked against the steps actually written. Idempotent.
func (bw *BinaryWriter) Close() error {
	if bw.closed {
		return bw.err
	}
	bw.closed = true
	bw.flushBlock()
	if bw.err != nil {
		return bw.err
	}
	if bw.hdr.Steps >= 0 && bw.total != bw.hdr.Steps {
		bw.err = fmt.Errorf("trace: ksatrace header promised %d steps, wrote %d", bw.hdr.Steps, bw.total)
		return bw.err
	}
	if err := bw.w.WriteByte(0); err != nil {
		bw.err = fmt.Errorf("trace: write ksatrace end marker: %w", err)
		return bw.err
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = fmt.Errorf("trace: flush ksatrace stream: %w", err)
		return bw.err
	}
	return nil
}

// EncodeBinary writes the trace in wire format v1, the counterpart of
// EncodeJSONL. The header carries the exact step count.
func (t *Trace) EncodeBinary(w io.Writer) error {
	bw, err := NewBinaryWriter(w, StreamHeader{
		N: t.X.N, Complete: t.Complete, Name: t.Name, Steps: t.X.Len(),
	})
	if err != nil {
		return err
	}
	for i := range t.X.Steps {
		bw.Step(t.X.Steps[i])
	}
	return bw.Close()
}

// BinaryReader reads a wire-format-v1 stream one step at a time. It
// reads whole blocks into one reused buffer and decodes steps from it,
// so the steady-state read path allocates only for first-occurrence
// string literals (amortized toward zero allocations per step on
// payload-repeating traces).
type BinaryReader struct {
	r      *bufio.Reader
	hdr    StreamHeader
	body   []byte // current block body
	off    int
	left   int // steps left in current block
	read   int // steps returned so far
	intern []string
	done   bool
	err    error // sticky
}

// NewBinaryReader consumes the magic and header and returns a reader
// positioned at the first step.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return newBinaryReader(br)
}

func newBinaryReader(br *bufio.Reader) (*BinaryReader, error) {
	var magic [len(wireMagic)]byte
	n, err := io.ReadFull(br, magic[:])
	if err != nil {
		if bytes.HasPrefix([]byte(wireMagic), magic[:n]) {
			return nil, fmt.Errorf("trace: ksatrace magic: %w", ErrTruncated)
		}
		return nil, errBadMagic
	}
	if string(magic[:]) != wireMagic {
		return nil, errBadMagic
	}
	blen, err := readUvarint(br, "header length")
	if err != nil {
		return nil, err
	}
	if blen > maxHeaderBytes {
		return nil, corruptf("header length %d exceeds %d", blen, maxHeaderBytes)
	}
	body := make([]byte, blen)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("trace: ksatrace header: %w", ErrTruncated)
	}
	d := &sliceDecoder{b: body, what: "header"}
	nProcs := d.zig()
	flags := d.byte()
	steps := -1
	if flags&hHasCount != 0 {
		steps = int(d.uv())
	}
	nameLen := d.uv()
	if d.err == nil && nameLen > uint64(len(d.b)-d.off) {
		d.err = corruptf("header name length %d exceeds remaining %d bytes", nameLen, len(d.b)-d.off)
	}
	var name string
	if d.err == nil && nameLen > 0 {
		name = string(d.b[d.off : d.off+int(nameLen)])
		d.off += int(nameLen)
	}
	if d.err != nil {
		return nil, d.err
	}
	if nProcs <= 0 {
		return nil, corruptf("invalid process count %d", nProcs)
	}
	if steps != -1 && steps < 0 {
		return nil, corruptf("invalid step count %d", steps)
	}
	return &BinaryReader{
		r: br,
		hdr: StreamHeader{
			N: int(nProcs), Complete: flags&hComplete != 0, Name: name, Steps: steps,
		},
	}, nil
}

// Header returns the stream metadata; Steps is -1 when the writer did
// not know the total.
func (r *BinaryReader) Header() StreamHeader { return r.hdr }

// nextBlock pulls the next block into the reused buffer, or handles the
// end marker / truncation.
func (r *BinaryReader) nextBlock() error {
	blen, err := readUvarint(r.r, "block length")
	if err != nil {
		return err
	}
	if blen == 0 {
		// End marker. A header-carried count cross-checks the total, so a
		// stream reassembled from dropped whole blocks is still rejected.
		r.done = true
		if r.hdr.Steps >= 0 && r.read != r.hdr.Steps {
			if r.read < r.hdr.Steps {
				return fmt.Errorf("trace: ksatrace stream ends after %d of %d steps: %w",
					r.read, r.hdr.Steps, ErrTruncated)
			}
			return corruptf("stream carries %d steps, header promised %d", r.read, r.hdr.Steps)
		}
		// The marker must be the last byte: trailing data means the
		// stream was reassembled or overwritten, not merely cut short.
		if _, err := r.r.ReadByte(); err == nil {
			return corruptf("trailing data after end marker")
		} else if err != io.EOF {
			return fmt.Errorf("trace: ksatrace end marker: %w", err)
		}
		return io.EOF
	}
	if blen > maxBlockBytes {
		return corruptf("block length %d exceeds %d", blen, maxBlockBytes)
	}
	if cap(r.body) < int(blen) {
		r.body = make([]byte, blen)
	}
	r.body = r.body[:blen]
	if _, err := io.ReadFull(r.r, r.body); err != nil {
		return fmt.Errorf("trace: ksatrace block: %w", ErrTruncated)
	}
	r.off = 0
	cnt, n := binary.Uvarint(r.body)
	if n <= 0 {
		return corruptf("bad block step count")
	}
	r.off = n
	// Every step is at least 3 bytes (flags, kind, proc), so the count is
	// bounded by the body size; a huge count is corruption, not work.
	if cnt == 0 || cnt > uint64(len(r.body)-r.off) {
		return corruptf("block step count %d inconsistent with %d body bytes", cnt, len(r.body)-r.off)
	}
	r.left = int(cnt)
	return nil
}

// Next returns the next step, or io.EOF once the end marker (and, when
// the header carried one, the exact step count) has been seen and the
// underlying stream is exhausted — the marker must be its last byte. A stream
// cut anywhere — mid-block, mid-header, or at a block boundary before
// the end marker — fails with an error wrapping ErrTruncated; complete
// but invalid bytes fail with a corruption error. Errors are sticky.
func (r *BinaryReader) Next() (model.Step, error) {
	if r.err != nil {
		return model.Step{}, r.err
	}
	for r.left == 0 {
		if r.done {
			return model.Step{}, io.EOF
		}
		if err := r.nextBlock(); err != nil {
			r.err = err
			return model.Step{}, err
		}
	}
	var s model.Step
	if err := r.decodeStep(&s); err != nil {
		r.err = err
		return model.Step{}, err
	}
	r.left--
	r.read++
	return s, nil
}

// decodeStep decodes one step from the current block buffer into the
// zero step s.
func (r *BinaryReader) decodeStep(s *model.Step) error {
	d := &sliceDecoder{b: r.body, off: r.off, what: "step"}
	flags := d.byte()
	s.Kind = model.StepKind(d.zig())
	s.Proc = model.ProcID(d.zig())
	if flags&fPeer != 0 {
		s.Peer = model.ProcID(d.zig())
	}
	if flags&fMsg != 0 {
		s.Msg = model.MsgID(d.zig())
	}
	if flags&fPayload != 0 {
		s.Payload = model.Payload(r.str(d))
	}
	if flags&fObj != 0 {
		s.Obj = model.KSAID(d.zig())
	}
	if flags&fVal != 0 {
		s.Val = model.Value(r.str(d))
	}
	if flags&fNote != 0 {
		s.Note = r.str(d)
	}
	if flags&fBatch != 0 {
		s.Batch = d.zig()
	}
	if d.err != nil {
		return d.err
	}
	if !s.Kind.Valid() {
		return corruptf("step %d has invalid kind %d", r.read, int(s.Kind))
	}
	r.off = d.off
	return nil
}

// str decodes one interned string reference against the reader's table.
func (r *BinaryReader) str(d *sliceDecoder) string {
	v := d.uv()
	if d.err != nil || v == 0 {
		return ""
	}
	if v&1 == 0 {
		id := v>>1 - 1
		if id >= uint64(len(r.intern)) {
			d.err = corruptf("string reference %d beyond %d interned", id, len(r.intern))
			return ""
		}
		return r.intern[id]
	}
	n := v >> 1
	if n > uint64(len(d.b)-d.off) {
		d.err = corruptf("string literal length %d exceeds remaining %d block bytes", n, len(d.b)-d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	if uint64(len(r.intern)) < maxInterned {
		r.intern = append(r.intern, s)
	}
	return s
}

// sliceDecoder decodes varints from an in-memory block with a sticky
// error, keeping the per-field call sites branch-free.
type sliceDecoder struct {
	b    []byte
	off  int
	what string
	err  error
}

func (d *sliceDecoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = corruptf("bad varint in %s", d.what)
		return 0
	}
	d.off += n
	return v
}

func (d *sliceDecoder) zig() int64 { return zagzig(d.uv()) }

func (d *sliceDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = corruptf("unexpected end of %s", d.what)
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// readUvarint reads a varint from the stream, mapping EOF inside or
// before it to ErrTruncated (a stream may not end without its marker).
func readUvarint(br *bufio.Reader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, fmt.Errorf("trace: ksatrace %s: %w", what, ErrTruncated)
		}
		return 0, fmt.Errorf("trace: ksatrace %s: %w", what, err)
	}
	if v > 1<<62 {
		return 0, corruptf("%s overflows", what)
	}
	return v, nil
}

// DecodeBinary materializes a full trace from a wire-format-v1 stream —
// the inverse of EncodeBinary.
func DecodeBinary(r io.Reader) (*Trace, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return readAll(br)
}

// Reader is a step-stream reader over either wire format: JSONL
// (*StepReader) or binary (*BinaryReader). Next returns io.EOF at a
// clean end of stream and an error wrapping ErrTruncated on a cut one.
type Reader interface {
	Header() StreamHeader
	Next() (model.Step, error)
}

// NewAnyReader sniffs the stream format — binary streams open with the
// ksatrace magic, JSONL ones with a JSON object — and returns the
// matching reader. This is what the consumers that accept uploads of
// either format (checker -stream, /v1/check) build on.
func NewAnyReader(r io.Reader) (Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head, err := br.Peek(len(wireMagic))
	if len(head) == 0 && err != nil {
		return nil, fmt.Errorf("trace: empty stream: %w", ErrTruncated)
	}
	if string(head) == wireMagic {
		return newBinaryReader(br)
	}
	if bytes.HasPrefix([]byte(wireMagic), head) {
		// A strict prefix of the magic cannot open a JSONL stream ("K" is
		// not valid JSON), so this is a cut binary stream.
		return nil, fmt.Errorf("trace: ksatrace magic: %w", ErrTruncated)
	}
	return NewStepReader(br)
}

// DecodeAny materializes a full trace from a stream of either format.
func DecodeAny(r io.Reader) (*Trace, error) {
	sr, err := NewAnyReader(r)
	if err != nil {
		return nil, err
	}
	return readAll(sr)
}

// readAll drains a Reader into a materialized trace.
func readAll(sr Reader) (*Trace, error) {
	hdr := sr.Header()
	x := model.NewExecution(hdr.N)
	if hdr.Steps > 0 {
		x.Steps = make([]model.Step, 0, hdr.Steps)
	}
	for {
		s, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		x.Append(s)
	}
	return &Trace{X: x, Complete: hdr.Complete, Name: hdr.Name}, nil
}
