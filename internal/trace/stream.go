package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nobroadcast/internal/model"
)

// ErrTruncated reports a trace stream that was cut short — a JSONL
// stream ending in the middle of a line, or a binary stream missing its
// end marker or part of a block. It is distinct from a decode error on
// complete input — callers such as an upload endpoint can tell "resend
// the file" from "the file is corrupt". Test with errors.Is.
var ErrTruncated = errors.New("truncated trace stream")

// Streaming trace support: a JSONL wire format (one header object, then
// one step object per line) and the Sink interface a step stream is
// written through (a socket node streams its recorded steps into a
// BinaryWriter; cmd/ksatrace converts formats through one). Together they
// let a consumer — typically an online spec checker — process an
// execution of any length in O(checker state) memory, without the full
// step log ever being resident.

// Sink receives the steps of an execution as they are recorded, in order.
// It is the streaming alternative to materializing a Trace.
type Sink interface {
	Step(s model.Step)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(s model.Step)

// Step implements Sink.
func (f SinkFunc) Step(s model.Step) { f(s) }

// StreamHeader is the metadata at the head of a trace stream: the first
// line of a JSONL stream, or the header block of a binary one.
type StreamHeader struct {
	N        int    `json:"n"`
	Complete bool   `json:"complete"`
	Name     string `json:"name,omitempty"`
	// Steps is the total step count when the producer knew it (the binary
	// header can carry one; JSONL never does), else -1. Not serialized:
	// the binary encoding carries it in its own header field.
	Steps int `json:"-"`
}

// EncodeJSONL writes the trace in streaming JSONL form: a header line
// followed by one step per line. The counterpart of DecodeJSONL and
// NewStepReader. The encoder does not HTML-escape: a payload containing
// `<`, `>`, or `&` round-trips byte-identical instead of coming back as
// < escapes — the stream is a wire format, not an HTML fragment.
func (t *Trace) EncodeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(StreamHeader{N: t.X.N, Complete: t.Complete, Name: t.Name}); err != nil {
		return fmt.Errorf("trace: encode jsonl header: %w", err)
	}
	for i := range t.X.Steps {
		if err := enc.Encode(&t.X.Steps[i]); err != nil {
			return fmt.Errorf("trace: encode jsonl step %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: encode jsonl: %w", err)
	}
	return nil
}

// StepReader reads a JSONL trace stream one step at a time.
type StepReader struct {
	hdr StreamHeader
	dec *json.Decoder
	i   int
}

// NewStepReader consumes the header line and returns a reader positioned
// at the first step.
func NewStepReader(r io.Reader) (*StepReader, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr StreamHeader
	if err := dec.Decode(&hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("trace: jsonl header: %w", ErrTruncated)
		}
		return nil, fmt.Errorf("trace: jsonl header: %w", err)
	}
	if hdr.N <= 0 {
		return nil, fmt.Errorf("trace: jsonl header: invalid process count %d", hdr.N)
	}
	hdr.Steps = -1 // JSONL headers never carry a step count
	return &StepReader{hdr: hdr, dec: dec}, nil
}

// Header returns the stream metadata.
func (r *StepReader) Header() StreamHeader { return r.hdr }

// stepLine is a step with the header-only keys alongside, so a stray
// second header line mid-stream is rejected as such rather than
// misreported as a step with an invalid kind.
type stepLine struct {
	model.Step
	N        *int  `json:"n"`
	Complete *bool `json:"complete"`
}

// Next returns the next step, or io.EOF when the stream is exhausted. A
// stream cut off mid-line fails with an error wrapping ErrTruncated —
// distinct from a corrupt complete line — and a second header object
// appearing after the first is rejected explicitly.
func (r *StepReader) Next() (model.Step, error) {
	var line stepLine
	if err := r.dec.Decode(&line); err != nil {
		if err == io.EOF {
			return line.Step, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return line.Step, fmt.Errorf("trace: jsonl step %d: %w", r.i, ErrTruncated)
		}
		return line.Step, fmt.Errorf("trace: jsonl step %d: %w", r.i, err)
	}
	if line.N != nil || line.Complete != nil {
		return line.Step, fmt.Errorf("trace: jsonl step %d: unexpected second header line", r.i)
	}
	if !line.Kind.Valid() {
		return line.Step, fmt.Errorf("trace: jsonl step %d has invalid kind %d", r.i, int(line.Kind))
	}
	r.i++
	return line.Step, nil
}

// DecodeJSONL materializes a full trace from a JSONL stream — the inverse
// of EncodeJSONL, for callers that do want the whole step log.
func DecodeJSONL(r io.Reader) (*Trace, error) {
	sr, err := NewStepReader(r)
	if err != nil {
		return nil, err
	}
	return readAll(sr)
}
