// Package broadcast implements the candidate broadcast abstractions as
// deterministic automata in the model CAMP_n[k-SA]:
//
//   - SendToAll: the basic broadcast (Section 3.1), send to all and
//     deliver on receipt.
//   - Reliable: crash-tolerant reliable broadcast by message echo [13].
//   - FIFO: reliable diffusion plus per-sender sequence numbers [3, 24].
//   - Causal: reliable diffusion plus vector-clock gating [3, 24].
//   - TotalOrder: rounds of consensus (1-SA objects) on pending message
//     sets — the abstraction equivalent to consensus [7, 21].
//   - FirstK: the one-shot strawman of Section 1.4 — a single k-SA object
//     elects the messages eligible for first delivery.
//   - KStepped: the iterated strawman of Section 3.2 — one k-SA object
//     per step index a elects the first delivery within each set S_a.
//   - KBOAttempt: a natural but necessarily doomed attempt to implement
//     k-Bounded Order Broadcast [15] on k-SA objects in message passing —
//     the paper's corollary says no correct such implementation exists,
//     and the adversary of internal/adversary exhibits each attempt's
//     failure.
//
// All automata exchange JSON-encoded wire frames over the point-to-point
// network and are deterministic, as the runtime requires.
package broadcast

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"nobroadcast/internal/model"
)

// Frame is the wire format shared by the automata. Type tags:
//
//	"msg"  — diffusion of a broadcast message
//	"echo" — reliable re-diffusion
//
// A frame's bytes are those json.Marshal writes for it; encodeFrame writes
// them without reflection.
type Frame struct {
	T       string        `json:"t"`
	Origin  model.ProcID  `json:"o"`
	Msg     model.MsgID   `json:"m"`
	Seq     int           `json:"s,omitempty"`
	Content model.Payload `json:"c"`
	Clock   string        `json:"vc,omitempty"`
	// Prior carries previously-echoed messages (Mutual broadcast echoes).
	Prior []msgRec `json:"p,omitempty"`
}

// encodeFrame serializes a frame into a network payload: exactly the
// bytes json.Marshal(f) writes, fields in declaration order, each
// omitempty honoured. The function is total.
func encodeFrame(f Frame) model.Payload {
	var buf [512]byte
	b := append(buf[:0], `{"t":`...)
	b = appendString(b, f.T)
	b = append(b, `,"o":`...)
	b = strconv.AppendInt(b, int64(f.Origin), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(f.Msg), 10)
	if f.Seq != 0 {
		b = append(b, `,"s":`...)
		b = strconv.AppendInt(b, int64(f.Seq), 10)
	}
	b = append(b, `,"c":`...)
	b = appendString(b, string(f.Content))
	if f.Clock != "" {
		b = append(b, `,"vc":`...)
		b = appendString(b, f.Clock)
	}
	if len(f.Prior) > 0 {
		b = append(b, `,"p":`...)
		b = appendRecs(b, f.Prior)
	}
	return model.Payload(append(b, '}'))
}

// decodeFrame parses a network payload into a frame. The layout
// encodeFrame writes is parsed directly; any other input goes to
// json.Unmarshal, so accepted inputs, decoded values and errors are
// encoding/json's on every input.
func decodeFrame(p model.Payload) (Frame, error) {
	if f, ok := parseFrame(string(p)); ok {
		return f, nil
	}
	var f Frame
	if err := json.Unmarshal([]byte(p), &f); err != nil {
		return Frame{}, fmt.Errorf("broadcast: decode frame: %w", err)
	}
	return f, nil
}

// validOrigin reports whether the frame's origin identifies a process of
// an n-process system and its message id is plausible. Automata drop
// frames that fail it: on the reliable network of the model such frames
// cannot occur, and a malformed frame must never corrupt automaton state
// (found by FuzzAutomataOnGarbage).
func (f Frame) validOrigin(n int) bool {
	return f.Origin >= 1 && int(f.Origin) <= n && f.Msg > 0
}

// msgRec identifies a broadcast message inside k-SA proposal values.
type msgRec struct {
	Origin  model.ProcID  `json:"o"`
	Msg     model.MsgID   `json:"m"`
	Seq     int           `json:"s,omitempty"`
	Content model.Payload `json:"c"`
}

// encodeRecs serializes a deterministic, id-sorted message list into a
// k-SA value: the bytes json.Marshal writes for the sorted list.
func encodeRecs(recs []msgRec) model.Value {
	sorted := slices.Clone(recs)
	slices.SortFunc(sorted, func(a, b msgRec) int { return cmp.Compare(a.Msg, b.Msg) })
	var buf [512]byte
	return model.Value(appendRecs(buf[:0], sorted))
}

// decodeRecs parses a k-SA value produced by encodeRecs, falling back to
// json.Unmarshal as decodeFrame does.
func decodeRecs(v model.Value) ([]msgRec, error) {
	r := reader{s: string(v), ok: true}
	if recs := r.recs(); r.end() {
		return recs, nil
	}
	var recs []msgRec
	if err := json.Unmarshal([]byte(v), &recs); err != nil {
		return nil, fmt.Errorf("broadcast: decode recs: %w", err)
	}
	return recs, nil
}

// appendString appends s as encoding/json writes a string. A string of
// printable ASCII other than the quote, the backslash and the HTML
// characters <, > and & needs no escape and is written verbatim; any
// other goes through json.Marshal, so its escaping is encoding/json's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendRecs appends recs as a JSON array of msgRec objects.
func appendRecs(b []byte, recs []msgRec) []byte {
	b = append(b, '[')
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"o":`...)
		b = strconv.AppendInt(b, int64(r.Origin), 10)
		b = append(b, `,"m":`...)
		b = strconv.AppendInt(b, int64(r.Msg), 10)
		if r.Seq != 0 {
			b = append(b, `,"s":`...)
			b = strconv.AppendInt(b, int64(r.Seq), 10)
		}
		b = append(b, `,"c":`...)
		b = appendString(b, string(r.Content))
		b = append(b, '}')
	}
	return append(b, ']')
}

// parseFrame parses the layout encodeFrame writes and nothing else: keys
// in declaration order with no whitespace, integers in JSON's grammar and
// within range, strings without escapes, control bytes or bytes >= 0x80.
// Such a string decodes to itself, so it is returned as a substring of s.
func parseFrame(s string) (Frame, bool) {
	var f Frame
	r := reader{s: s, ok: true}
	r.lit(`{"t":`)
	f.T = r.str()
	r.lit(`,"o":`)
	f.Origin = model.ProcID(r.int(strconv.IntSize))
	r.lit(`,"m":`)
	f.Msg = model.MsgID(r.int(64))
	if r.opt(`,"s":`) {
		f.Seq = int(r.int(strconv.IntSize))
	}
	r.lit(`,"c":`)
	f.Content = model.Payload(r.str())
	if r.opt(`,"vc":`) {
		f.Clock = r.str()
	}
	if r.opt(`,"p":`) {
		f.Prior = r.recs()
	}
	r.lit(`}`)
	return f, r.end()
}

// reader is the direct parser's cursor over s. A failed step clears ok,
// and every later step is then a no-op.
type reader struct {
	s  string
	i  int
	ok bool
}

// end reports whether every step succeeded and s is consumed.
func (r *reader) end() bool { return r.ok && r.i == len(r.s) }

// lit consumes the literal t.
func (r *reader) lit(t string) {
	if !r.opt(t) {
		r.ok = false
	}
}

// opt consumes the literal t if s continues with it.
func (r *reader) opt(t string) bool {
	if r.ok && strings.HasPrefix(r.s[r.i:], t) {
		r.i += len(t)
		return true
	}
	return false
}

// str consumes a JSON string that has no escape, control byte or byte
// >= 0x80, and returns its contents.
func (r *reader) str() string {
	r.lit(`"`)
	for j := r.i; r.ok && j < len(r.s); j++ {
		switch c := r.s[j]; {
		case c == '"':
			v := r.s[r.i:j]
			r.i = j + 1
			return v
		case c < 0x20 || c == '\\' || c >= 0x80:
			r.ok = false
		}
	}
	r.ok = false
	return ""
}

// int consumes a JSON integer, -?(0|[1-9][0-9]*), that fits in bits.
func (r *reader) int(bits int) int64 {
	if !r.ok {
		return 0
	}
	start := r.i
	if r.i < len(r.s) && r.s[r.i] == '-' {
		r.i++
	}
	digits := r.i
	for r.i < len(r.s) && '0' <= r.s[r.i] && r.s[r.i] <= '9' {
		r.i++
	}
	if r.i == digits || (r.s[digits] == '0' && r.i > digits+1) {
		r.ok = false
		return 0
	}
	v, err := strconv.ParseInt(r.s[start:r.i], 10, bits)
	if err != nil {
		r.ok = false
	}
	return v
}

// recs consumes the array appendRecs writes. An empty array decodes to an
// empty, non-nil slice, as json.Unmarshal decodes it.
func (r *reader) recs() []msgRec {
	r.lit(`[`)
	if !r.ok {
		return nil
	}
	// A parsed string holds no quote, so {"o": occurs only where an
	// element begins: its count sizes the slice for accepted input.
	recs := make([]msgRec, 0, strings.Count(r.s[r.i:], `{"o":`))
	if r.opt(`]`) {
		return recs
	}
	for r.ok {
		var rec msgRec
		r.lit(`{"o":`)
		rec.Origin = model.ProcID(r.int(strconv.IntSize))
		r.lit(`,"m":`)
		rec.Msg = model.MsgID(r.int(64))
		if r.opt(`,"s":`) {
			rec.Seq = int(r.int(strconv.IntSize))
		}
		r.lit(`,"c":`)
		rec.Content = model.Payload(r.str())
		r.lit(`}`)
		recs = append(recs, rec)
		if !r.opt(`,`) {
			break
		}
	}
	r.lit(`]`)
	return recs
}
