package broadcast

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/sched"
)

// White-box fuzz targets: the wire decoders must never panic, must agree
// with encoding/json on every input, and must round-trip what the encoders
// produce; the encoders must write json.Marshal's bytes; the automata must
// tolerate arbitrary byte payloads arriving from the network.

// jsonRecs is encodeRecs as encoding/json writes it: a sorted copy
// through json.Marshal.
func jsonRecs(t *testing.T, recs []msgRec) string {
	sorted := make([]msgRec, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Msg < sorted[j].Msg })
	b, err := json.Marshal(sorted)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func FuzzDecodeFrame(f *testing.F) {
	frames, _ := wireSamples(f)
	for _, p := range frames {
		f.Add(string(p))
	}
	f.Add(string(encodeFrame(Frame{T: "msg", Origin: 1, Msg: 2, Content: "x"})))
	f.Add(string(encodeFrame(Frame{T: "echo", Origin: 3, Msg: 9, Seq: 4, Clock: "1,2,3"})))
	f.Add(string(encodeFrame(Frame{T: "msg", Origin: 1, Msg: 2, Content: "a\"b\\<>& \xff"})))
	// Inputs at the border of the direct parser: escapes and non-ASCII,
	// integer grammar and range, empty and null Prior, key order and
	// case, whitespace and trailing bytes.
	for _, s := range []string{
		`{"t":"msg"`,
		``,
		`[]`,
		`null`,
		`{}`,
		`{"t":"msg","o":1,"m":2,"c":"a\"b\\c<d>e&f"}`,
		`{"t":"msg","o":1,"m":2,"c":"<"}`,
		`{"t":"msg","o":1,"m":2,"c":">"}`,
		`{"t":"msg","o":1,"m":2,"c":"&"}`,
		`{"t":"msg","o":1,"m":2,"c":"\""}`,
		`{"t":"msg","o":1,"m":2,"c":"\\"}`,
		"{\"t\":\"msg\",\"o\":1,\"m\":2,\"c\":\"\u2028\"}",
		`{"t":"msg","o":1,"m":2,"c":"p\u0000\n\u2029"}`,
		"{\"t\":\"msg\",\"o\":1,\"m\":2,\"c\":\"p\x00\xff\"}",
		"{\"t\":\"msg\",\"o\":1,\"m\":2,\"c\":\"\xff\xfe\"}",
		`{"t":"msg","o":01,"m":2,"c":"x"}`,
		`{"t":"msg","o":-0,"m":2,"c":"x"}`,
		`{"t":"msg","o":1,"m":-0,"s":-0,"c":"x"}`,
		`{"t":"msg","o":1,"m":9223372036854775807,"c":"x"}`,
		`{"t":"msg","o":1,"m":9223372036854775808,"c":"x"}`,
		`{"t":"msg","o":1,"m":-9223372036854775809,"c":"x"}`,
		`{"t":"msg","o":1,"m":1.5,"c":"x"}`,
		`{"t":"msg","o":1,"m":1e3,"c":"x"}`,
		`{"t":"msg","o":1,"m":2,"s":0,"c":"x"}`,
		`{"t":"echo","o":1,"m":2,"c":"","p":[]}`,
		`{"t":"echo","o":1,"m":2,"c":"","p":null}`,
		`{"t":"echo","o":1,"m":2,"c":"","p":[{"o":1,"m":1,"c":"a"},{"o":2,"m":3,"s":4,"c":"b"}]}`,
		`{"t":"echo","o":1,"m":2,"c":"","p":[{"o":1,"m":1,"c":"a"},]}`,
		`{"t":"echo","o":1,"m":2,"c":"","p":[{"o":1,"c":"a","m":1}]}`,
		`{"t":"msg","o":1,"m":2,"c":"x","vc":"1,0,2"}`,
		`{"o":1,"t":"msg","m":2,"c":"x"}`,
		`{"t":"msg","o":1,"m":2,"c":"x","p":[{"o":1,"m":1,"c":"a"}],"vc":"1,0,2"}`,
		`{"T":"msg","O":1,"M":2,"C":"x"}`,
		`{"t":"msg","o":1,"m":2,"c":"x","c":"y"}`,
		`{"t":"msg","o":1,"m":2,"c":"x","z":true}`,
		` {"t":"msg","o":1,"m":2,"c":"x"}`,
		`{"t":"msg", "o":1,"m":2,"c":"x"}`,
		`{"t":"msg","o":1,"m":2,"c":"x"} `,
		`{"t":"msg","o":1,"m":2,"c":"x"}x`,
		`{"t":"msg","o":1,"m":2,"c":"x"}{}`,
		`{"t":null,"o":1,"m":2,"c":"x"}`,
		`{"t":"msg","o":"1","m":2,"c":"x"}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fr, err := decodeFrame(model.Payload(s))
		var want Frame
		werr := json.Unmarshal([]byte(s), &want)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != "broadcast: decode frame: "+werr.Error()) {
			t.Fatalf("decodeFrame(%q) error %v, json.Unmarshal error %v", s, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(fr, want) {
			t.Fatalf("decodeFrame(%q) = %#v, json.Unmarshal %#v", s, fr, want)
		}
		enc := encodeFrame(fr)
		if ref, err := json.Marshal(fr); err != nil || string(enc) != string(ref) {
			t.Fatalf("encodeFrame(%#v) = %q, json.Marshal %q (%v)", fr, enc, ref, err)
		}
		// Whatever decoded must re-encode and decode to the same frame
		// (Prior contents included).
		fr2, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if fr.T != fr2.T || fr.Origin != fr2.Origin || fr.Msg != fr2.Msg || fr.Seq != fr2.Seq || fr.Content != fr2.Content || fr.Clock != fr2.Clock || len(fr.Prior) != len(fr2.Prior) {
			t.Fatalf("round trip changed frame: %+v vs %+v", fr, fr2)
		}
	})
}

func FuzzDecodeRecs(f *testing.F) {
	_, values := wireSamples(f)
	for _, v := range values {
		f.Add(string(v))
	}
	f.Add(string(encodeRecs([]msgRec{{Origin: 1, Msg: 2, Content: "a"}})))
	for _, s := range []string{
		`[]`,
		`null`,
		``,
		`{}`,
		`[ ]`,
		`[{"o":1}]`,
		`[{"o":1,"m":2,"c":"a"}]`,
		`[{"o":1,"m":2,"c":"a"},{"o":2,"m":1,"s":3,"c":"b"}]`,
		`[{"o":1,"m":2,"c":"a"},{"o":2,"m":2,"c":"b"}]`,
		`[{"o":1,"m":2,"c":"a<&>"}]`,
		`[{"o":1,"m":2,"c":"é"}]`,
		`[{"o":1,"m":2,"c":"a"},]`,
		`[{"o":1,"m":2,"c":"a"}] `,
		`[{"o":1,"m":2,"c":"a"}]]`,
		`[{"o":1,"m":02,"c":"a"}]`,
		`[{"o":1,"m":-0,"c":"a"}]`,
		`[{"o":1,"m":99999999999999999999,"c":"a"}]`,
		`[{"m":2,"o":1,"c":"a"}]`,
		`[{"O":1,"M":2,"C":"a"}]`,
		`[null]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := decodeRecs(model.Value(s))
		var want []msgRec
		werr := json.Unmarshal([]byte(s), &want)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != "broadcast: decode recs: "+werr.Error()) {
			t.Fatalf("decodeRecs(%q) error %v, json.Unmarshal error %v", s, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("decodeRecs(%q) = %#v, json.Unmarshal %#v", s, recs, want)
		}
		enc := encodeRecs(recs)
		if ref := jsonRecs(t, recs); string(enc) != ref {
			t.Fatalf("encodeRecs(%#v) = %q, json.Marshal %q", recs, enc, ref)
		}
		if _, err := decodeRecs(enc); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzAutomataOnGarbage: every automaton's OnReceive must tolerate
// arbitrary payloads without panicking and without emitting deliveries of
// never-broadcast messages.
func FuzzAutomataOnGarbage(f *testing.F) {
	f.Add("not json at all")
	f.Add(`{"t":"msg","o":1,"m":1,"c":"x"}`)
	f.Add(`{"t":"echo","o":-5,"m":-1,"c":""}`)
	f.Add(`{"t":"zzz"}`)
	// Well-formed frames that decodeFrame's direct parser leaves to
	// json.Unmarshal: escaped content and reordered keys.
	f.Add(`{"t":"msg","o":2,"m":1,"c":"\u003cx\u003e\"\\"}`)
	f.Add(`{"m":1,"c":"x","o":2,"t":"msg"}`)
	f.Fuzz(func(t *testing.T, s string) {
		for _, c := range AllCandidates() {
			a := c.NewAutomaton(1)
			env := sched.NewEnv(1, 3)
			a.Init(env)
			env.TakeActions(nil)
			a.OnReceive(env, 2, model.Payload(s))
			env.TakeActions(nil) // must not panic
		}
	})
}
