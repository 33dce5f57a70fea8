package broadcast

import (
	"fmt"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/rng"
	"nobroadcast/internal/sched"
)

// wireSamples returns the distinct frames every candidate sends and the
// distinct k-SA values it proposes in a fair run of three processes with
// two broadcasts each, under a 2-SA oracle where the candidate uses one.
func wireSamples(tb testing.TB) (frames []model.Payload, values []model.Value) {
	tb.Helper()
	seenFrame := map[model.Payload]bool{}
	seenValue := map[model.Value]bool{}
	for _, c := range AllCandidates() {
		rt, err := sched.New(sched.Config{N: 3, NewAutomaton: c.NewAutomaton, Oracle: c.OracleFor(2)})
		if err != nil {
			tb.Fatalf("%s: sched.New: %v", c.Name, err)
		}
		var reqs []sched.BroadcastReq
		for p := 1; p <= 3; p++ {
			for j := 0; j < 2; j++ {
				reqs = append(reqs, sched.BroadcastReq{Proc: model.ProcID(p), Payload: model.Payload(fmt.Sprintf("msg-%d-%d", p, j))})
			}
		}
		tr, err := rt.RunFair(sched.RunOptions{Broadcasts: reqs})
		if err != nil {
			tb.Fatalf("%s: run: %v", c.Name, err)
		}
		for _, s := range tr.X.Steps {
			switch {
			case s.Kind == model.KindSend && !seenFrame[s.Payload]:
				seenFrame[s.Payload] = true
				frames = append(frames, s.Payload)
			case s.Kind == model.KindPropose && !seenValue[s.Val]:
				seenValue[s.Val] = true
				values = append(values, s.Val)
			}
		}
	}
	return frames, values
}

// TestAutomatonWireTakesDirectPath: every frame and k-SA value the
// candidates produce is read by the direct parser, never by the
// json.Unmarshal fallback, and the samples cover Seq, Clock, Prior and
// multi-record values.
func TestAutomatonWireTakesDirectPath(t *testing.T) {
	frames, values := wireSamples(t)
	var seq, clock, prior, multi bool
	for _, p := range frames {
		f, ok := parseFrame(string(p))
		if !ok {
			t.Errorf("direct parser rejects frame %q", p)
		}
		seq = seq || f.Seq != 0
		clock = clock || f.Clock != ""
		prior = prior || len(f.Prior) > 0
	}
	for _, v := range values {
		r := reader{s: string(v), ok: true}
		recs := r.recs()
		if !r.end() {
			t.Errorf("direct parser rejects value %q", v)
		}
		multi = multi || len(recs) > 1
	}
	if !seq || !clock || !prior || !multi {
		t.Errorf("samples lack a shape: seq %v, clock %v, prior %v, multi-record value %v", seq, clock, prior, multi)
	}
}

// TestEncodeRecsMatchesJSON: unsorted lists of up to 64 records with
// repeated message ids, past the 12 elements below which both sorts are
// an insertion sort, encode to the bytes of the sort.Slice and
// json.Marshal reference.
func TestEncodeRecsMatchesJSON(t *testing.T) {
	src := rng.New(19)
	for i := 0; i < 200; i++ {
		recs := make([]msgRec, src.Intn(65))
		for j := range recs {
			recs[j] = msgRec{Origin: model.ProcID(j), Msg: model.MsgID(src.Intn(8)), Seq: src.Intn(2), Content: model.Payload(fmt.Sprint(j))}
		}
		if got, want := string(encodeRecs(recs)), jsonRecs(t, recs); got != want {
			t.Fatalf("encodeRecs(%v) = %s, reference %s", recs, got, want)
		}
	}
}

// BenchmarkFrameCodec measures encode and decode of the wire shapes the
// automata exchange: a diffused message, a causal frame with its clock, a
// mutual echo carrying eight prior records, and an eight-record k-SA
// value.
func BenchmarkFrameCodec(b *testing.B) {
	recs := make([]msgRec, 8)
	for i := range recs {
		recs[i] = msgRec{Origin: model.ProcID(i%3 + 1), Msg: model.MsgID(i + 1), Content: model.Payload(fmt.Sprintf("msg-%d-%d", i%3+1, i/3))}
	}
	for _, c := range []struct {
		name string
		f    Frame
	}{
		{"msg", Frame{T: "msg", Origin: 2, Msg: 17, Content: "msg-2-5"}},
		{"causal", Frame{T: "echo", Origin: 3, Msg: 41, Content: "msg-3-4", Clock: "2,0,4"}},
		{"mutual-echo", Frame{T: "echo", Origin: 1, Msg: 9, Prior: recs}},
	} {
		p := encodeFrame(c.f)
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(encodeFrame(c.f))
			}
			if n != b.N*len(p) {
				b.Fatal("encodeFrame length changed")
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeFrame(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	v := encodeRecs(recs)
	b.Run("ksa-value/encode", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			n += len(encodeRecs(recs))
		}
		if n != b.N*len(v) {
			b.Fatal("encodeRecs length changed")
		}
	})
	b.Run("ksa-value/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeRecs(v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
