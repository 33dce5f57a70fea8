package trace

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"nobroadcast/internal/model"
)

// wireBenchTrace builds a broadcast-shaped trace of roughly `steps`
// steps (round-robin broadcasters, every process delivering each
// message), the payload-repeating profile real runs produce: one
// payload literal per message, referenced by every delivery. That is
// the shape the binary format's interning is designed for.
func wireBenchTrace(n, steps int) *Trace {
	msgs := steps / (n + 2)
	x := model.NewExecution(n)
	for m := 1; m <= msgs; m++ {
		from := model.ProcID(1 + (m-1)%n)
		pay := model.Payload(fmt.Sprintf("payload-%d", m))
		x.Append(
			model.Step{Proc: from, Kind: model.KindBroadcastInvoke, Msg: model.MsgID(m), Payload: pay},
			model.Step{Proc: from, Kind: model.KindBroadcastReturn, Msg: model.MsgID(m)},
		)
		for p := 1; p <= n; p++ {
			x.Append(model.Step{Proc: model.ProcID(p), Kind: model.KindDeliver, Peer: from, Msg: model.MsgID(m), Payload: pay})
		}
	}
	tr := New(x)
	tr.Complete = true
	return tr
}

// TestBinaryDecodeAllocatesLessThanOncePerStep pins the binary reader's
// allocation profile on the broadcast-shaped trace: a full pass
// allocates less than once per step (about 0.14, the interned payload
// literals; JSONL allocates about 1.9 times per step).
func TestBinaryDecodeAllocatesLessThanOncePerStep(t *testing.T) {
	tr := wireBenchTrace(5, 100_000)
	var bin bytes.Buffer
	if err := tr.EncodeBinary(&bin); err != nil {
		t.Fatal(err)
	}
	steps := tr.X.Len()
	allocs := testing.AllocsPerRun(1, func() {
		sr, err := NewBinaryReader(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for got := 0; ; got++ {
			if _, err := sr.Next(); err == io.EOF {
				if got != steps {
					t.Fatalf("decoded %d steps, want %d", got, steps)
				}
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if perStep := allocs / float64(steps); perStep >= 1 {
		t.Errorf("binary decode allocates %.3f times per step, want < 1", perStep)
	}
}

// BenchmarkWireDecode is the pure decode comparison between the two
// wire formats: one full pass of a step reader over a pre-encoded
// 100k-step trace, no checking. The binary path's block decode +
// string interning is where the steps/sec headline and the
// ~zero-allocs-per-step property come from.
func BenchmarkWireDecode(b *testing.B) {
	tr := wireBenchTrace(5, 100_000)
	steps := tr.X.Len()
	var jsonl, bin bytes.Buffer
	if err := tr.EncodeJSONL(&jsonl); err != nil {
		b.Fatal(err)
	}
	if err := tr.EncodeBinary(&bin); err != nil {
		b.Fatal(err)
	}
	drain := func(b *testing.B, sr Reader) {
		b.Helper()
		got := 0
		for {
			_, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got++
		}
		if got != steps {
			b.Fatalf("decoded %d steps, want %d", got, steps)
		}
	}
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := NewStepReader(bytes.NewReader(jsonl.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			drain(b, sr)
		}
		b.ReportMetric(float64(steps), "trace-steps")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := NewBinaryReader(bytes.NewReader(bin.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			drain(b, sr)
		}
		b.ReportMetric(float64(steps), "trace-steps")
	})
}
