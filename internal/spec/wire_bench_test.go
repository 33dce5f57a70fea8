package spec

import (
	"bytes"
	"io"
	"testing"

	"nobroadcast/internal/trace"
)

// BenchmarkStreamCheck is the end-to-end serving-path comparison behind
// BENCH_PR7.json: decode an uploaded trace stream and feed every step
// to the online checkers, exactly what /v1/check does, over the same
// 100k-step trace pre-encoded in each wire format. The delta between
// the sub-benchmarks is pure decode cost — the Monitor work is
// identical — so this measures what the binary format buys a checking
// client end to end. The recorded figures (history) came from
// `go test -run '^$' -bench 'BenchmarkStreamCheck$' -benchmem
// ./internal/spec`; ksabench's daemon workload measures the check path
// today.
func BenchmarkStreamCheck(b *testing.B) {
	tr := benchTrace(5, 100_000)
	steps := tr.X.Len()
	var jsonl, bin bytes.Buffer
	if err := tr.EncodeJSONL(&jsonl); err != nil {
		b.Fatal(err)
	}
	if err := tr.EncodeBinary(&bin); err != nil {
		b.Fatal(err)
	}
	check := func(b *testing.B, sr trace.Reader) {
		b.Helper()
		mon := NewMonitor(sr.Header().N, benchSpecs()...)
		got := 0
		for {
			s, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if v := mon.Feed(s); v != nil {
				b.Fatalf("unexpected violation: %v", v)
			}
			got++
		}
		if v := mon.Finish(false); v != nil {
			b.Fatalf("unexpected violation: %v", v)
		}
		if got != steps {
			b.Fatalf("checked %d steps, want %d", got, steps)
		}
	}
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := trace.NewStepReader(bytes.NewReader(jsonl.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			check(b, sr)
		}
		b.ReportMetric(float64(steps), "trace-steps")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := trace.NewBinaryReader(bytes.NewReader(bin.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			check(b, sr)
		}
		b.ReportMetric(float64(steps), "trace-steps")
	})
}
