package spec

import (
	"fmt"
	"testing"

	"nobroadcast/internal/model"
	"nobroadcast/internal/trace"
)

// benchTrace builds a FIFO/causal-admissible trace of roughly `steps`
// steps: round-robin broadcasters, every process delivering in global
// broadcast order.
func benchTrace(n, steps int) *trace.Trace {
	msgs := steps / (n + 2)
	x := model.NewExecution(n)
	for m := 1; m <= msgs; m++ {
		from := model.ProcID(1 + (m-1)%n)
		pay := model.Payload(fmt.Sprintf("b%d", m))
		x.Append(
			model.Step{Proc: from, Kind: model.KindBroadcastInvoke, Msg: model.MsgID(m), Payload: pay},
			model.Step{Proc: from, Kind: model.KindBroadcastReturn, Msg: model.MsgID(m)},
		)
		for p := 1; p <= n; p++ {
			x.Append(model.Step{Proc: model.ProcID(p), Kind: model.KindDeliver, Peer: from, Msg: model.MsgID(m), Payload: pay})
		}
	}
	return &trace.Trace{X: x}
}

// benchSpecs are the specifications both benchmark variants evaluate.
func benchSpecs() []Spec { return []Spec{FIFOOrder(), CausalOrder()} }

// benchCheckpointEvery is how often a monitoring loop wants a verdict over
// the growing execution. The batch reference predicates are quadratic in
// the prefix length (the causal check rebuilds every causal past), so the
// checkpoints are kept sparse — four per 100k-step trace — purely to keep
// the benchmark's wall-clock tolerable; denser checkpoints only widen the
// gap in the online form's favor.
const benchCheckpointEvery = 25_000

// BenchmarkSpecOnline measures continuous monitoring with the incremental
// checkers: one pass over the stream, each step fed once, a verdict
// available after every step for free.
func BenchmarkSpecOnline(b *testing.B) {
	tr := benchTrace(5, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := NewMonitor(tr.X.N, benchSpecs()...)
		for _, s := range tr.X.Steps {
			if v := mon.Feed(s); v != nil {
				b.Fatalf("unexpected violation: %v", v)
			}
		}
		if v := mon.Finish(false); v != nil {
			b.Fatalf("unexpected violation: %v", v)
		}
	}
	b.ReportMetric(float64(tr.X.Len()), "trace-steps")
}

// BenchmarkSpecBatch measures the same monitoring loop implemented the
// pre-refactor way: re-running the whole-trace reference predicates over
// the growing prefix at every checkpoint.
func BenchmarkSpecBatch(b *testing.B) {
	tr := benchTrace(5, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cut := benchCheckpointEvery; cut <= tr.X.Len(); cut += benchCheckpointEvery {
			prefix := &trace.Trace{X: &model.Execution{N: tr.X.N, Steps: tr.X.Steps[:cut]}}
			for _, s := range benchSpecs() {
				if v := checkReference(s, prefix); v != nil {
					b.Fatalf("unexpected violation: %v", v)
				}
			}
		}
	}
}
