package spec

import (
	"testing"
)

// BenchmarkCheckerFeed measures the per-step Feed cost of every
// registered spec's online checker, streaming the same admissible trace
// through each. This is the checker hot path the serving layer sits on
// (every /v1/check and every net-runtime live monitor is a Feed loop),
// and the profile target behind `make profile-feed`. The trace orders
// every message identically at every process, so the conflict family
// (total order, k-BO, SCD, k-SCD) takes the order tracker's early exit on
// each first delivery and, like every other spec, costs time linear in
// the trace; only traces where pairs disagree on order make it rescan.
func BenchmarkCheckerFeed(b *testing.B) {
	const n, k = 5, 2
	tr := benchTrace(n, 20_000)
	for _, e := range Registry() {
		b.Run(e.Key, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := NewCheckerFor(e.New(k), n)
				for _, s := range tr.X.Steps {
					if v := c.Feed(s); v != nil {
						b.Fatalf("%s latched on the admissible bench trace: %v", e.Key, v)
					}
				}
			}
			b.ReportMetric(float64(tr.X.Len()), "trace-steps")
		})
	}
}
