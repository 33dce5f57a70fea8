package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteSummary renders the registry as a human-readable report: the
// kept spans in end order (with a count of the older ones dropped past
// maxSpans), then counters, gauges, and histograms in registration
// order. This is what the CLIs print under -metrics.
func (r *Registry) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans, dropped := r.recentSpans()
	cs, gs, hs := r.views()

	if len(spans) > 0 {
		fmt.Fprintln(w, "-- spans ----------------------------------------")
		if dropped > 0 {
			fmt.Fprintf(w, "  (%d earlier spans not kept)\n", dropped)
		}
		for _, s := range spans {
			fmt.Fprintf(w, "  %-40s %12s\n", s.Name, fmtDuration(s.Duration))
		}
	}
	if len(cs) > 0 {
		fmt.Fprintln(w, "-- counters -------------------------------------")
		for _, c := range cs {
			fmt.Fprintf(w, "  %-40s %12d\n", c.name, c.val)
		}
	}
	if len(gs) > 0 {
		fmt.Fprintln(w, "-- gauges ---------------------------------------")
		for _, g := range gs {
			fmt.Fprintf(w, "  %-40s %12d  (max %d)\n", g.name, g.val, g.max)
		}
	}
	if len(hs) > 0 {
		fmt.Fprintln(w, "-- histograms -----------------------------------")
		for _, h := range hs {
			s := h.snap
			if s.Count == 0 {
				fmt.Fprintf(w, "  %-40s (no observations)\n", h.name)
				continue
			}
			mean := float64(s.Sum) / float64(s.Count)
			fmt.Fprintf(w, "  %-40s count=%d mean=%.1f p50=%d p90=%d p99=%d p999=%d max=%d\n",
				h.name, s.Count, mean,
				s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99), s.Quantile(0.999), s.Max)
		}
	}
	if l := r.EventLogged(); l != nil {
		fmt.Fprintf(w, "-- events: %d written --------------------------\n", l.Count())
	}
	return nil
}

// fmtDuration renders a duration with stable, scan-friendly units.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as-is, histograms with
// cumulative _bucket/_sum/_count series, and every ended span (kept or
// not) aggregated per name as <name>_seconds_total and <name>_count.
// Metric names are sanitized to the Prometheus grammar.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	cs, gs, hs := r.views()
	for _, c := range cs {
		n := promName(c.name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.val)
	}
	for _, g := range gs {
		n := promName(g.name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, g.val)
		fmt.Fprintf(w, "# TYPE %s_max gauge\n%s_max %d\n", n, n, g.max)
	}
	for _, h := range hs {
		n := promName(h.name)
		s := h.snap
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		var cum int64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b, cum)
		}
		cum += s.Counts[len(s.Counts)-1]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, s.Sum, n, s.Count)
	}
	for _, t := range r.spanTotalsByName() {
		n := promName(t.name)
		fmt.Fprintf(w, "# TYPE %s_seconds_total counter\n%s_seconds_total %g\n", n, n, t.total.Seconds())
		fmt.Fprintf(w, "# TYPE %s_count counter\n%s_count %d\n", n, n, t.count)
	}
	return nil
}

// promName maps a dotted metric name onto the Prometheus name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
