// Command ksabench is the repository's benchmark: three closed-loop
// workloads (theorem, hunt, daemon) driven from one process through the
// packages' public APIs, with every op's output checked. A fourth,
// corpus, reproduces a known defect and is run by hand only.
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) re-drives the ops through the layers' public calls,
// times those calls from this package only, and reports the per-layer
// metrics. The last line of standard output is the result object; the
// line before it records the run context. README.md documents the
// workloads, the metrics and the predictions they serve.
//
// Run it from the root of the repository with
//
//	bash ksabench/run.sh --workload theorem --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nobroadcast/internal/spec"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists every per-layer metric. A traced run emits all of them;
// a layer the workload bypasses reads 0.
var perLayer = append([]metricDef{
	// theorem
	{"core.solo_ms", "ms"},
	{"adversary.run_ms", "ms"},
	{"adversary.verify_ms", "ms"},
	{"adversary.alpha_steps", "count"},
	{"spec.check_ms", "ms"},
	{"model.derive_ms", "ms"},
	{"core.replay_ms", "ms"},
	// hunt
	{"explore.violations", "count"},
	{"explore.total_steps", "count"},
	{"explore.replays", "count"},
	{"explore.min_len", "count"},
	{"sched.new_us", "us"},
	{"sched.search_ms", "ms"},
	{"sched.replay_us", "us"},
	{"spec.live_feed_ns_per_step", "ns"},
	{"trace.encode_us", "us"},
	{"sweep.overhead_us", "us"},
	// daemon
	{"serve.handler_ms.hit", "ms"},
	{"serve.handler_ms.miss", "ms"},
	{"serve.handler_ms.check", "ms"},
	{"serve.handler_ms.net", "ms"},
	{"serve.transport_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.jobs_rejected", "count"},
	{"serve.coalesced", "count"},
	{"serve.queue_wait_us", "us"},
	{"serve.exec_us", "us"},
	{"serve.check_decode_us", "us"},
	{"trace.decode_ns_per_step", "ns"},
	{"sched.fair_ms", "ms"},
	// every workload
	{"bench.trace_gap_ms", "ms"},
}, feedMetrics()...)

// feedMetrics names one spec.feed_ns_per_step metric per registered spec.
func feedMetrics() []metricDef {
	var out []metricDef
	for _, e := range spec.Registry() {
		out = append(out, metricDef{"spec.feed_ns_per_step." + e.Key, "ns"})
	}
	return out
}

// instance is one instance of a benchmark workload. setup builds its
// inputs and starts what it needs; op runs op i and checks its output,
// recording layer spans in tr when tr is non-nil; layers turns a traced
// run's spans into per-layer metrics.
type instance interface {
	setup() error
	op(i int, tr *tracer) error
	layers(tr *tracer) map[string]float64
	close()
}

type workloadDef struct {
	drivers int
	// tail is the percentile reported as op_tail_ms.
	tail float64
	// warm is the number of unmeasured warm-up ops run during set-up.
	warm int
	// cycle is the length of the workload's repeating op pattern; see
	// tracedOp.
	cycle int
	// reproducer marks a workload BENCHMARK.json leaves out because a
	// known defect makes some of its ops fail; it runs untraced only.
	reproducer bool
	new        func(seed uint64, tr *tracer) instance
}

var workloads = map[string]workloadDef{
	// theorem's tail is p95, inside its heaviest (k=6) ops: on a 2-core
	// host, a busy loop on one core made p50 1.2 times, p95 2.5 times and
	// p99 3.5 times longer, so p99 measured the host more than the ops.
	"theorem": {drivers: 1, tail: 95, warm: theoremCycle, cycle: theoremCycle, new: newTheorem},
	// A hunt op's cost depends on its seed; eight warm-up ops keep
	// setup_s from resting on the cost of one or two of them.
	"hunt":   {drivers: 1, tail: 90, warm: 8, cycle: 2, new: newHunt},
	"corpus": {drivers: 2, tail: 99, warm: cellsPerPass, cycle: cellsPerPass, reproducer: true, new: newCorpus},
	"daemon": {drivers: 2, tail: 99, warm: 200, cycle: 2, new: newDaemon},
}

// setupRepeats fresh set-ups are timed per run; setup_s is their median
// and the last one is measured.
const setupRepeats = 5

// warmBase offsets warm-up op indices away from the measured ones.
const warmBase = 1 << 30

// tracedOp says which ops a traced run traces: alternate ones, flipping
// phase every cycle, so that over two cycles each position of the op
// pattern runs once traced and once untraced. The untraced half gives
// bench.trace_gap_ms its baseline.
func tracedOp(i, cycle int) bool { return (i/cycle+i)%2 == 1 }

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// maxOps caps the measured ops (0: no cap).
	maxOps int
	// spansOut is where a traced run writes its spans ("" skips).
	spansOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext is recorded with every result.
type runContext struct {
	Workload       string         `json:"workload"`
	Seed           uint64         `json:"seed"`
	Trace          bool           `json:"trace"`
	Seconds        float64        `json:"seconds"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	NProc          int            `json:"nproc"`
	GoVersion      string         `json:"go_version"`
	Commit         string         `json:"commit"`
	Source         string         `json:"source_digest"`
	Drivers        int            `json:"drivers"`
	Attempted      int            `json:"attempted"`
	Failed         int            `json:"failed"`
	KnownDefect    int            `json:"failed_known_defect"`
	WarmupFailed   int            `json:"warmup_failed_known_defect"`
	Failures       map[string]int `json:"failures,omitempty"`
	TailPercentile float64        `json:"tail_percentile"`
	TailSamples    int            `json:"tail_samples"`
	TailBeyond     int            `json:"tail_samples_beyond"`
	Windows        int            `json:"windows"`
	QuietWindows   int            `json:"quiet_windows"`
	SetupRuns      []float64      `json:"setup_runs_s"`
}

// socketErr marks a failure on the socket transport (internal/nettcp),
// the only place the documented socket-merge defect can surface.
type socketErr struct{ err error }

func (e socketErr) Error() string { return e.err.Error() }
func (e socketErr) Unwrap() error { return e.err }

// knownDefect reports whether a failed op is one of the documented
// socket-merge failures of internal/nettcp (README.md, "Known defect"):
// a merged socket trace B-delivering a message that was never broadcast,
// or a run that lost node trace streams.
func knownDefect(err error) bool {
	var se socketErr
	if !errors.As(err, &se) {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "never broadcast") ||
		strings.Contains(msg, "lost node streams") ||
		(strings.Contains(msg, "trace stream") && strings.Contains(msg, "truncated"))
}

// opRec is one completed op, its times measured from the start of the
// measured interval.
type opRec struct {
	start, end time.Duration
	traced     bool
}

type driverOut struct {
	ops   []opRec
	fails []error
}

// windows is the number of equal windows the measured interval is split
// into. The untraced metrics are read in the quiet half of them; see
// quietWindows.
const windows = 20

// sample is the process CPU time at an offset into the measured interval.
type sample struct {
	at  time.Duration
	cpu time.Duration
}

// sampleWindows takes a sample at each inner window boundary until the
// interval ends or stop closes, then sends them.
func sampleWindows(start time.Time, interval time.Duration, stop <-chan struct{}, out chan<- []sample) {
	var got []sample
	for k := 1; k < windows; k++ {
		t := time.NewTimer(time.Until(start.Add(interval * time.Duration(k) / windows)))
		select {
		case <-t.C:
			got = append(got, sample{time.Since(start), cpuTime()})
		case <-stop:
			t.Stop()
			out <- got
			return
		}
	}
	<-stop
	out <- got
}

// quietWindows returns the quiet half of the windows between
// consecutive samples: those in which the process got at least the
// median CPU time per wall-clock second. The host is shared, and where
// other tenants take the CPUs away, for seconds or for most of a run,
// that share falls and every timing grows, the tail most; those windows
// are left out. On a 2-core shared host, over ten 30 s runs each of
// hunt and daemon in such a period, it cut the quartile spread of
// op_p50_ms from 14% and 7% to 8% and 6%, and of op_tail_ms from 19%
// and 10% to 11% and 8%, against whole-run and per-window statistics.
// A phase that slows a whole run it cannot remove.
func quietWindows(samples []sample) []int {
	share := make([]float64, len(samples)-1)
	for w := range share {
		share[w] = float64(samples[w+1].cpu-samples[w].cpu) / float64(samples[w+1].at-samples[w].at)
	}
	least := median(share)
	var quiet []int
	for w, sh := range share {
		if sh >= least {
			quiet = append(quiet, w)
		}
	}
	return quiet
}

// run executes one benchmark run and returns its result and context.
func run(cfg runConfig) (*result, *runContext, error) {
	def, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if def.reproducer && cfg.trace {
		return nil, nil, fmt.Errorf("workload %q has no traced run", cfg.workload)
	}
	ctx := &runContext{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: envOr("KSABENCH_COMMIT", "unknown"), Source: envOr("KSABENCH_SOURCE", "unknown"),
		Drivers: def.drivers, TailPercentile: def.tail,
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var w instance
	for r := 0; r < setupRepeats; r++ {
		if w != nil {
			w.close()
		}
		w = def.new(cfg.seed, tr)
		t0 := time.Now()
		err := w.setup()
		for j := 0; err == nil && j < def.warm; j++ {
			if opErr := w.op(warmBase+j, nil); opErr != nil {
				if !knownDefect(opErr) {
					err = fmt.Errorf("warm-up op %d: %w", j, opErr)
				} else if r == setupRepeats-1 {
					ctx.WarmupFailed++
				}
			}
		}
		ctx.SetupRuns = append(ctx.SetupRuns, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, ctx, fmt.Errorf("set-up: %w", err)
		}
	}
	defer w.close()
	if b, ok := w.(interface{ begin() error }); ok {
		if err := b.begin(); err != nil {
			return nil, ctx, err
		}
	}

	outs := make([]driverOut, def.drivers)
	var next atomic.Int64
	runtime.GC()
	alloc0 := allocated()
	interval := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	deadline := start.Add(interval)
	samples := []sample{{0, cpuTime()}}
	stop, sampled := make(chan struct{}), make(chan []sample)
	go sampleWindows(start, interval, stop, sampled)
	var wg sync.WaitGroup
	for d := range outs {
		wg.Add(1)
		go func(out *driverOut) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if cfg.maxOps > 0 && i >= cfg.maxOps {
					return
				}
				var opTr *tracer
				if tr != nil && tracedOp(i, def.cycle) {
					opTr = tr
				}
				t0 := time.Now()
				var err error
				if opTr != nil {
					end := opTr.span(i, "op")
					err = w.op(i, opTr)
					end()
				} else {
					err = w.op(i, nil)
				}
				if err != nil {
					out.fails = append(out.fails, err)
					continue
				}
				out.ops = append(out.ops, opRec{t0.Sub(start), time.Since(start), opTr != nil})
			}
		}(&outs[d])
	}
	wg.Wait()
	close(stop)
	samples = append(samples, <-sampled...)
	samples = append(samples, sample{time.Since(start), cpuTime()})
	alloc := allocated() - alloc0

	var ops []opRec
	var lat [2][]time.Duration // untraced, traced
	correct := true
	for _, out := range outs {
		ops = append(ops, out.ops...)
		for _, o := range out.ops {
			k := 0
			if o.traced {
				k = 1
			}
			lat[k] = append(lat[k], o.end-o.start)
		}
		for _, err := range out.fails {
			ctx.Failed++
			if knownDefect(err) {
				ctx.KnownDefect++
			} else {
				correct = false
			}
			if ctx.Failures == nil {
				ctx.Failures = make(map[string]int)
			}
			if len(ctx.Failures) < 32 {
				ctx.Failures[err.Error()]++
			}
		}
	}
	ctx.Attempted = len(ops) + ctx.Failed
	if ctx.Attempted == 0 {
		return nil, ctx, errors.New("no op completed in the measured interval")
	}
	for _, l := range lat {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
	}

	res := &result{Correct: correct, Attempted: ctx.Attempted, Failed: ctx.Failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		if len(ops) == 0 {
			return nil, ctx, errors.New("every op failed")
		}
		// Ops completed (an op spanning a window boundary counts in each
		// window by its share of time), CPU time and the latencies of the
		// ops that ended, all in the quiet windows.
		quiet := quietWindows(samples)
		var span, cpu time.Duration
		done := 0.0
		var quietLat []time.Duration
		for _, w := range quiet {
			a, b := samples[w].at, samples[w+1].at
			span += b - a
			cpu += samples[w+1].cpu - samples[w].cpu
			for _, o := range ops {
				if ov := min(o.end, b) - max(o.start, a); ov > 0 {
					done += float64(ov) / float64(o.end-o.start)
				}
				if o.end > a && o.end <= b {
					quietLat = append(quietLat, o.end-o.start)
				}
			}
		}
		if len(quietLat) == 0 {
			return nil, ctx, errors.New("no op ended in the quiet windows")
		}
		sort.Slice(quietLat, func(a, b int) bool { return quietLat[a] < quietLat[b] })
		tail, beyond := percentile(quietLat, def.tail)
		ctx.TailSamples, ctx.TailBeyond = len(quietLat), beyond
		ctx.Windows, ctx.QuietWindows = len(samples)-1, len(quiet)
		vals := map[string]float64{
			"ops_per_s":       done / span.Seconds(),
			"op_p50_ms":       ms(percentileValue(quietLat, 50)),
			"op_tail_ms":      ms(tail),
			"cpu_ms_per_op":   ms(cpu) / done,
			"alloc_kb_per_op": float64(alloc) / 1024 / float64(len(ops)),
			"setup_s":         median(ctx.SetupRuns),
		}
		// The benchmark's own op records are dropped before the live
		// heap is read, so it holds only what the workload keeps alive;
		// the second GC empties what sync.Pool caches kept past the first.
		outs, ops, lat, quietLat = nil, nil, [2][]time.Duration{}, nil
		runtime.GC()
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		vals["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res, ctx, nil
	}

	vals := w.layers(tr)
	if len(lat[0]) > 0 && len(lat[1]) > 0 {
		vals["bench.trace_gap_ms"] = ms(percentileValue(lat[1], 50)) - ms(percentileValue(lat[0], 50))
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	if cfg.spansOut != "" {
		if err := tr.write(cfg.spansOut); err != nil {
			return nil, ctx, err
		}
	}
	return res, ctx, nil
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the nearest-rank p-th percentile of sorted samples
// and the number of samples above it.
func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx], len(sorted) - 1 - idx
}

func percentileValue(sorted []time.Duration, p float64) time.Duration {
	v, _ := percentile(sorted, p)
	return v
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated is the cumulative Go heap allocation in bytes.
func allocated() uint64 {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.TotalAlloc
}

// tracer keeps a traced run's spans in memory and writes them out once,
// after the run. Every layer span of an op shares the op's index; the
// op's own span is named "op" and is the parent of the others.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	total map[string]float64 // summed span nanoseconds or counts, by name
	calls map[string]int
}

type span struct {
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]float64{}, calls: map[string]int{}}
}

// span starts a span of op; calling the returned func ends it.
func (t *tracer) span(op int, name string) func() {
	start := time.Now()
	return func() {
		d := time.Since(start).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{op, name, start.Sub(t.t0).Nanoseconds(), d})
		t.total[name] += float64(d)
		t.calls[name]++
		t.mu.Unlock()
	}
}

// count adds v to the counter name.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.total[name] += v
	t.calls[name]++
	t.mu.Unlock()
}

// per returns the total of name divided by den and by scale (1e6 turns
// span nanoseconds into milliseconds); 0 when den is 0.
func (t *tracer) per(name string, den, scale float64) float64 {
	return safeDiv(t.total[name], den) / scale
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perCall is the mean of name over its calls.
func (t *tracer) perCall(name string, scale float64) float64 {
	return t.per(name, float64(t.calls[name]), scale)
}

// perOp is the mean of name over the traced ops.
func (t *tracer) perOp(name string, scale float64) float64 {
	return t.per(name, float64(t.calls["op"]), scale)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "theorem, hunt or daemon (corpus: the defect reproducer, untraced)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured interval")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.trace {
		cfg.spansOut = filepath.Join(".bench_build", "spans-"+cfg.workload+".jsonl")
	}
	res, ctx, err := run(cfg)
	if ctx != nil {
		for msg, n := range ctx.Failures {
			fmt.Fprintf(os.Stderr, "ksabench: failed op (%d×): %s\n", n, msg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ksabench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, res, ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ksabench:", err)
		os.Exit(1)
	}
}

// emit prints the context line and, last, the result line.
func emit(w io.Writer, res *result, ctx *runContext) error {
	c, err := json.Marshal(map[string]*runContext{"context": ctx})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", c, r)
	return err
}
