// Command ksasim runs k-set-agreement workloads over a chosen broadcast
// abstraction, either on the deterministic step-driven runtime (seeded
// random schedules, reproducible) or on the concurrent goroutine runtime,
// and reports decision statistics: how many distinct values were decided,
// message counts, and whether the k-SA specification held.
//
// Usage:
//
//	ksasim -b first-k -n 5 -k 2 -runs 100 [-crashes 2] [-concurrent]
//	       [-drop 0.1] [-dup 0.05] [-partition "1,2|3,4@100ms+500ms"]
//	       [-seed 7] [-wait 30s] [-conformance]
//	       [-sockets] [-rebroadcast] [-hosts cluster.hosts] [-listen :9000]
//	       [-explore] [-strategy pct] [-depth 3] [-schedules 1000]
//	       [-minimize 3] [-trace-out ce]
//	       [-metrics] [-events out.jsonl] [-http 127.0.0.1:8123]
//	ksasim -node -id 2 -harness 10.0.0.1:9000
//
// -sockets runs the workload on the third transport (internal/nettcp):
// every CAMP process is a real operating-system process exchanging
// length-prefixed frames over TCP. The command re-execs itself once per
// node with -node, collects the per-node .ktr trace streams, merges
// them by the identity-erased conformance projection, and differentially
// checks the verdict against the deterministic runtime. -rebroadcast
// floods every message to all peers with hash dedup instead of direct
// unicast. With -hosts the command forks nothing: it reads a flag file
// ("<id> <host>" per line), binds the harness at the explicit -listen
// address, and waits for operator-started `ksasim -node` processes to
// dial in from the listed hosts — the multi-host mode.
//
// -explore runs the violation-hunting fleet (internal/explore) instead
// of a workload: a parallel sweep of seeded schedules under the chosen
// -strategy (fair, random, or pct), fail-fast live checking of the
// candidate's spec and k-SA, and delta-debugging of each violating
// schedule down to a 1-minimal decision prefix. Findings print with the
// run seed that reproduces them, and -trace-out writes each minimized
// counterexample to `prefix`-<cell>.ktr for replay and inspection with
// ksatrace. The whole report is deterministic in (-seed, -strategy,
// -schedules, ...) at any -workers count.
//
// The fault flags apply to the concurrent runtime: -drop and -dup are
// per-transit loss/duplication probabilities, and -partition cuts the
// links between two comma-separated process sets, optionally activating
// at @start and healing after +heal (omit +heal for a permanent cut;
// separate multiple partitions with ';'). Injections are counted under
// the net.faults.* metrics (visible with -metrics or -http).
//
// -conformance runs the cross-runtime differential check instead: the
// same workload script on the deterministic and the concurrent runtime,
// compared by spec verdict and per-process deliveries
// (see internal/conformance). With -b all it runs the whole differential
// corpus — every registered candidate across the standard grid — on the
// parallel sweep engine (-workers bounds the cells in flight).
//
// With -http the command serves live metrics while the workload runs:
// `/` is a plain-text summary, `/metrics` Prometheus text exposition,
// and `/vars` an expvar-style JSON map of counters and gauges.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"nobroadcast/internal/broadcast"
	conf "nobroadcast/internal/conformance"
	"nobroadcast/internal/explore"
	"nobroadcast/internal/ksa"
	"nobroadcast/internal/model"
	"nobroadcast/internal/net"
	"nobroadcast/internal/nettcp"
	"nobroadcast/internal/obs"
	"nobroadcast/internal/sched"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run maps the command body to a process exit code. The body defers its
// observability flush, so a failing invocation still emits the -metrics
// summary and finalizes the -events log before the process exits.
func run(args []string, out, errw io.Writer) int {
	if err := cmdRun(args, out); err != nil {
		fmt.Fprintln(errw, "ksasim:", err)
		return 1
	}
	return 0
}

func cmdRun(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("ksasim", flag.ContinueOnError)
	name := fs.String("b", "first-k", "broadcast abstraction ("+strings.Join(broadcast.Names(), ", ")+")")
	n := fs.Int("n", 5, "number of processes")
	k := fs.Int("k", 2, "agreement degree")
	runs := fs.Int("runs", 100, "number of seeded runs (deterministic runtime)")
	crashes := fs.Int("crashes", 0, "number of processes crashed mid-run")
	concurrent := fs.Bool("concurrent", false, "use the concurrent goroutine runtime instead")
	drop := fs.Float64("drop", 0, "per-transit loss probability (concurrent runtime)")
	dup := fs.Float64("dup", 0, "per-transit duplication probability (concurrent runtime)")
	partition := fs.String("partition", "", "timed link cuts, `\"A|B[@start+heal]\"` with comma-separated process ids; ';' separates partitions (concurrent runtime)")
	seed := fs.Uint64("seed", 0, "delay/fault seed for the concurrent runtime (0 = wall clock)")
	wait := fs.Duration("wait", 30*time.Second, "delivery-convergence timeout (concurrent runtime)")
	conformance := fs.Bool("conformance", false, "run the cross-runtime differential check instead of a workload")
	sockets := fs.Bool("sockets", false, "run the workload on the TCP socket transport (one OS process per CAMP node) and differentially check it against the deterministic runtime")
	rebroadcast := fs.Bool("rebroadcast", false, "flood messages to all peers with hash dedup instead of direct unicast (-sockets)")
	hostsFile := fs.String("hosts", "", "multi-host flag `file` (\"<id> <host>\" per line): await operator-started -node processes instead of forking (-sockets)")
	listen := fs.String("listen", "", "harness bind `address` for -sockets (default loopback ephemeral; an explicit port is required with -hosts)")
	nodeMode := fs.Bool("node", false, "run as a single socket-transport CAMP node (child mode; needs -id and -harness)")
	nodeID := fs.Int("id", 0, "this node's 1-based process id (-node)")
	harnessAddr := fs.String("harness", "", "harness `address` to dial (-node)")
	exploreMode := fs.Bool("explore", false, "hunt for spec-violating schedules and delta-debug them to minimized counterexamples")
	strategy := fs.String("strategy", "pct", "exploration scheduling strategy ("+strings.Join(sched.StrategyNames(), ", ")+")")
	depth := fs.Int("depth", 0, "pct priority-change points (0 = default)")
	schedules := fs.Int("schedules", 1000, "seeded schedules to explore with -explore")
	minimize := fs.Int("minimize", 0, "violating schedules to delta-debug with -explore (0 = default, -1 = none)")
	traceOut := fs.String("trace-out", "", "write each minimized counterexample to `prefix`-<cell>.ktr (-explore)")
	workers := fs.Int("workers", 0, "worker bound for -explore and -b all -conformance; 0 means GOMAXPROCS")
	live := fs.Bool("live", false, "check specs incrementally while runs execute (streaming, no post-hoc rescan)")
	httpAddr := fs.String("http", "", "serve live metrics (/, /metrics, /vars) on this `address` while the workload runs")
	oc := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The sinks flush on every exit path — a failing run keeps its
	// telemetry instead of losing it to an early return.
	defer func() {
		if ferr := oc.Finish(out); err == nil {
			err = ferr
		}
	}()
	if *nodeMode {
		// Child mode: this process is one CAMP node. Everything it needs
		// (candidate, peers, seed, fault plan) arrives in the harness's
		// start frame, so the only flags that matter are -id and -harness.
		reg, err := oc.Registry()
		if err != nil {
			return err
		}
		return nettcp.RunNode(nettcp.NodeConfig{ID: *nodeID, Harness: *harnessAddr, Obs: reg})
	}
	if *name == "all" && *conformance {
		reg, err := oc.Registry()
		if err != nil {
			return err
		}
		return runCorpus(out, *seed, *workers, reg)
	}
	cand, err := broadcast.Lookup(*name)
	if err != nil {
		return err
	}
	if *crashes >= *n {
		return fmt.Errorf("crashes must leave at least one process alive")
	}
	faults, err := buildFaultPlan(*drop, *dup, *partition)
	if err != nil {
		return err
	}
	reg, err := oc.Registry()
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		if reg == nil {
			reg = obs.New()
		}
		ln, err := stdnet.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: reg}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "metrics endpoint: http://%s/ (paths: /, /metrics, /vars)\n", ln.Addr())
	}
	switch {
	case *exploreMode:
		if faults != nil {
			return fmt.Errorf("-drop/-dup/-partition do not apply to -explore (schedule faults come from -crashes)")
		}
		err = runExplore(out, explore.Options{
			Candidate: *name,
			N:         *n,
			K:         *k,
			Strategy:  *strategy,
			Depth:     *depth,
			Schedules: *schedules,
			Seed:      *seed,
			Crashes:   *crashes,
			Workers:   *workers,
			Minimize:  *minimize,
			Obs:       reg,
		}, *traceOut, reg)
	case *sockets:
		err = runSockets(out, diffConfig(cand, *n, *k, *seed, faults, *wait), *rebroadcast, *hostsFile, *listen)
	case *conformance:
		err = runConformance(out, diffConfig(cand, *n, *k, *seed, faults, *wait))
	case *concurrent:
		err = runConcurrent(out, cand, *n, *k, *seed, faults, *wait, *live, reg)
	default:
		if faults != nil {
			return fmt.Errorf("-drop/-dup/-partition need -concurrent or -conformance (the deterministic runtime has no transport faults)")
		}
		err = runDeterministic(out, cand, *n, *k, *runs, *crashes, *live, reg)
	}
	return err
}

func runDeterministic(out io.Writer, cand broadcast.Candidate, n, k, runs, crashes int, live bool, reg *obs.Registry) error {
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = model.Value(fmt.Sprintf("v%d", i+1))
	}
	histogram := make(map[int]int) // distinct decisions -> runs
	violations := 0
	liveStops := 0
	var steps, sends int
	span := reg.StartSpan("ksasim.deterministic")
	defer span.End()
	runCounter := reg.Counter("ksasim.runs")
	violCounter := reg.Counter("ksasim.violations")
	for seed := uint64(1); seed <= uint64(runs); seed++ {
		cfg := sched.Config{
			N:            n,
			NewAutomaton: cand.NewAutomaton,
			Oracle:       ksa.Instrument(cand.OracleFor(k), reg),
			NewApp:       cand.SolverFor(),
			Inputs:       inputs,
			Obs:          reg,
		}
		if live {
			cfg.LiveSpecs = []spec.Spec{spec.KSA(k)}
		}
		rt, err := sched.New(cfg)
		if err != nil {
			return err
		}
		crashAt := make(map[int]model.ProcID, crashes)
		for c := 0; c < crashes; c++ {
			crashAt[5+7*c] = model.ProcID(n - c)
		}
		tr, err := rt.RunRandom(sched.RunOptions{Seed: seed, CrashAt: crashAt})
		var lve *sched.LiveViolationError
		switch {
		case errors.As(err, &lve):
			// The live checker stopped the run at the violating step; the
			// partial trace still contributes to the statistics.
			tr = lve.Trace
			violations++
			liveStops++
			violCounter.Inc()
		case err != nil:
			return err
		default:
			verdict := spec.KSA(k).Check(tr)
			if live {
				// The monitor saw every step already; read its latched
				// verdict instead of rescanning the trace.
				mon := rt.LiveMonitor()
				mon.Finish(tr.Complete)
				verdict, _ = mon.Verdict(spec.KSA(k).Name())
			}
			if verdict != nil {
				violations++
				violCounter.Inc()
			}
		}
		ix := tr.Index()
		histogram[len(ix.DistinctDecisions(sched.DefaultAppObject))]++
		runCounter.Inc()
		steps += tr.X.Len()
		for _, s := range tr.X.Steps {
			if s.Kind == model.KindSend {
				sends++
			}
		}
	}
	fmt.Fprintf(out, "%s: n=%d k=%d runs=%d crashes=%d\n", cand.Name, n, k, runs, crashes)
	fmt.Fprintf(out, "  distinct-decision histogram (distinct -> runs):\n")
	for d := 0; d <= n; d++ {
		if c, ok := histogram[d]; ok {
			marker := ""
			if d > k {
				marker = "  <-- exceeds k!"
			}
			fmt.Fprintf(out, "    %d: %d%s\n", d, c, marker)
		}
	}
	fmt.Fprintf(out, "  %d-SA violations: %d/%d runs\n", k, violations, runs)
	if live {
		fmt.Fprintf(out, "  live checking: %d runs stopped at the violating step\n", liveStops)
	}
	fmt.Fprintf(out, "  avg steps/run: %d   avg sends/run: %d\n", steps/runs, sends/runs)
	if cand.SolvesKSA && violations > 0 {
		return fmt.Errorf("%s claims to solve %d-SA but violated it", cand.Name, k)
	}
	return nil
}

// runExplore runs the violation-hunting fleet and prints its report:
// hit rate, schedules/sec, and one entry per minimized finding with the
// seed that reproduces it. The report body (everything but the timing
// line) is deterministic in the exploration options.
func runExplore(out io.Writer, o explore.Options, traceOut string, reg *obs.Registry) error {
	span := reg.StartSpan("ksasim.explore")
	defer span.End()
	start := time.Now()
	res, err := explore.Run(context.Background(), o)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "%s: explore n=%d k=%d strategy=%s schedules=%d seed=%d crashes=%d\n",
		res.Candidate, res.N, res.K, res.Strategy, res.Schedules, res.Seed, res.Crashes)
	rate := float64(res.Schedules) / elapsed.Seconds()
	fmt.Fprintf(out, "  %d/%d schedules violate; %d steps in %v (%.0f schedules/sec)\n",
		res.Violations, res.Schedules, res.TotalSteps, elapsed.Round(time.Millisecond), rate)
	if res.Violations == 0 {
		fmt.Fprintf(out, "  no violating schedule found; try more -schedules, another -strategy, or -crashes\n")
		return nil
	}
	for _, f := range res.Findings {
		fmt.Fprintf(out, "  cell %d: %s/%s at step %d (reproduce with seed %d)\n",
			f.Cell, f.Spec, f.Property, f.StepIdx, f.Seed)
		if f.MinLen > 0 {
			fmt.Fprintf(out, "    minimized %d -> %d decisions (%d steps)\n", f.ScheduleLen, f.MinLen, f.MinSteps)
		}
		if traceOut != "" && len(f.KTR) > 0 {
			path := fmt.Sprintf("%s-%d.ktr", traceOut, f.Cell)
			if err := os.WriteFile(path, f.KTR, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "    counterexample written to %s\n", path)
		}
	}
	if res.Replays > 0 {
		fmt.Fprintf(out, "  minimization: %d findings delta-debugged in %d replays\n", len(res.Findings), res.Replays)
	}
	return nil
}

// buildFaultPlan assembles a net.FaultPlan from the -drop/-dup/-partition
// flags; all zero flags yield a nil plan (the reliable network).
func buildFaultPlan(drop, dup float64, partitions string) (*net.FaultPlan, error) {
	if drop == 0 && dup == 0 && partitions == "" {
		return nil, nil
	}
	plan := &net.FaultPlan{Drop: drop, Dup: dup}
	if partitions != "" {
		for _, spec := range strings.Split(partitions, ";") {
			p, err := parsePartition(strings.TrimSpace(spec))
			if err != nil {
				return nil, err
			}
			plan.Partitions = append(plan.Partitions, p)
		}
	}
	return plan, nil
}

// parsePartition parses "A|B[@start[+heal]]", e.g. "1,2|3,4,5@100ms+500ms":
// cut all links between processes {1,2} and {3,4,5} from 100ms after start,
// healing at 500ms. Omitting +heal makes the cut permanent.
func parsePartition(s string) (net.Partition, error) {
	var p net.Partition
	sides, timing, hasTiming := strings.Cut(s, "@")
	if hasTiming {
		startStr, healStr, hasHeal := strings.Cut(timing, "+")
		start, err := time.ParseDuration(startStr)
		if err != nil {
			return p, fmt.Errorf("partition %q: bad start: %w", s, err)
		}
		p.Start = start
		if hasHeal {
			heal, err := time.ParseDuration(healStr)
			if err != nil {
				return p, fmt.Errorf("partition %q: bad heal: %w", s, err)
			}
			p.Heal = heal
		}
	}
	a, b, found := strings.Cut(sides, "|")
	if !found {
		return p, fmt.Errorf("partition %q: want \"A|B[@start+heal]\" with comma-separated process ids", s)
	}
	var err error
	if p.A, err = parseProcs(a); err != nil {
		return p, fmt.Errorf("partition %q: %w", s, err)
	}
	if p.B, err = parseProcs(b); err != nil {
		return p, fmt.Errorf("partition %q: %w", s, err)
	}
	return p, nil
}

func parseProcs(s string) ([]model.ProcID, error) {
	var out []model.ProcID
	for _, tok := range strings.Split(s, ",") {
		var id int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &id); err != nil || id < 1 {
			return nil, fmt.Errorf("bad process id %q", tok)
		}
		out = append(out, model.ProcID(id))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty process set")
	}
	return out, nil
}

func runConcurrent(out io.Writer, cand broadcast.Candidate, n, k int, seed uint64, faults *net.FaultPlan, wait time.Duration, live bool, reg *obs.Registry) error {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	span := reg.StartSpan("ksasim.concurrent")
	defer span.End()
	cfg := net.Config{
		N:            n,
		NewAutomaton: cand.NewAutomaton,
		K:            cand.OracleDegree(k),
		MaxDelay:     200 * time.Microsecond,
		Seed:         seed,
		Faults:       faults,
		Obs:          reg,
	}
	if live {
		// Streaming mode: the candidate's spec is checked step by step as
		// the run executes, with no trace recorded (RecordTrace stays off).
		cfg.LiveSpecs = []spec.Spec{cand.Spec(k)}
	}
	nw, err := net.New(cfg)
	if err != nil {
		return err
	}
	defer nw.Stop()
	const perNode = 5
	start := time.Now()
	for p := 1; p <= n; p++ {
		for j := 0; j < perNode; j++ {
			if _, err := nw.Broadcast(model.ProcID(p), model.Payload(fmt.Sprintf("m-%d-%d", p, j))); err != nil {
				return err
			}
		}
	}
	want := int64(n * perNode)
	done := nw.WaitUntil(func() bool {
		for p := 1; p <= n; p++ {
			if nw.Delivered(model.ProcID(p)) < want {
				return false
			}
		}
		return true
	}, wait)
	elapsed := time.Since(start)
	st := nw.StatsSnapshot()
	fmt.Fprintf(out, "%s (concurrent): n=%d, %d broadcasts in %v (complete=%v)\n", cand.Name, n, st.Broadcasts, elapsed, done)
	fmt.Fprintf(out, "  sends=%d receives=%d deliveries=%d (%.1f sends/broadcast)\n",
		st.Sent, st.Received, st.Delivered, float64(st.Sent)/float64(st.Broadcasts))
	if live {
		nw.Stop()
		verdicts := nw.FinishLive(done && faults == nil)
		fmt.Fprintf(out, "  live checking: %d steps streamed through %s\n", nw.LiveSteps(), cand.Spec(k).Name())
		violated := false
		for _, sv := range verdicts {
			if sv.Violation != nil {
				violated = true
				fmt.Fprintf(out, "  live VIOLATION (step %d): %s\n", sv.StepIdx, sv.Violation)
			}
		}
		switch {
		case !violated:
			fmt.Fprintf(out, "  live verdict: admissible\n")
		case cand.ScheduleSensitive:
			// A doomed candidate violating under a concurrent schedule is
			// the paper's expected refutation, found while still running.
			fmt.Fprintf(out, "  counterexample schedule found live (expected: %s is schedule-sensitive)\n", cand.Name)
		default:
			return fmt.Errorf("live spec violation on concurrent run")
		}
	}
	if faults != nil {
		fmt.Fprintf(out, "  faults: dropped=%d duplicated=%d partition-dropped=%d\n",
			st.FaultDrops, st.FaultDups, st.PartitionDrops)
		if !done {
			// Under injected faults, lost deliveries are the experiment's
			// measurement, not a runtime failure.
			fmt.Fprintf(out, "  deliveries incomplete after %v — expected under injected faults\n", wait)
		}
		return nil
	}
	if !done {
		return fmt.Errorf("deliveries incomplete after timeout")
	}
	return nil
}

// runCorpus runs the full differential corpus — every registered candidate
// across the standard (N, K, workload) grid — concurrently on the sweep
// engine and prints one summary line per cell in corpus order.
func runCorpus(out io.Writer, seed uint64, workers int, reg *obs.Registry) error {
	cfgs := conf.Corpus(seed)
	span := reg.StartSpan("ksasim.corpus")
	sums, err := conf.RunCorpus(context.Background(), cfgs, workers, reg)
	span.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "conformance corpus: %d cells (every candidate × standard grid)\n", len(cfgs))
	for _, s := range sums {
		fmt.Fprintf(out, "  %s\n", s)
	}
	fmt.Fprintln(out, "all cells conform")
	return nil
}

// runSockets runs the workload on the socket transport — one OS process
// per CAMP node, forked from this binary via -node — and prints the
// differential comparison against the deterministic runtime. With a
// -hosts file it spawns nothing and instead waits for externally started
// node processes, which makes the same differential check work across
// real machines.
func runSockets(out io.Writer, base conf.Config, rebroadcast bool, hostsFile, listen string) error {
	cfg := conf.SocketConfig{
		Config:      base,
		Rebroadcast: rebroadcast,
		Listen:      listen,
	}
	cand, k := base.Candidate, base.K
	if hostsFile != "" {
		hn, hosts, err := nettcp.ReadHostsFile(hostsFile)
		if err != nil {
			return err
		}
		if listen == "" || strings.HasSuffix(listen, ":0") {
			return fmt.Errorf("-hosts needs an explicit -listen address the remote nodes can dial (got %q)", listen)
		}
		cfg.N = hn
		cfg.Config.Workload.Messages = 3 * hn
		cfg.External = true
		// Operators start nodes by hand; give them time to do it.
		cfg.StartTimeout = 5 * time.Minute
		fmt.Fprintf(out, "%s (sockets): waiting for %d external nodes on %s\n", cand.Name, hn, listen)
		fmt.Fprintf(out, "  start on each listed host:\n")
		for id := 1; id <= hn; id++ {
			fmt.Fprintf(out, "    [%s] ksasim -node -id %d -harness %s\n", hosts[id], id, listen)
		}
	} else {
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		cfg.Spawn = nettcp.ExecSpawn(bin, func(id int, harnessAddr string) []string {
			return []string{"-node", "-id", strconv.Itoa(id), "-harness", harnessAddr}
		})
	}
	res, err := conf.CheckSockets(cfg)
	if res != nil {
		fmt.Fprintf(out, "%s (sockets): n=%d k=%d messages=%d rebroadcast=%v\n",
			cand.Name, cfg.N, k, cfg.Config.Workload.Messages, rebroadcast)
		printComparison(out, cand.Name, "socket cluster", res.Sched, res.Socket, res.Comparison, res.SocketComplete)
		if len(res.Truncated) > 0 {
			fmt.Fprintf(out, "  truncated node streams: %v\n", res.Truncated)
		}
	}
	return err
}

// runConformance runs the cross-runtime differential check for the chosen
// candidate (internal/conformance) and prints the comparison.
func runConformance(out io.Writer, cfg conf.Config) error {
	res, err := conf.Check(cfg)
	if res != nil {
		fmt.Fprintf(out, "%s (conformance): n=%d k=%d messages=%d\n", cfg.Candidate.Name, cfg.N, cfg.K, cfg.Workload.Messages)
		printComparison(out, cfg.Candidate.Name, "concurrent runtime", res.Sched, res.Net, res.Comparison, res.NetComplete)
		if cfg.Faults != nil {
			fmt.Fprintf(out, "  faults: dropped=%d duplicated=%d partition-dropped=%d\n",
				res.NetStats.FaultDrops, res.NetStats.FaultDups, res.NetStats.PartitionDrops)
		}
	}
	return err
}

// diffConfig is the differential workload -conformance and -sockets run:
// 3n uniform broadcasts seeded like the runtime.
func diffConfig(cand broadcast.Candidate, n, k int, seed uint64, faults *net.FaultPlan, wait time.Duration) conf.Config {
	return conf.Config{
		Candidate:   cand,
		N:           n,
		K:           k,
		Workload:    workload.Config{Kind: workload.Uniform, Messages: 3 * n, Seed: seed},
		Seed:        seed,
		Faults:      faults,
		WaitTimeout: wait,
	}
}

// printComparison prints the differential verdict lines -conformance and
// -sockets share: the deterministic side, the concurrent side called
// label, and their agreement.
func printComparison(out io.Writer, cand, label string, sched, other conf.Side, c conf.Comparison, complete bool) {
	verdict := func(v *spec.Violation) string {
		if v == nil {
			return "admissible"
		}
		return v.String()
	}
	fmt.Fprintf(out, "  deterministic runtime: %s\n", verdict(sched.Verdict))
	fmt.Fprintf(out, "  %-22s %s (complete=%v)\n", label+":", verdict(other.Verdict), complete)
	fmt.Fprintf(out, "  verdicts-agree=%v delivery-sets-agree=%v\n", c.VerdictsAgree, c.DeliverySetsAgree)
	if c.CounterexampleFound {
		fmt.Fprintf(out, "  counterexample schedule found (expected: %s is schedule-sensitive)\n", cand)
	}
}
