// Command checker validates recorded execution traces against the
// machine-checkable specifications, and runs the paper's two symmetry
// testers (compositionality, Definition 2; content-neutrality,
// Definition 3) against a spec on a given trace.
//
// Usage:
//
//	checker -spec kbo -k 2 [-symmetry] [-seed 1] [-metrics] [-events out.jsonl] trace.json
//	checker -spec fifo -stream trace.jsonl     # or trace.ktr, or "-" for stdin
//
// The trace file is the JSON produced by `adversary -json` or by the
// trace package. With -stream the input is either wire format — binary
// ksatrace (cmd/ksatrace, /v1/jobs/{id}/trace) or JSONL (one header
// line, one step per line), auto-detected — and is checked
// incrementally: only online checker state is resident, so traces of any
// length fit in constant memory. Spec
// names are the registry keys (spec.Names); the classics: well-formed,
// channels, basic, send-to-all, fifo, causal, total-order, kbo,
// k-stepped, first-k, sa-tagged, mutual, uniform-reliable, scd, ksa.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nobroadcast/internal/obs"
	"nobroadcast/internal/spec"
	"nobroadcast/internal/trace"
)

// errRejected signals an inadmissible trace (exit code 2, distinguishing
// "checked and rejected" from tool errors).
var errRejected = errors.New("trace rejected")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run maps the command body to a process exit code (2 = trace rejected,
// 1 = tool error). The body defers its observability flush, so a failing
// invocation — rejected trace or tool error alike — still emits the
// -metrics summary and finalizes the -events log before the process
// exits.
func run(args []string, out, errw io.Writer) int {
	err := cmdRun(args, out)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errRejected):
		return 2
	default:
		fmt.Fprintln(errw, "checker:", err)
		return 1
	}
}

// specByName resolves a specification name against the spec registry.
func specByName(name string, k int) (spec.Spec, error) {
	s, err := spec.ByName(name, k)
	if err != nil {
		return spec.Spec{}, fmt.Errorf("%w (known: %s)", err, strings.Join(spec.Names(), ", "))
	}
	return s, nil
}

// runStream checks a step stream incrementally, without ever
// materializing the trace. Both wire formats are accepted — binary
// ksatrace streams and JSONL are sniffed apart by NewAnyReader. The
// verdict reports the index of the step that latched the violation, when
// the checker knows it.
func runStream(s spec.Spec, r io.Reader, reg *obs.Registry, out io.Writer) error {
	sr, err := trace.NewAnyReader(r)
	if err != nil {
		return err
	}
	hdr := sr.Header()
	fmt.Fprintf(out, "stream %q: %d processes, complete=%v\n", hdr.Name, hdr.N, hdr.Complete)
	c := spec.NewCheckerFor(s, hdr.N)
	sp := reg.StartSpan("checker.stream")
	steps := 0
	// The span and step count are recorded even when the stream errors
	// out mid-way (truncated or corrupt input) — partial progress is
	// telemetry too.
	defer func() {
		sp.End()
		reg.Counter("checker.steps").Add(int64(steps))
	}()
	var v *spec.Violation
	violIdx := -1
	for {
		st, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if v == nil {
			if v = c.Feed(st); v != nil {
				violIdx = steps
			}
		}
		steps++
	}
	if v == nil {
		v = c.Finish(hdr.Complete)
	}
	reg.Emit("checker.verdict", obs.Str("spec", s.Name()), obs.Int("rejected", boolInt(v != nil)))
	fmt.Fprintf(out, "checked %d steps online\n", steps)
	if v != nil {
		if v.StepIdx < 0 && violIdx >= 0 {
			fmt.Fprintf(out, "REJECTED by %s (latched at step %d):\n  %s\n", s.Name(), violIdx, v)
		} else {
			fmt.Fprintf(out, "REJECTED by %s:\n  %s\n", s.Name(), v)
		}
		return errRejected
	}
	fmt.Fprintf(out, "admitted by %s\n", s.Name())
	return nil
}

func cmdRun(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("checker", flag.ContinueOnError)
	specName := fs.String("spec", "basic", "specification to check")
	k := fs.Int("k", 2, "agreement/ordering degree for parameterized specs")
	symmetry := fs.Bool("symmetry", false, "also run the compositionality and content-neutrality testers")
	stream := fs.Bool("stream", false, "input is JSONL; check it incrementally (\"-\" reads stdin)")
	seed := fs.Uint64("seed", 1, "seed for the symmetry testers' generators")
	oc := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: checker [-spec name] [-k K] [-symmetry | -stream] trace.json")
	}
	if *stream && *symmetry {
		return fmt.Errorf("-symmetry needs the whole trace; it cannot be combined with -stream")
	}
	// The sinks flush on every exit path — a rejected trace or a failing
	// run keeps its telemetry instead of losing it to an early return.
	defer func() {
		if ferr := oc.Finish(out); err == nil {
			err = ferr
		}
	}()
	reg, err := oc.Registry()
	if err != nil {
		return err
	}

	if *stream {
		s, err := specByName(*specName, *k)
		if err != nil {
			return err
		}
		in := io.Reader(os.Stdin)
		if fs.Arg(0) != "-" {
			f, err := os.Open(fs.Arg(0))
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		return runStream(s, in, reg, out)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	sp := reg.StartSpan("checker.decode")
	tr, err := trace.DecodeJSON(f)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace %q: %d processes, %d steps, complete=%v\n", tr.Name, tr.X.N, tr.X.Len(), tr.Complete)
	reg.Counter("checker.steps").Add(int64(tr.X.Len()))

	s, err := specByName(*specName, *k)
	if err != nil {
		return err
	}
	sp = reg.StartSpan("checker.spec")
	v := s.Check(tr)
	sp.End()
	reg.Emit("checker.verdict", obs.Str("spec", s.Name()), obs.Int("rejected", boolInt(v != nil)))
	if v != nil {
		fmt.Fprintf(out, "REJECTED by %s:\n  %s\n", s.Name(), v)
		return errRejected
	}
	fmt.Fprintf(out, "admitted by %s\n", s.Name())

	if *symmetry {
		opts := spec.SymmetryOptions{Seed: *seed}
		sp = reg.StartSpan("checker.compositionality")
		comp, err := spec.CheckCompositional(s, tr, opts)
		sp.End()
		if err != nil {
			return err
		}
		if comp.Holds {
			fmt.Fprintf(out, "compositionality: held on %d restrictions\n", comp.Checked)
		} else {
			fmt.Fprintf(out, "compositionality: REFUTED by message subset %v:\n  %s\n", comp.WitnessSubset, comp.Violation)
		}
		sp = reg.StartSpan("checker.content_neutrality")
		cn, err := spec.CheckContentNeutral(s, tr, opts)
		sp.End()
		if err != nil {
			return err
		}
		if cn.Holds {
			fmt.Fprintf(out, "content-neutrality: held on %d renamings\n", cn.Checked)
		} else {
			fmt.Fprintf(out, "content-neutrality: REFUTED by renaming %v:\n  %s\n", cn.WitnessRenaming, cn.Violation)
		}
	}
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
