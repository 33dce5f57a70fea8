package main

import (
	"fmt"

	"nobroadcast/internal/conformance"
	"nobroadcast/internal/rng"
)

// A corpus pass is the 30 cells of conformance.Corpus followed by the 10
// in-process socket cells of conformance.SocketCorpus, on one seed.
const (
	netCells     = 30
	cellsPerPass = netCells + 10
)

// corpus runs one differential conformance cell per op; pass p of the
// corpus runs on the seed rng.Derive(seed, p). It is the reproducer of
// the socket-merge defect (README.md, "Known defect"), kept out of
// BENCHMARK.json because that defect makes some of its ops fail.
type corpus struct{ seed uint64 }

func newCorpus(seed uint64, _ *tracer) instance { return &corpus{seed: seed} }

func (w *corpus) setup() error {
	if n, m := len(conformance.Corpus(w.seed)), len(conformance.SocketCorpus(w.seed)); n != netCells || m != cellsPerPass-netCells {
		return fmt.Errorf("corpus has %d cells and %d socket cells, the workload expects %d and %d", n, m, netCells, cellsPerPass-netCells)
	}
	return nil
}

func (w *corpus) close() {}

func (w *corpus) op(i int, _ *tracer) error {
	s := rng.Derive(w.seed, uint64(i/cellsPerPass))
	j := i % cellsPerPass
	if j < netCells {
		_, err := conformance.Check(conformance.Corpus(s)[j])
		return err
	}
	cfg := conformance.SocketCorpus(s)[j-netCells]
	res, err := conformance.CheckSockets(cfg)
	switch {
	case err != nil:
		return socketErr{err}
	case !res.SocketComplete || len(res.Truncated) > 0:
		return socketErr{fmt.Errorf("%s socket run incomplete (truncated streams %v)", cfg.Candidate.Name, res.Truncated)}
	}
	return nil
}

func (w *corpus) layers(*tracer) map[string]float64 { return nil }
