package net

import (
	"context"
	"fmt"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/sched"
)

// Cluster is what a broadcast script needs of a running system. *Network
// and internal/nettcp's *Cluster both provide it.
type Cluster interface {
	Broadcast(p model.ProcID, payload model.Payload) (model.MsgID, error)
	Delivered(p model.ProcID) int64
	Returned(p model.ProcID) int64
}

// Drive submits the script reqs to the n-process system c and waits for
// it to converge: every process delivered every message and every
// invocation returned. Submissions respect well-formedness — a process's
// next invocation waits for its previous one to return (mutual
// broadcast, for instance, returns only after a quorum of echoes). Each
// wait is bounded by timeout and by ctx. complete reports convergence;
// err is ctx's error once it ends, or a broadcast that was refused or
// never returned.
func Drive(ctx context.Context, c Cluster, n int, reqs []sched.BroadcastReq, timeout time.Duration) (complete bool, err error) {
	submitted := make(map[model.ProcID]int64)
	for _, req := range reqs {
		p := req.Proc
		if !Await(ctx, func() bool { return c.Returned(p) >= submitted[p] }, timeout) {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			return false, fmt.Errorf("%v's B.broadcast never returned (%d/%d)", p, c.Returned(p), submitted[p])
		}
		if _, err := c.Broadcast(p, req.Payload); err != nil {
			return false, err
		}
		submitted[p]++
	}
	want := int64(len(reqs))
	complete = Await(ctx, func() bool {
		for p := 1; p <= n; p++ {
			if c.Delivered(model.ProcID(p)) < want {
				return false
			}
		}
		for p, k := range submitted {
			if c.Returned(p) < k {
				return false
			}
		}
		return true
	}, timeout)
	return complete, ctx.Err()
}

// Await polls cond until it holds, the timeout elapses, or ctx ends,
// returning whether it held. Polling backs off exponentially from 200µs
// to 5ms, so a slow condition costs bounded wake-ups instead of a busy
// core.
func Await(ctx context.Context, cond func() bool, timeout time.Duration) bool {
	const (
		floor   = 200 * time.Microsecond
		ceiling = 5 * time.Millisecond
	)
	deadline := time.Now().Add(timeout)
	for sleep := floor; ; sleep = min(2*sleep, ceiling) {
		if cond() {
			return true
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return cond()
		}
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
}
