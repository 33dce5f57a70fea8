package net

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nobroadcast/internal/model"
	"nobroadcast/internal/sched"
)

// Cluster is what a broadcast script needs of a running system. *Network
// and internal/nettcp's *Cluster both provide it. Progress is announced
// after every change Delivered and Returned can report.
type Cluster interface {
	Broadcast(p model.ProcID, payload model.Payload) (model.MsgID, error)
	Delivered(p model.ProcID) int64
	Returned(p model.ProcID) int64
	Progress() *Progress
}

// Drive submits the script reqs to the n-process system c and waits for
// it to converge: every process delivered every message and every
// invocation returned. Submissions respect well-formedness — a process's
// next invocation waits for its previous one to return (mutual
// broadcast, for instance, returns only after a quorum of echoes). Each
// wait re-checks its condition on c's progress announcements and is
// bounded by timeout and by ctx. complete reports convergence; err is
// ctx's error once it ends, or a broadcast that was refused or never
// returned.
func Drive(ctx context.Context, c Cluster, n int, reqs []sched.BroadcastReq, timeout time.Duration) (complete bool, err error) {
	pr := c.Progress()
	submitted := make(map[model.ProcID]int64)
	for _, req := range reqs {
		p := req.Proc
		if !pr.Await(ctx, func() bool { return c.Returned(p) >= submitted[p] }, timeout) {
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
	complete = pr.Await(ctx, func() bool {
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

// Progress is a running system's progress signal. The runtime Announces
// after every change a wait condition can read; Await re-checks its
// condition after each announcement instead of on a timer. The zero value
// is ready to use.
type Progress struct {
	waiting atomic.Bool // ch is non-nil: some waiter holds it
	mu      sync.Mutex
	ch      chan struct{} // closed by the next Announce
}

// Announce wakes every waiter. With no waiter it takes no lock and
// allocates nothing.
func (p *Progress) Announce() {
	if !p.waiting.Load() {
		return
	}
	p.mu.Lock()
	if p.ch != nil {
		close(p.ch)
		p.ch = nil
	}
	p.waiting.Store(false)
	p.mu.Unlock()
}

// next returns the channel the next Announce closes. A waiter takes it
// before it checks its condition: a change made after the check is
// announced after it, and that announcement sees waiting set and closes
// the channel, so no wake-up is lost between the check and the block.
func (p *Progress) next() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch == nil {
		p.ch = make(chan struct{})
		p.waiting.Store(true)
	}
	return p.ch
}

// Await blocks until cond holds, the timeout elapses, or ctx ends, and
// reports whether cond held. It checks cond once at the start and once
// after each announcement, and nowhere else: a change that is not
// announced stalls the wait until its timeout, which then reports false.
func (p *Progress) Await(ctx context.Context, cond func() bool, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		next := p.next()
		if cond() {
			return true
		}
		select {
		case <-next:
		case <-timer.C:
			return false
		case <-ctx.Done():
			return false
		}
	}
}
