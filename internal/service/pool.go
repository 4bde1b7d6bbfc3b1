package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilient"
)

// ErrSaturated reports that the pool's queue had no free slot within the
// admission wait: the caller should shed the request (503 + Retry-After)
// rather than pile up blocked goroutines.
var ErrSaturated = errors.New("service: pool saturated")

// Pool is the extraction admission gate: it puts a hard ceiling on
// extraction concurrency no matter how many HTTP requests arrive at once,
// and gives short bursts a bounded queue to wait in instead of failing.
// Extraction is CPU-bound, so the right bound is near GOMAXPROCS.
//
// The pool owns no goroutines. An admitted caller runs its task inline,
// on its own goroutine — an HTTP handler, or a pipeline worker started
// by one — so the task keeps the caller's pprof labels and costs no
// hand-off. Two buffered channels serve as semaphores: admit holds one
// token per admitted caller (workers+queue slots), run one per running
// caller (workers slots). Run tokens are taken after admit tokens and
// returned before them, so every runner is also admitted.
//
// A task that panics is quarantined: the caller gets the
// *resilient.PanicError and the pool's slots are released.
type Pool struct {
	admit chan struct{}
	run   chan struct{}

	// OnPanic, when non-nil, observes every recovered task panic (set
	// before the first submission).
	OnPanic func(pe *resilient.PanicError)

	// inFlight counts tasks currently executing — together with
	// QueueDepth this is the pool's saturation picture in /metrics.
	inFlight atomic.Int64

	// mu orders admission against Close: a caller registers on wg under
	// the read lock, so once Close has set closed under the write lock no
	// new caller can slip in behind its Wait.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewPool builds a pool that runs at most `workers` tasks at once and
// lets at most `queue` more wait for a turn (0: a caller waits for a
// free worker at admission). It starts no goroutines.
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Pool{
		admit: make(chan struct{}, workers+queue),
		run:   make(chan struct{}, workers),
	}
}

// Workers reports the pool's worker count — the natural concurrency for
// callers (like the ingestion pipeline) that feed the pool and should
// not queue far past it.
func (p *Pool) Workers() int { return cap(p.run) }

// QueueDepth reports the admitted tasks beyond the worker count: those
// waiting for a turn while every worker is busy.
func (p *Pool) QueueDepth() int { return max(0, len(p.admit)-cap(p.run)) }

// QueueCapacity reports the queue's slot count.
func (p *Pool) QueueCapacity() int { return cap(p.admit) - cap(p.run) }

// InFlight reports the tasks currently executing.
func (p *Pool) InFlight() int64 { return p.inFlight.Load() }

// DoWait runs fn on the calling goroutine once the pool admits it, and
// returns when fn has finished. Admission waits up to maxWait for a slot,
// then sheds with ErrSaturated: maxWait < 0 waits indefinitely, 0 never
// waits. fn does not run when ctx is done before admission, or when the
// pool is closed. Once admitted, the task waits for a free worker and
// always runs. A panic in fn surfaces as a *resilient.PanicError.
func (p *Pool) DoWait(ctx context.Context, maxWait time.Duration, fn func()) (err error) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return fmt.Errorf("service: pool closed")
	}
	p.wg.Add(1)
	p.mu.RUnlock()
	defer p.wg.Done()

	// Fast path first: the happy case costs one channel op and no timer.
	select {
	case p.admit <- struct{}{}:
	default:
		if err := p.admitSlow(ctx, maxWait); err != nil {
			return err
		}
	}
	p.run <- struct{}{}
	p.inFlight.Add(1)
	defer func() {
		p.inFlight.Add(-1)
		<-p.run
		<-p.admit
		if v := recover(); v != nil {
			pe := &resilient.PanicError{Val: v, Stack: debug.Stack()}
			if p.OnPanic != nil {
				p.OnPanic(pe)
			}
			err = pe
		}
	}()
	fn()
	return nil
}

// admitSlow blocks for an admission slot until it frees, ctx ends, or
// (when maxWait > 0) the admission deadline passes.
func (p *Pool) admitSlow(ctx context.Context, maxWait time.Duration) error {
	if maxWait == 0 {
		return ErrSaturated
	}
	var deadline <-chan time.Time
	if maxWait > 0 {
		timer := time.NewTimer(maxWait)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case p.admit <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-deadline:
		return ErrSaturated
	}
}

// Close stops admitting tasks and waits until every caller that entered
// before it has returned — including one still waiting for admission,
// which is admitted as running tasks drain. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}
