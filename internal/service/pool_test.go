package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilient"
)

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.DoWait(context.Background(), -1, func() { n.Add(1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers, 0)
	defer p.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.DoWait(context.Background(), -1, func() {
				c := cur.Add(1)
				for {
					pk := peak.Load()
					if c <= pk || peak.CompareAndSwap(pk, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestPoolContextCancel(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_ = p.DoWait(context.Background(), -1, func() { close(started); <-block })
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The single worker is occupied and the queue is unbuffered, so this
	// submit must fail with the context error instead of running.
	if err := p.DoWait(ctx, -1, func() { t.Error("cancelled task ran") }); err == nil {
		t.Fatal("expected context error")
	}
	close(block)
}

func TestPoolCloseRejectsAndDrains(t *testing.T) {
	p := NewPool(2, 4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.DoWait(context.Background(), -1, func() { n.Add(1) })
		}()
	}
	wg.Wait()
	p.Close()
	if n.Load() != 10 {
		t.Fatalf("drained %d tasks, want 10", n.Load())
	}
	if err := p.DoWait(context.Background(), -1, func() {}); err == nil {
		t.Fatal("DoWait after Close should fail")
	}
	p.Close() // idempotent
}

// saturatePool occupies every worker and queue slot of a 1-worker,
// 1-slot pool; the returned release unblocks it.
func saturatePool(t *testing.T) (*Pool, func()) {
	t.Helper()
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	go func() { _ = p.DoWait(context.Background(), -1, func() { close(started); <-block }) }()
	<-started
	// Fill the single queue slot.
	queued := make(chan struct{})
	go func() { _ = p.DoWait(context.Background(), -1, func() { close(queued) }) }()
	for p.QueueDepth() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	release := func() { close(block); <-queued; p.Close() }
	return p, release
}

func TestPoolTryDoShedsWhenSaturated(t *testing.T) {
	p, release := saturatePool(t)
	defer release()
	if err := p.DoWait(context.Background(), 0, func() { t.Error("shed task ran") }); !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoWait(0) on saturated pool = %v, want ErrSaturated", err)
	}
}

func TestPoolDoWaitShedsAfterDeadline(t *testing.T) {
	p, release := saturatePool(t)
	defer release()
	start := time.Now()
	err := p.DoWait(context.Background(), 10*time.Millisecond, func() { t.Error("shed task ran") })
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("DoWait = %v, want ErrSaturated", err)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("DoWait returned after %v, want >= 10ms of bounded waiting", waited)
	}
}

func TestPoolDoWaitAdmitsWhenSlotFrees(t *testing.T) {
	p, release := saturatePool(t)
	go func() { time.Sleep(5 * time.Millisecond); release() }()
	ran := make(chan struct{})
	if err := p.DoWait(context.Background(), time.Second, func() { close(ran) }); err != nil {
		t.Fatalf("DoWait = %v, want admission once the pool drained", err)
	}
	<-ran
}

func TestPoolRecoversTaskPanic(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	var hooked atomic.Int64
	p.OnPanic = func(pe *resilient.PanicError) { hooked.Add(1) }

	err := p.DoWait(context.Background(), -1, func() { panic("rule exploded") })
	var pe *resilient.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("DoWait = %v, want *resilient.PanicError", err)
	}
	if !strings.Contains(pe.Error(), "rule exploded") || len(pe.Stack) == 0 {
		t.Fatalf("panic error %q (stack %d bytes), want message and stack", pe.Error(), len(pe.Stack))
	}
	if hooked.Load() != 1 {
		t.Fatalf("OnPanic fired %d times, want 1", hooked.Load())
	}
	// The worker survived: the next task runs normally.
	if err := p.DoWait(context.Background(), -1, func() {}); err != nil {
		t.Fatalf("task after panic = %v, want success", err)
	}
}

// goroutineID parses the running goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestNewPoolStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	pools := make([]*Pool, 8)
	for i := range pools {
		pools[i] = NewPool(16, 64)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NewPool started %d goroutines, want 0", after-before)
	}
	caller := goroutineID()
	var ran string
	if err := pools[0].DoWait(context.Background(), -1, func() { ran = goroutineID() }); err != nil {
		t.Fatal(err)
	}
	if ran != caller {
		t.Fatalf("task ran on goroutine %s, want the caller's %s", ran, caller)
	}
	for _, p := range pools {
		p.Close()
	}
}

// TestPoolGateHammer drives many concurrent callers through a small gate:
// sampled from outside, the gate never runs more than Workers tasks nor
// reports more than QueueCapacity waiting; and with every slot held, each
// non-waiting caller beyond Workers+QueueCapacity is shed.
func TestPoolGateHammer(t *testing.T) {
	const workers, queue, callers = 3, 5, 200
	p := NewPool(workers, queue)
	defer p.Close()

	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var err error
		for samples := 0; ; samples++ {
			select {
			case <-stop:
				if samples == 0 {
					err = errors.New("sampler took no samples")
				}
				sampled <- err
				return
			default:
			}
			if in := p.InFlight(); in > workers && err == nil {
				err = fmt.Errorf("InFlight = %d > %d workers", in, workers)
			}
			if d := p.QueueDepth(); d > p.QueueCapacity() && err == nil {
				err = fmt.Errorf("QueueDepth = %d > capacity %d", d, p.QueueCapacity())
			}
			runtime.Gosched()
		}
	}()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.DoWait(context.Background(), -1, func() {
				ran.Add(1)
				time.Sleep(50 * time.Microsecond)
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	if ran.Load() != callers {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), callers)
	}

	// Non-waiting admission: no task finishes until release, so exactly
	// the first Workers+QueueCapacity callers are admitted and every
	// other one sheds.
	const extra = 40
	release := make(chan struct{})
	// A failed check must not leave admitted callers blocked: the
	// deferred Close would wait for them forever.
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	results := make(chan error, workers+queue+extra)
	for i := 0; i < workers+queue+extra; i++ {
		go func() { results <- p.DoWait(context.Background(), 0, func() { <-release }) }()
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < extra; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrSaturated) {
				t.Fatalf("caller beyond capacity got %v, want ErrSaturated", err)
			}
		case <-timeout:
			t.Fatalf("only %d of %d excess callers shed", i, extra)
		}
	}
	for p.InFlight() < workers {
		time.Sleep(100 * time.Microsecond)
	}
	if d := p.QueueDepth(); d != queue {
		t.Fatalf("QueueDepth = %d with every slot held, want %d", d, queue)
	}
	unblock()
	for i := 0; i < workers+queue; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted caller got %v, want success", err)
		}
	}
}
