package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputrid/internal/clock"
	"gputrid/internal/core"
)

// fakeSolver stands in for a warmed solver instance.
type fakeSolver struct {
	m, n int
	id   int
}

type fakeFactory struct {
	mu     sync.Mutex
	built  int
	closed int
}

func (f *fakeFactory) build(m, n int, _ bool) (*fakeSolver, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.built++
	return &fakeSolver{m: m, n: n, id: f.built}, nil
}

func (f *fakeFactory) close(*fakeSolver) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed++
	return nil
}

func (f *fakeFactory) counts() (built, closed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.built, f.closed
}

func newTestPool(cfg Config, f *fakeFactory, modeled time.Duration) *Pool[*fakeSolver] {
	return New(cfg, f.build, f.close, func(*fakeSolver) time.Duration { return modeled })
}

// TestAdmissionOverload is the deterministic overload scenario of the
// acceptance criteria: with capacity 2 and a queue of 3, an offered
// load of 8 concurrent requests (4x capacity) admits 2, queues 3, and
// fail-fasts the remaining 5 with a typed ErrOverloaded carrying the
// queue-depth snapshot.
func TestAdmissionOverload(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 2, QueueLimit: 3}, f, 0)
	ctx := context.Background()

	// Admit capacity.
	l1, err := p.Acquire(ctx, 4, 32)
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	l2, err := p.Acquire(ctx, 4, 32)
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}

	// Fill the queue with 3 blocked requests.
	type got struct {
		l   *Lease[*fakeSolver]
		err error
	}
	queued := make(chan got, 3)
	for i := 0; i < 3; i++ {
		go func() {
			l, err := p.Acquire(ctx, 4, 32)
			queued <- got{l, err}
		}()
	}
	waitFor(t, func() bool { return p.Stats().QueueDepth == 3 })

	// The rest of the 4x offered load must fail fast, typed, with the
	// congestion snapshot.
	for i := 0; i < 3; i++ {
		_, err := p.Acquire(ctx, 4, 32)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overflow request %d: got %v, want ErrOverloaded", i, err)
		}
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("overflow request %d: error is not *OverloadError: %v", i, err)
		}
		if oe.Reason != QueueFull || oe.QueueDepth != 3 || oe.QueueLimit != 3 || oe.Capacity != 2 {
			t.Fatalf("overflow snapshot: %+v", oe)
		}
	}
	if s := p.Stats(); s.RejectedQueueFull != 3 || s.Admitted != 2 {
		t.Fatalf("stats after overload: %+v", s)
	}

	// Releasing the held leases serves every queued request.
	l1.Release(0)
	l2.Release(0)
	served := 0
	for served < 3 {
		g := <-queued
		if g.err != nil {
			t.Fatalf("queued request failed: %v", g.err)
		}
		g.l.Release(0)
		served++
	}
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	built, closed := f.counts()
	if built != 2 || closed != 2 {
		t.Fatalf("solver lifecycle: built %d closed %d", built, closed)
	}
}

// TestDeadlineInfeasible checks the EWMA-driven early rejection: a
// queued request whose deadline cannot be met given the modeled
// service time is rejected immediately instead of timing out in the
// queue.
func TestDeadlineInfeasible(t *testing.T) {
	f := &fakeFactory{}
	const svc = 50 * time.Millisecond
	p := newTestPool(Config{Capacity: 1, QueueLimit: 4}, f, svc)
	defer p.Close(context.Background())

	l, err := p.Acquire(context.Background(), 2, 16)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = p.Acquire(ctx, 2, 16)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != DeadlineInfeasible {
		t.Fatalf("got %v, want DeadlineInfeasible OverloadError", err)
	}
	if oe.EstWait != svc {
		t.Fatalf("EstWait = %v, want the seeded %v", oe.EstWait, svc)
	}
	if s := p.Stats(); s.RejectedDeadline != 1 {
		t.Fatalf("RejectedDeadline = %d, want 1", s.RejectedDeadline)
	}

	// A generous deadline queues instead.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		l2, err := p.Acquire(ctx2, 2, 16)
		if err == nil {
			l2.Release(0)
		}
		done <- err
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })
	l.Release(0)
	if err := <-done; err != nil {
		t.Fatalf("feasible-deadline request failed: %v", err)
	}
}

// TestQueueFullEstWait: once a shape has a service-time estimate, a
// queue-full rejection carries the wait behind the queue ahead of it
// (svc × (depth+1)), which the HTTP front end turns into Retry-After.
func TestQueueFullEstWait(t *testing.T) {
	f := &fakeFactory{}
	const svc = 20 * time.Millisecond
	p := newTestPool(Config{Capacity: 1, QueueLimit: 1}, f, svc)
	defer p.Close(context.Background())

	l, err := p.Acquire(context.Background(), 2, 16)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		l2, err := p.Acquire(context.Background(), 2, 16)
		if err == nil {
			l2.Release(0)
		}
		done <- err
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })

	_, err = p.Acquire(context.Background(), 2, 16)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != QueueFull {
		t.Fatalf("got %v, want QueueFull OverloadError", err)
	}
	if oe.EstWait <= 0 || oe.EstWait != 2*svc {
		t.Fatalf("EstWait = %v, want %v (svc × (depth+1))", oe.EstWait, 2*svc)
	}
	l.Release(0)
	if err := <-done; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}

// TestAdmissionCancelledWhileQueued: a context that ends while queued
// yields an error matching core.ErrCancelled and the context error.
func TestAdmissionCancelledWhileQueued(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 1, QueueLimit: 4}, f, 0)
	defer p.Close(context.Background())

	l, err := p.Acquire(context.Background(), 2, 16)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer l.Release(0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx, 2, 16)
		done <- err
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })
	cancel()
	err = <-done
	if !errors.Is(err, core.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCancelled matching context.Canceled", err)
	}
}

// TestBreakerStateMachine drives trip, half-open probing, re-trip and
// recovery with a fake clock — fully deterministic.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	pol := BreakerPolicy{
		Window: 4, TripRatio: 0.5, MinSamples: 2,
		Cooldown: 100 * time.Millisecond, ProbeSuccesses: 2,
	}
	b := newBreaker(pol, clock)

	// Healthy traffic keeps it closed.
	for i := 0; i < 6; i++ {
		if dev, probe := b.route(); !dev || probe {
			t.Fatalf("closed breaker must route to device")
		}
		b.record(false, false)
	}
	if s := b.snapshot(); s.State != BreakerClosed {
		t.Fatalf("state = %v, want closed", s.State)
	}

	// Two degraded solves: window fill 4 is stale-free after reset? No:
	// the window holds the last 4; two degraded out of the last 4 hits
	// the 50% trip ratio with MinSamples met.
	b.record(false, true)
	b.record(false, true)
	if s := b.snapshot(); s.State != BreakerOpen || s.Trips != 1 {
		t.Fatalf("after sustained degradation: %+v, want open after 1 trip", s)
	}

	// Open: everything falls back until the cooldown elapses.
	if dev, _ := b.route(); dev {
		t.Fatalf("open breaker must route to fallback")
	}
	now = now.Add(50 * time.Millisecond)
	if dev, _ := b.route(); dev {
		t.Fatalf("open breaker must stay on fallback inside the cooldown")
	}

	// Cooldown over: exactly one probe goes through at a time.
	now = now.Add(60 * time.Millisecond)
	dev, probe := b.route()
	if !dev || !probe {
		t.Fatalf("after cooldown, want a device probe; got device=%v probe=%v", dev, probe)
	}
	if dev, _ := b.route(); dev {
		t.Fatalf("second concurrent request during probe must fall back")
	}

	// Failed probe re-opens and restarts the cooldown.
	b.record(true, true)
	if s := b.snapshot(); s.State != BreakerOpen || s.Trips != 2 {
		t.Fatalf("failed probe: %+v, want re-opened", s)
	}

	// Recovery: cooldown, then ProbeSuccesses clean probes close it.
	now = now.Add(200 * time.Millisecond)
	for i := 0; i < 2; i++ {
		dev, probe := b.route()
		if !dev || !probe {
			t.Fatalf("recovery probe %d not granted (device=%v probe=%v)", i, dev, probe)
		}
		b.record(true, false)
	}
	if s := b.snapshot(); s.State != BreakerClosed {
		t.Fatalf("after clean probes: %+v, want closed", s)
	}
	// The window restarted: old degradation must not instantly re-trip.
	b.record(false, false)
	if s := b.snapshot(); s.State != BreakerClosed || s.WindowFill != 1 {
		t.Fatalf("window not reset after recovery: %+v", s)
	}
}

// TestBreakerAbandonedProbe: a cancelled probe neither closes nor
// re-opens the breaker, and frees the probe slot.
func TestBreakerAbandonedProbe(t *testing.T) {
	now := time.Unix(0, 0)
	pol := BreakerPolicy{
		Window: 4, MinSamples: 2, Cooldown: time.Millisecond,
		ProbeSuccesses: 1,
	}
	b := newBreaker(pol, func() time.Time { return now })
	b.record(false, true)
	b.record(false, true)
	now = now.Add(2 * time.Millisecond)
	if dev, probe := b.route(); !dev || !probe {
		t.Fatalf("want probe; got device=%v probe=%v", dev, probe)
	}
	b.abandon(true)
	if s := b.snapshot(); s.State != BreakerHalfOpen {
		t.Fatalf("abandoned probe changed state: %+v", s)
	}
	if dev, probe := b.route(); !dev || !probe {
		t.Fatalf("probe slot not freed after abandon")
	}
	b.record(true, false)
	if s := b.snapshot(); s.State != BreakerClosed {
		t.Fatalf("recovery after abandon: %+v", s)
	}
}

// TestCloseForcesCancel: Close with an expiring context cancels the
// in-flight lease's context, the drain completes, and the pool reports
// the forced cancellation.
func TestCloseForcesCancel(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 1}, f, 0)
	l, err := p.Acquire(context.Background(), 2, 16)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	released := make(chan struct{})
	go func() {
		// The "solve": runs until the lease context is force-cancelled.
		<-l.Ctx.Done()
		l.Release(0)
		close(released)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = p.Close(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced close: got %v, want error wrapping deadline", err)
	}
	<-released
	if _, err := p.Acquire(context.Background(), 2, 16); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
	built, closed := f.counts()
	if built != closed || built == 0 {
		t.Fatalf("teardown lifecycle: built %d closed %d", built, closed)
	}
}

// TestCloseRejectsQueued: queued requests fail with ErrClosed the
// moment a drain starts.
func TestCloseRejectsQueued(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 1, QueueLimit: 2}, f, 0)
	l, err := p.Acquire(context.Background(), 2, 16)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Acquire(context.Background(), 2, 16)
		done <- err
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })

	closeDone := make(chan error, 1)
	go func() { closeDone <- p.Close(context.Background()) }()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued request during drain: %v, want ErrClosed", err)
	}
	l.Release(0)
	if err := <-closeDone; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestShapeEviction: exceeding MaxShapes evicts the least-recently
// used idle shape and closes its solvers.
func TestShapeEviction(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 1, MaxShapes: 2}, f, 0)
	defer p.Close(context.Background())

	for i, shape := range []Key{{2, 8}, {2, 16}, {2, 32}} {
		l, err := p.Acquire(context.Background(), shape.M, shape.N)
		if err != nil {
			t.Fatalf("acquire shape %d: %v", i, err)
		}
		l.Release(0)
	}
	if s := p.Stats(); s.Shapes != 2 {
		t.Fatalf("shapes = %d, want 2 after eviction", s.Shapes)
	}
	_, closed := f.counts()
	if closed != 1 {
		t.Fatalf("closed = %d, want the evicted shape's solver closed", closed)
	}
	// The evicted shape is rebuilt transparently on demand.
	l, err := p.Acquire(context.Background(), 2, 8)
	if err != nil {
		t.Fatalf("reacquire evicted shape: %v", err)
	}
	l.Release(0)
}

// TestIdleEvictionVirtualClock pins LRU eviction to injected time: the
// lastUse stamps come from Config.Clock, so which shape is evicted is a
// pure function of the virtual schedule, replaying identically on
// every run — the property the scenario runner relies on when it hands
// every pool the fleet's virtual clock.
func TestIdleEvictionVirtualClock(t *testing.T) {
	shapeSet := func(p *Pool[*fakeSolver]) map[Key]bool {
		set := make(map[Key]bool)
		for _, s := range p.Stats().PerShape {
			set[Key{s.M, s.N}] = true
		}
		return set
	}
	touch := func(t *testing.T, p *Pool[*fakeSolver], k Key) {
		t.Helper()
		l, err := p.Acquire(context.Background(), k.M, k.N)
		if err != nil {
			t.Fatalf("acquire %v: %v", k, err)
		}
		l.Release(0)
	}

	a, b, c := Key{2, 8}, Key{2, 16}, Key{2, 32}
	for run := 0; run < 3; run++ {
		vc := clock.NewVirtualClock(time.Unix(0, 0).UTC())
		f := &fakeFactory{}
		p := newTestPool(Config{Capacity: 1, MaxShapes: 2, Clock: vc}, f, 0)

		touch(t, p, a) // a @ t=0
		vc.Advance(time.Second)
		touch(t, p, b) // b @ t=1
		vc.Advance(time.Second)
		touch(t, p, a) // a refreshed @ t=2: b is now the LRU shape
		vc.Advance(time.Second)
		touch(t, p, c) // c @ t=3 overflows MaxShapes: b must go

		got := shapeSet(p)
		if len(got) != 2 || !got[a] || !got[c] || got[b] {
			t.Fatalf("run %d: warmed shapes after eviction = %v, want {%v %v}", run, got, a, c)
		}
		if _, closed := f.counts(); closed != 1 {
			t.Fatalf("run %d: closed = %d, want exactly the evicted shape's solver", run, closed)
		}
		if err := p.Close(context.Background()); err != nil {
			t.Fatalf("run %d: close: %v", run, err)
		}
	}
}

// TestEWMAObservation: observed service times replace the modeled seed
// and converge with the fixed smoothing.
func TestEWMAObservation(t *testing.T) {
	e := &ewma{}
	if _, ok := e.value(); ok {
		t.Fatal("empty ewma must report unknown")
	}
	e.seed(100 * time.Millisecond)
	if v, ok := e.value(); !ok || v != 100*time.Millisecond {
		t.Fatalf("seed: %v %v", v, ok)
	}
	e.seed(999 * time.Hour) // second seed must not override
	if v, _ := e.value(); v != 100*time.Millisecond {
		t.Fatalf("re-seed overwrote: %v", v)
	}
	e.observe(10 * time.Millisecond) // first observation replaces seed
	if v, _ := e.value(); v != 10*time.Millisecond {
		t.Fatalf("first observation: %v", v)
	}
	e.observe(20 * time.Millisecond) // 10 + 0.2*(20-10) = 12
	if v, _ := e.value(); v != 12*time.Millisecond {
		t.Fatalf("smoothing: %v, want 12ms", v)
	}
}

// TestConcurrentAcquireRelease hammers one station from many
// goroutines (race-detector food) and checks the pool settles.
func TestConcurrentAcquireRelease(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 3, QueueLimit: 64}, f, 0)
	var granted, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				l, err := p.Acquire(context.Background(), 4, 16)
				if err != nil {
					rejected.Add(1)
					continue
				}
				granted.Add(1)
				l.Release(time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if granted.Load() == 0 {
		t.Fatal("nothing granted")
	}
	built, closed := f.counts()
	if built != closed {
		t.Fatalf("lifecycle: built %d closed %d", built, closed)
	}
	if s := p.Stats(); s.InFlight != 0 || s.QueueDepth != 0 {
		t.Fatalf("pool did not settle: %+v", s)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
