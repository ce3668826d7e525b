package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// trackingFactory records every solver instance it builds and closes,
// so the hammer below can prove lifecycle exactness: each built solver
// closed exactly once, none leaked, none double-torn-down.
type trackingFactory struct {
	mu     sync.Mutex
	nextID int
	built  map[int]bool // id -> still open
	double int
}

func newTrackingFactory() *trackingFactory {
	return &trackingFactory{built: make(map[int]bool)}
}

func (f *trackingFactory) build(m, n int, _ bool) (*fakeSolver, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	f.built[f.nextID] = true
	return &fakeSolver{m: m, n: n, id: f.nextID}, nil
}

func (f *trackingFactory) close(s *fakeSolver) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.built[s.id] {
		f.double++
		return nil
	}
	f.built[s.id] = false
	return nil
}

// audit returns (open, doubleClosed): solvers built but never closed,
// and close calls on already-closed solvers.
func (f *trackingFactory) audit() (open, double int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, isOpen := range f.built {
		if isOpen {
			open++
		}
	}
	return open, f.double
}

// TestCloseRacingEvictions is the cordon-mid-checkout hammer: many
// goroutines churn leases across more shapes than MaxShapes allows, so
// LRU station evictions — the same teardown path a fleet cordon drives
// — constantly race checkouts, while Close fires mid-traffic. After
// everything settles, every solver ever built must have been closed
// exactly once (no leaked leases, no double teardown), and no
// goroutine may survive.
func TestCloseRacingEvictions(t *testing.T) {
	base := runtime.NumGoroutine()
	f := newTrackingFactory()
	p := New(Config{Capacity: 2, QueueLimit: 4, MaxShapes: 3}, f.build, f.close, nil)

	shapes := [][2]int{{1, 32}, {2, 32}, {3, 32}, {4, 32}, {5, 32}, {6, 32}}
	const workers = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				mn := shapes[(g*7+i)%len(shapes)]
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				l, err := p.Acquire(ctx, mn[0], mn[1])
				cancel()
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return // pool shut down beneath us: expected
					}
					if errors.Is(err, ErrOverloaded) || errors.Is(err, context.DeadlineExceeded) {
						continue
					}
					t.Errorf("acquire %v: unexpected error %v", mn, err)
					return
				}
				if i%3 == 0 {
					runtime.Gosched() // hold the lease across a scheduling point
				}
				l.Release(time.Microsecond)
			}
		}(g)
	}
	close(start)

	// Let the hammer run, then close mid-traffic with a generous drain
	// budget: the drain must win against in-flight churn without
	// leaking or double-closing anything.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	open, double := f.audit()
	if open != 0 {
		t.Errorf("%d solver(s) built but never closed (leaked lease or lost eviction)", open)
	}
	if double != 0 {
		t.Errorf("%d double-teardown(s): a solver was closed twice", double)
	}
	if s := p.Stats(); s.InFlight != 0 || s.QueueDepth != 0 {
		t.Errorf("pool did not settle: %+v", s)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPerShapeStats checks the per-shape congestion snapshot: built,
// leased and queued counts per station, sorted by shape, with the
// service-time estimate exposed once observed.
func TestPerShapeStats(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 1, QueueLimit: 4}, f, 0)
	ctx := context.Background()

	// Station (2, 64): one leased solver and one queued waiter.
	l, err := p.Acquire(ctx, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		l2, err := p.Acquire(ctx, 2, 64)
		if err == nil {
			l2.Release(0)
		}
		close(queued)
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })

	// Station (4, 32): idle with an observed service time.
	l3, err := p.Acquire(ctx, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	l3.Release(3 * time.Millisecond)

	s := p.Stats()
	if len(s.PerShape) != 2 {
		t.Fatalf("PerShape has %d entries, want 2: %+v", len(s.PerShape), s.PerShape)
	}
	small, big := s.PerShape[0], s.PerShape[1]
	if small.M != 2 || big.M != 4 {
		t.Fatalf("PerShape not sorted by shape: %+v", s.PerShape)
	}
	if small.Built != 1 || small.Leased != 1 || small.QueueDepth != 1 {
		t.Errorf("busy shape stats = %+v, want built/leased/queued 1/1/1", small)
	}
	if big.Leased != 0 || big.QueueDepth != 0 {
		t.Errorf("idle shape stats = %+v, want nothing leased or queued", big)
	}
	if big.ServiceTime != 3*time.Millisecond {
		t.Errorf("idle shape ServiceTime = %v, want the observed 3ms", big.ServiceTime)
	}

	l.Release(0)
	<-queued
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
