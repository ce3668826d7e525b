package gputrid

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputrid/internal/workload"
)

// settlePool waits for the process to return to its goroutine
// baseline, dumping stacks on a leak.
func settlePool(t *testing.T, base int) {
	t.Helper()
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

// TestPoolHammer drives a small pool from 64 goroutines with a mix of
// unbounded, generous, hopeless and cancelled requests across two
// shapes. Every successful solve must be bitwise identical to the
// serial reference; every failure must be one of the typed admission
// errors; and after a graceful Close, no goroutine may survive.
func TestPoolHammer(t *testing.T) {
	base := runtime.NumGoroutine()

	shapes := [][2]int{{8, 96}, {4, 160}}
	refs := make([][]float64, len(shapes))
	batches := make([]*Batch[float64], len(shapes))
	for i, mn := range shapes {
		batches[i] = workload.Batch[float64](workload.DiagDominant, mn[0], mn[1], uint64(31+i))
		res, err := SolveBatch(batches[i])
		if err != nil {
			t.Fatalf("reference %v: %v", mn, err)
		}
		refs[i] = res.X
	}

	p := NewPool[float64](PoolConfig{Capacity: 2, QueueLimit: 64})
	var served, rejected, cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) * 977))
			for i := 0; i < 12; i++ {
				si := r.Intn(len(shapes))
				ctx := context.Background()
				var cancel context.CancelFunc
				switch r.Intn(4) {
				case 1: // generous deadline: must not be rejected early
					ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
				case 2: // hopeless deadline: rejected early or cancelled
					ctx, cancel = context.WithTimeout(ctx, 30*time.Microsecond)
				case 3: // cancelled shortly after enqueue
					ctx, cancel = context.WithCancel(ctx)
					delay := time.Duration(r.Intn(300)) * time.Microsecond
					go func(c context.CancelFunc) {
						time.Sleep(delay)
						c()
					}(cancel)
				}
				res, err := p.Solve(ctx, batches[si])
				if cancel != nil {
					defer cancel()
				}
				if err != nil {
					switch {
					case errors.Is(err, ErrOverloaded):
						rejected.Add(1)
					case errors.Is(err, ErrCancelled):
						cancelled.Add(1)
					default:
						t.Errorf("untyped pool error: %v", err)
						return
					}
					continue
				}
				served.Add(1)
				if res.Route != RouteDevice {
					t.Errorf("route = %v, want device (no faults injected)", res.Route)
					return
				}
				for j, v := range res.X {
					if v != refs[si][j] {
						t.Errorf("shape %v: x[%d] = %v, serial reference %v", shapes[si], j, v, refs[si][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if served.Load() == 0 {
		t.Fatal("hammer served nothing")
	}
	t.Logf("hammer: served %d, overloaded %d, cancelled %d", served.Load(), rejected.Load(), cancelled.Load())

	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if s := p.Stats(); s.InFlight != 0 || s.QueueDepth != 0 {
		t.Fatalf("pool did not settle: %+v", s)
	}
	settlePool(t, base)
}

// TestPoolBreakerTripAndRecover is the end-to-end breaker round trip
// on real solvers: a sustained injected-fault burst trips the breaker,
// tripped traffic is served correctly by the CPU pivoting fallback,
// and once the faults heal (the injector's gate disarms), half-open
// probes close the breaker and traffic returns to the device path.
func TestPoolBreakerTripAndRecover(t *testing.T) {
	base := runtime.NumGoroutine()
	const m, n = 4, 192
	b := workload.Batch[float64](workload.DiagDominant, m, n, 77)
	deviceRef, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	cpuRef, err := SolveCPUPivoting(b)
	if err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	inj := &FaultInjector{
		Seed: 5, Rate: 0.9, Repeat: 1,
		Kinds: []DeviceFaultKind{FaultAbort},
		Gate:  armed.Load,
	}
	p := NewPool[float64](PoolConfig{
		Capacity: 1,
		Breaker: BreakerPolicy{
			Window: 8, TripRatio: 0.5, MinSamples: 4,
			Cooldown: 20 * time.Millisecond, ProbeSuccesses: 2,
		},
		SolverOptions: []Option{
			WithFaultInjection(inj),
			WithRetry(RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}),
		},
	})
	ctx := context.Background()

	// Healthy: device route, bitwise identical to the serial solve.
	res, err := p.Solve(ctx, b)
	if err != nil {
		t.Fatalf("healthy solve: %v", err)
	}
	if res.Route != RouteDevice {
		t.Fatalf("healthy route = %v", res.Route)
	}
	for i, v := range res.X {
		if v != deviceRef.X[i] {
			t.Fatalf("healthy x[%d] = %v, want %v", i, v, deviceRef.X[i])
		}
	}

	// Sustained fault burst: recovered solves stay correct, the
	// breaker sees the degradation and trips to the fallback.
	armed.Store(true)
	tripped := false
	for i := 0; i < 64 && !tripped; i++ {
		res, err := p.Solve(ctx, b)
		if err != nil {
			t.Fatalf("faulted solve %d: %v", i, err)
		}
		tripped = res.Route == RouteFallback
	}
	if !tripped {
		t.Fatalf("breaker never tripped under sustained faults: %+v", p.Breaker())
	}
	if st := p.Breaker(); st.Trips == 0 {
		t.Fatalf("breaker snapshot after trip: %+v", st)
	}
	// Open-breaker traffic: served by the pivoting CPU path, exactly.
	// Half-open probes (device route) may interleave once the cooldown
	// elapses — and re-trip, faults still being armed — so scan for a
	// fallback-served solve instead of assuming the next one is.
	sawFallback := false
	for i := 0; i < 16 && !sawFallback; i++ {
		res, err = p.Solve(ctx, b)
		if err != nil {
			t.Fatalf("open-breaker solve %d: %v", i, err)
		}
		if res.Route != RouteFallback {
			continue // a half-open probe; bitwise identity checked above
		}
		sawFallback = true
		for j, v := range res.X {
			if v != cpuRef[j] {
				t.Fatalf("fallback x[%d] = %v, want pivoting reference %v", j, v, cpuRef[j])
			}
		}
	}
	if !sawFallback {
		t.Fatalf("no fallback-served solve observed while the breaker was open: %+v", p.Breaker())
	}

	// Heal: probes must close the breaker and restore the device path.
	armed.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := p.Solve(ctx, b)
		if err != nil {
			t.Fatalf("recovery solve: %v", err)
		}
		if res.Route == RouteDevice && p.Breaker().State == BreakerClosed {
			for i, v := range res.X {
				if v != deviceRef.X[i] {
					t.Fatalf("recovered x[%d] = %v, want %v", i, v, deviceRef.X[i])
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker did not recover: %+v", p.Breaker())
		}
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.ProbeSolves == 0 || st.FallbackSolves == 0 {
		t.Fatalf("stats after round trip: %+v", st)
	}

	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	settlePool(t, base)
}

// TestPoolCloseCancelsInFlight: a drain whose context expires while a
// solve is parked in fault-retry backoff force-cancels it through the
// lease context; the caller sees the typed cancellation and the pool
// still settles every goroutine.
func TestPoolCloseCancelsInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	const m, n = 8, 64
	b := workload.Batch[float64](workload.DiagDominant, m, n, 9)
	p := NewPool[float64](PoolConfig{
		Capacity: 1,
		SolverOptions: []Option{
			// A never-healing fault with an hour of backoff parks the
			// solve until force-cancelled.
			WithFaultInjection(&FaultInjector{
				Repeat:   1 << 30,
				Schedule: []ScheduledFault{{Kernel: "", Block: -1, Kind: FaultAbort}},
			}),
			WithRetry(RetryPolicy{MaxRetries: 1 << 20, BaseBackoff: time.Hour, MaxBackoff: time.Hour}),
		},
	})

	solveErr := make(chan error, 1)
	go func() {
		_, err := p.Solve(context.Background(), b)
		solveErr <- err
	}()
	// Wait until the solve is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced close: %v, want error wrapping the drain deadline", err)
	}
	if err := <-solveErr; !errors.Is(err, ErrCancelled) {
		t.Fatalf("force-cancelled solve returned %v, want ErrCancelled", err)
	}
	if _, err := p.Solve(context.Background(), b); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close solve: %v, want ErrPoolClosed", err)
	}
	settlePool(t, base)
}
