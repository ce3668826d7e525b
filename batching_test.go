package gputrid

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputrid/internal/batcher"
	"gputrid/internal/clock"
	"gputrid/internal/workload"
)

// newCoalescer builds the production coalescing assembly, batcher.New
// over p.SolveMegabatch, closed when the test ends.
func newCoalescer(t *testing.T, p *Pool[float64], cfg batcher.Config[float64]) *batcher.Batcher[float64] {
	t.Helper()
	cfg.Solve = p.SolveMegabatch
	b, err := batcher.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// coalesce submits batch to b and returns its caller-owned solution
// in natural order.
func coalesce(ctx context.Context, b *batcher.Batcher[float64], batch *Batch[float64]) ([]float64, batcher.Result, error) {
	x := make([]float64, batch.M*batch.N)
	res, err := b.Solve(ctx, &batcher.Request[float64]{
		M: batch.M, N: batch.N,
		Lower: batch.Lower, Diag: batch.Diag, Upper: batch.Upper, RHS: batch.RHS,
		X: x,
	})
	return x, res, err
}

// batcherWaitUntil polls cond with a wall-clock timeout, sequencing
// tests against the batcher's flusher before advancing a virtual
// clock.
func batcherWaitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestBatcherBitwiseHammer races 64 goroutines of small mixed-size
// requests through the coalescing assembly over a Pool and requires
// every solution to be bitwise identical to the same batch solved
// alone on the per-request k = 0 path — the coalesced-equals-serial
// guarantee the batching tier is built on.
func TestBatcherBitwiseHammer(t *testing.T) {
	p := NewPool[float64](PoolConfig{Capacity: 2})
	defer p.Close(context.Background())
	b := newCoalescer(t, p, batcher.Config[float64]{MaxBatch: 16, MaxWait: 200 * time.Microsecond})

	const n, goroutines, iters = 32, 64, 6
	// The references solve one at a time, before the hammer starts.
	batches := make([][iters]*Batch[float64], goroutines)
	refs := make([][iters][]float64, goroutines)
	for g := range batches {
		for iter := range iters {
			m := 1 + (g+iter)%3
			batches[g][iter] = workload.Batch[float64](workload.DiagDominant, m, n, uint64(g*100+iter))
			ref, err := SolveBatch(batches[g][iter], WithK(0))
			if err != nil {
				t.Fatalf("g%d iter%d reference: %v", g, iter, err)
			}
			refs[g][iter] = ref.X
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				batch, ref := batches[g][iter], refs[g][iter]
				m := batch.M
				var x []float64
				var err error
				var res batcher.Result
				for {
					x, res, err = coalesce(context.Background(), b, batch)
					if !errors.Is(err, batcher.ErrSaturated) {
						break
					}
					time.Sleep(200 * time.Microsecond)
				}
				if err != nil {
					t.Errorf("g%d iter%d batched: %v", g, iter, err)
					return
				}
				if res.Systems != m || res.FlushSize < m {
					t.Errorf("g%d iter%d: implausible coalescing report %+v", g, iter, res)
					return
				}
				for i := range x {
					if x[i] != ref[i] {
						t.Errorf("g%d iter%d: coalesced result differs from serial at %d: %v vs %v",
							g, iter, i, x[i], ref[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := b.Stats()
	if st.AdmittedSystems == 0 || st.Flushes() == 0 {
		t.Fatalf("hammer produced no batching activity: %+v", st)
	}
	if st.MaxFlushSystems < 2 {
		t.Fatalf("MaxFlushSystems = %d: the hammer never actually coalesced", st.MaxFlushSystems)
	}
}

// TestBatcherFaultIsolation coalesces three requests into one flight:
// a healthy one, one whose system p-Thomas cannot solve but host
// pivoting can (rescued), and one truly singular (unsolvable). Each
// gets exactly its own verdict — the corrupt systems degrade or fail
// only the requests that submitted them.
func TestBatcherFaultIsolation(t *testing.T) {
	p := NewPool[float64](PoolConfig{})
	defer p.Close(context.Background())
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b := newCoalescer(t, p, batcher.Config[float64]{MaxBatch: 8, MaxWait: time.Hour, Clock: vc})

	const n = 2
	healthy := workload.Batch[float64](workload.DiagDominant, 1, n, 7)
	ref, err := SolveBatch(healthy, WithK(0))
	if err != nil {
		t.Fatal(err)
	}
	// Permutation matrix [[0,1],[1,0]]: nonsingular, but the
	// pivot-free p-Thomas divides by the zero diagonal — only the
	// host rescue can solve it. x = (rhs[1], rhs[0]).
	rescuable := &Batch[float64]{
		M: 1, N: n,
		Lower: []float64{0, 1}, Diag: []float64{0, 0},
		Upper: []float64{1, 0}, RHS: []float64{3, 5},
	}
	// The zero matrix: singular, beyond any rescue.
	unsolvable := &Batch[float64]{
		M: 1, N: n,
		Lower: make([]float64, n), Diag: make([]float64, n),
		Upper: make([]float64, n), RHS: []float64{1, 1},
	}

	var wg sync.WaitGroup
	type out struct {
		x   []float64
		res batcher.Result
		err error
	}
	outs := make([]out, 3)
	for i, batch := range []*Batch[float64]{healthy, rescuable, unsolvable} {
		wg.Add(1)
		go func(i int, batch *Batch[float64]) {
			defer wg.Done()
			o := &outs[i]
			o.x, o.res, o.err = coalesce(context.Background(), b, batch)
		}(i, batch)
	}
	batcherWaitUntil(t, "three requests parked", func() bool {
		return b.Stats().PendingSystems == 3
	})
	vc.Advance(time.Hour)
	wg.Wait()

	if outs[0].err != nil {
		t.Fatalf("healthy request failed alongside corrupt neighbors: %v", outs[0].err)
	}
	if outs[0].res.FlushSize != 3 {
		t.Fatalf("FlushSize = %d, want 3 (one coalesced flight)", outs[0].res.FlushSize)
	}
	for i := range outs[0].x {
		if outs[0].x[i] != ref.X[i] {
			t.Fatalf("healthy result corrupted at %d: %v vs %v", i, outs[0].x[i], ref.X[i])
		}
	}
	if outs[1].err != nil {
		t.Fatalf("rescuable request failed: %v", outs[1].err)
	}
	if outs[1].res.Rescued != 1 {
		t.Fatalf("rescuable request reports %d rescues, want 1", outs[1].res.Rescued)
	}
	if outs[1].x[0] != 5 || outs[1].x[1] != 3 {
		t.Fatalf("rescued solution = %v, want [5 3]", outs[1].x)
	}
	if outs[2].err == nil {
		t.Fatal("singular request succeeded")
	}
	if outs[0].res.Rescued != 0 {
		t.Fatalf("healthy request reports %d rescues", outs[0].res.Rescued)
	}
}

// TestSolverInterleavedSkipsTranspose is the public stats assertion
// behind the batching bench: the interleaved-native entry at k = 0
// solves natively, without the shim's layout conversion, and the
// contiguous API keeps working alongside without counting as an
// interleaved solve.
func TestSolverInterleavedSkipsTranspose(t *testing.T) {
	m, n := 16, 64
	s, err := NewSolver[float64](m, n, WithK(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := workload.Batch[float64](workload.DiagDominant, m, n, 11)
	v := b.ToInterleaved()
	xi := make([]float64, m*n)
	for iter := 0; iter < 3; iter++ {
		if err := s.SolveInterleavedInto(xi, v); err != nil {
			t.Fatal(err)
		}
	}
	ls := s.LayoutStats()
	if ls.InterleavedSolves != 3 || ls.InterleavedShim != 0 {
		t.Fatalf("LayoutStats = %+v, want 3 native solves", ls)
	}
	// The contiguous entry still works on the same solver and is not
	// counted as an interleaved solve.
	dst := make([]float64, m*n)
	if err := s.SolveBatchInto(dst, b); err != nil {
		t.Fatal(err)
	}
	if got := s.LayoutStats(); got != ls {
		t.Fatalf("contiguous solve changed LayoutStats to %+v", got)
	}
}

// TestBatcherFallbackRoute forces the breaker open and checks the
// coalesced path degrades to per-system host solves with verdicts
// instead of failing the flight.
func TestBatcherFallbackRoute(t *testing.T) {
	p := NewPool[float64](PoolConfig{
		// A hair-trigger breaker: one degraded solve trips it.
		Breaker: BreakerPolicy{Window: 4, MinSamples: 1, TripRatio: 0.01, Cooldown: time.Hour},
		SolverOptions: []Option{
			WithFaultInjection(&FaultInjector{
				Seed: 3, Rate: 1, Repeat: 1000,
				Kinds: []DeviceFaultKind{FaultAbort},
			}),
			WithRetry(RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}),
		},
	})
	defer p.Close(context.Background())

	// Trip the breaker on the direct path.
	batch := workload.Batch[float64](workload.DiagDominant, 4, 32, 5)
	if _, err := p.Solve(context.Background(), batch); err != nil {
		t.Fatalf("tripping solve: %v", err)
	}
	if p.Breaker().State != BreakerOpen {
		t.Fatalf("breaker = %v, want open", p.Breaker().State)
	}

	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b := newCoalescer(t, p, batcher.Config[float64]{MaxBatch: 8, MaxWait: time.Hour, Clock: vc})
	req := workload.Batch[float64](workload.DiagDominant, 2, 32, 6)
	var (
		wg   sync.WaitGroup
		x    []float64
		serr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		x, _, serr = coalesce(context.Background(), b, req)
	}()
	batcherWaitUntil(t, "request parked", func() bool { return b.Stats().PendingSystems == 2 })
	vc.Advance(time.Hour)
	wg.Wait()
	if serr != nil {
		t.Fatalf("breaker-open coalesced solve: %v", serr)
	}
	// Host pivoting answers differ in rounding from p-Thomas, so
	// verify by residual, not bitwise.
	checkResidual(t, req, x)
	if st := p.Stats(); st.FallbackSolves == 0 {
		t.Fatal("no fallback solves recorded")
	}
}

// TestPoolLeaseRule pins the one lease protocol on both station kinds:
// a device solve that fails without being cancelled still releases its
// lease with its measured service time, which moves the station's
// estimate, and the breaker counts it as degraded, while a clean solve
// counts as healthy.
func TestPoolLeaseRule(t *testing.T) {
	const m, n = 4, 64
	for _, mega := range []bool{false, true} {
		var armed atomic.Bool
		p := NewPool[float64](PoolConfig{Capacity: 1, SolverOptions: []Option{
			WithFaultInjection(&FaultInjector{Rate: 1, Gate: armed.Load}),
			WithRetry(RetryPolicy{MaxRetries: -1, NoDegrade: true}),
		}})
		b := workload.Batch[float64](workload.DiagDominant, m, n, 3)
		mb := &Megabatch[float64]{
			V: b.ToInterleaved(), Count: m, Xi: make([]float64, m*n),
			Verdicts: make([]batcher.Verdict, m), Scratch: make([]float64, 4*m),
		}
		solve := func() error {
			if mega {
				return p.SolveMegabatch(context.Background(), mb)
			}
			_, err := p.Solve(context.Background(), b)
			return err
		}
		svc := func() time.Duration {
			for _, sh := range p.Stats().PerShape {
				if sh.Mega == mega {
					return sh.ServiceTime
				}
			}
			t.Fatalf("mega=%v: no station", mega)
			return 0
		}

		if err := solve(); err != nil {
			t.Fatalf("mega=%v: clean solve: %v", mega, err)
		}
		clean := svc()
		armed.Store(true)
		if err := solve(); !errors.Is(err, ErrFaulted) {
			t.Fatalf("mega=%v: faulted solve returned %v, want ErrFaulted", mega, err)
		}
		if got := svc(); got == clean {
			t.Errorf("mega=%v: failed solve fed no service time (estimate stayed %v)", mega, got)
		}
		if br := p.Breaker(); br.WindowFill != 2 || br.WindowDegraded != 1 {
			t.Errorf("mega=%v: breaker window %d/%d degraded, want 1 of 2", mega, br.WindowDegraded, br.WindowFill)
		}
		if err := p.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
