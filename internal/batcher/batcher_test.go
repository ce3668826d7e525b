package batcher

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gputrid/internal/clock"
	"gputrid/internal/core"
)

// echoSolve is the test SolveFunc: the "solution" is the interleaved
// RHS, so after demux every request must get exactly its own RHS back
// — which also proves the append/demux strided copies are inverses.
// It performs no heap allocations (the zero-alloc test relies on it).
func echoSolve(_ context.Context, mb *Megabatch[float64]) error {
	copy(mb.Xi, mb.V.RHS)
	return nil
}

// mkReq builds a valid M×N request with a deterministic RHS and the
// destination poisoned with NaN sentinels.
func mkReq(m, n int, seed int64) *Request[float64] {
	size := m * n
	r := &Request[float64]{
		M: m, N: n,
		Lower: make([]float64, size), Diag: make([]float64, size),
		Upper: make([]float64, size), RHS: make([]float64, size),
		X: make([]float64, size),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < size; i++ {
		r.Lower[i] = rng.Float64()
		r.Diag[i] = 4 + rng.Float64()
		r.Upper[i] = rng.Float64()
		r.RHS[i] = rng.Float64()
		r.X[i] = math.NaN()
	}
	return r
}

func checkEcho(t *testing.T, req *Request[float64]) {
	t.Helper()
	for i := range req.X {
		if req.X[i] != req.RHS[i] {
			t.Fatalf("dst[%d] = %v, want RHS %v", i, req.X[i], req.RHS[i])
		}
	}
}

// waitUntil polls cond with a generous wall-clock timeout; tests use
// it to sequence against the flusher goroutine before advancing the
// virtual clock.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// virtualDeadlineCtx carries a deadline on the virtual timeline
// without ever firing Done — real contexts expire by the wall clock,
// which would race a virtual-time test.
type virtualDeadlineCtx struct {
	context.Context
	dl time.Time
}

func (c virtualDeadlineCtx) Deadline() (time.Time, bool) { return c.dl, true }
func (c virtualDeadlineCtx) Done() <-chan struct{}       { return nil }
func (c virtualDeadlineCtx) Err() error                  { return nil }

// TestWatermarkFlush fills a flight exactly to MaxBatch with
// concurrent single-system requests: the flight must seal and flush
// on the watermark alone, with the virtual clock never advancing, and
// every caller must get its own systems back.
func TestWatermarkFlush(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 8, MaxWait: time.Hour, Clock: vc, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	reqs := make([]*Request[float64], 8)
	var wg sync.WaitGroup
	for i := range reqs {
		reqs[i] = mkReq(1, 32, int64(i))
		wg.Add(1)
		go func(r *Request[float64]) {
			defer wg.Done()
			res, err := b.Solve(context.Background(), r)
			if err != nil {
				t.Errorf("solve: %v", err)
				return
			}
			if res.Systems != 1 || res.FlushSize != 8 {
				t.Errorf("res = %+v, want 1 system in a flush of 8", res)
			}
		}(reqs[i])
	}
	wg.Wait()
	for _, r := range reqs {
		checkEcho(t, r)
	}
	st := b.Stats()
	if st.FlushesWatermark != 1 || st.Flushes() != 1 {
		t.Fatalf("stats = %+v, want exactly one watermark flush", st)
	}
	if st.FlushedSystems != 8 || st.PaddedSystems != 0 || st.MaxFlushSystems != 8 {
		t.Fatalf("stats = %+v, want 8 flushed, 0 padded", st)
	}
	if st.PendingSystems != 0 {
		t.Fatalf("PendingSystems = %d after drain", st.PendingSystems)
	}
}

// TestDeadlineFlush parks three requests far below the watermark and
// proves nothing flushes until the virtual clock crosses MaxWait —
// then exactly one deadline flush carries all three.
func TestDeadlineFlush(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 64, MaxWait: 5 * time.Millisecond, Clock: vc, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	reqs := []*Request[float64]{mkReq(1, 16, 1), mkReq(2, 16, 2), mkReq(1, 16, 3)}
	var wg sync.WaitGroup
	for _, r := range reqs {
		wg.Add(1)
		go func(r *Request[float64]) {
			defer wg.Done()
			res, err := b.Solve(context.Background(), r)
			if err != nil {
				t.Errorf("solve: %v", err)
				return
			}
			if res.FlushSize != 4 {
				t.Errorf("FlushSize = %d, want 4", res.FlushSize)
			}
			if res.Wait != 5*time.Millisecond {
				t.Errorf("Wait = %v, want the full 5ms (virtual)", res.Wait)
			}
		}(r)
	}
	waitUntil(t, "3 requests pending", func() bool { return b.Stats().PendingSystems == 4 })
	// Just short of the deadline: still coalescing.
	vc.Advance(4 * time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	if st := b.Stats(); st.Flushes() != 0 {
		t.Fatalf("flushed %d flights before MaxWait", st.Flushes())
	}
	vc.Advance(time.Millisecond)
	wg.Wait()
	for _, r := range reqs {
		checkEcho(t, r)
	}
	st := b.Stats()
	if st.FlushesDeadline != 1 || st.Flushes() != 1 {
		t.Fatalf("stats = %+v, want exactly one deadline flush", st)
	}
	if st.PaddedSystems != 60 {
		t.Fatalf("PaddedSystems = %d, want 60 (64-capacity flight, 4 real)", st.PaddedSystems)
	}
}

// TestSlackExpiryOrdering pins the deadline-slack policy: a request
// whose context deadline minus the fixed slack lands before the
// flight's MaxWait pulls the whole flight's flush earlier — and a
// request with no deadline rides along.
func TestSlackExpiryOrdering(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{
		MaxBatch: 64, MaxWait: 10 * time.Millisecond, Clock: vc,
		Solve: echoSolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	relaxed := mkReq(1, 16, 10)
	urgent := mkReq(1, 16, 11)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.Solve(context.Background(), relaxed); err != nil {
			t.Errorf("relaxed solve: %v", err)
		}
	}()
	waitUntil(t, "relaxed request pending", func() bool { return b.Stats().PendingSystems == 1 })
	// Deadline at virtual +5ms; minus the 200µs slack the flight must
	// flush by +4.8ms, not +10ms.
	const flushBy = 4800 * time.Microsecond
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := virtualDeadlineCtx{Context: context.Background(), dl: time.Unix(0, 0).Add(5 * time.Millisecond)}
		res, err := b.Solve(ctx, urgent)
		if err != nil {
			t.Errorf("urgent solve: %v", err)
			return
		}
		if res.Wait > flushBy {
			t.Errorf("urgent waited %v, want <= %v", res.Wait, flushBy)
		}
	}()
	waitUntil(t, "both requests pending", func() bool { return b.Stats().PendingSystems == 2 })
	vc.Advance(flushBy - 100*time.Microsecond)
	time.Sleep(2 * time.Millisecond)
	if st := b.Stats(); st.Flushes() != 0 {
		t.Fatalf("flushed %d flights before the slack-adjusted deadline", st.Flushes())
	}
	vc.Advance(100 * time.Microsecond)
	wg.Wait()
	checkEcho(t, relaxed)
	checkEcho(t, urgent)
	if st := b.Stats(); st.FlushesDeadline != 1 || st.Flushes() != 1 {
		t.Fatalf("stats = %+v, want one deadline flush at +%v", st, flushBy)
	}
}

// TestMixedSizeSealing admits a 3-system and then a 2-system request
// into a 4-capacity batcher: the second cannot fit, so the first
// flight seals and flushes on the watermark while the second starts a
// fresh flight and flushes on its own deadline.
func TestMixedSizeSealing(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 4, MaxWait: time.Millisecond, Clock: vc, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	first := mkReq(3, 8, 20)
	second := mkReq(2, 8, 21)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := b.Solve(context.Background(), first)
		if err != nil {
			t.Errorf("first: %v", err)
			return
		}
		if res.FlushSize != 3 {
			t.Errorf("first FlushSize = %d, want 3", res.FlushSize)
		}
	}()
	waitUntil(t, "first pending", func() bool { return b.Stats().PendingSystems == 3 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := b.Solve(context.Background(), second)
		if err != nil {
			t.Errorf("second: %v", err)
			return
		}
		if res.FlushSize != 2 {
			t.Errorf("second FlushSize = %d, want 2", res.FlushSize)
		}
	}()
	// The second admit seals the first flight (watermark flush, no
	// clock needed) and parks itself.
	waitUntil(t, "first flight flushed", func() bool { return b.Stats().FlushesWatermark == 1 })
	waitUntil(t, "second pending alone", func() bool { return b.Stats().PendingSystems == 2 })
	vc.Advance(time.Millisecond)
	wg.Wait()
	checkEcho(t, first)
	checkEcho(t, second)
	if st := b.Stats(); st.FlushesWatermark != 1 || st.FlushesDeadline != 1 {
		t.Fatalf("stats = %+v, want one watermark + one deadline flush", st)
	}
}

// TestCloseDrains proves Close flushes parked requests instead of
// stranding them, then rejects new work.
func TestCloseDrains(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 64, MaxWait: time.Hour, Clock: vc, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*Request[float64]{mkReq(1, 16, 30), mkReq(1, 16, 31)}
	var wg sync.WaitGroup
	for _, r := range reqs {
		wg.Add(1)
		go func(r *Request[float64]) {
			defer wg.Done()
			res, err := b.Solve(context.Background(), r)
			if err != nil {
				t.Errorf("solve: %v", err)
				return
			}
			if res.FlushSize != 2 {
				t.Errorf("FlushSize = %d, want 2", res.FlushSize)
			}
		}(r)
	}
	waitUntil(t, "both pending", func() bool { return b.Stats().PendingSystems == 2 })
	b.Close() // blocks until drained
	wg.Wait()
	for _, r := range reqs {
		checkEcho(t, r)
	}
	if st := b.Stats(); st.FlushesClose != 1 || st.Flushes() != 1 {
		t.Fatalf("stats = %+v, want one close flush", st)
	}
	if _, err := b.Solve(context.Background(), mkReq(1, 16, 32)); !errors.Is(err, ErrClosed) {
		t.Fatalf("solve after close: %v, want ErrClosed", err)
	}
}

// TestCancelledWaitLeavesFlight cancels a parked request: the caller
// unblocks with ErrCancelled and an untouched destination, while the
// abandoned systems still ride the flight (and are simply dropped on
// delivery) — a later request in the same flight is unaffected.
func TestCancelledWaitLeavesFlight(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 64, MaxWait: time.Hour, Clock: vc, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	doomed := mkReq(1, 16, 40)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Solve(ctx, doomed)
		errc <- err
	}()
	waitUntil(t, "doomed pending", func() bool { return b.Stats().PendingSystems == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, core.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v, want ErrCancelled wrapping context.Canceled", err)
	}
	st := b.Stats()
	if st.CancelledWaits != 1 || st.PendingSystems != 0 {
		t.Fatalf("stats = %+v, want 1 cancelled wait and no pending systems", st)
	}

	survivor := mkReq(1, 16, 41)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := b.Solve(context.Background(), survivor)
		if err != nil {
			t.Errorf("survivor: %v", err)
			return
		}
		// The abandoned system is still in the flight.
		if res.FlushSize != 2 {
			t.Errorf("FlushSize = %d, want 2 (cancelled system rides along)", res.FlushSize)
		}
	}()
	waitUntil(t, "survivor pending", func() bool { return b.Stats().AdmittedSystems == 2 })
	vc.Advance(time.Hour)
	wg.Wait()
	checkEcho(t, survivor)
	for i, x := range doomed.X {
		if !math.IsNaN(x) {
			t.Fatalf("cancelled request's dst[%d] = %v, want untouched NaN sentinel", i, x)
		}
	}
}

// TestVerdictIsolation pins the one-bad-system contract at the
// batcher layer: a SolveFunc that fails individual systems via
// verdicts fails only the requests owning them.
func TestVerdictIsolation(t *testing.T) {
	bad := errors.New("poisoned system")
	solve := func(_ context.Context, mb *Megabatch[float64]) error {
		copy(mb.Xi, mb.V.RHS)
		for i := 0; i < mb.Count; i++ {
			// The corrupt marker: a zero diagonal in row 0.
			if mb.V.Diag[i] == 0 {
				mb.Verdicts[i].Err = bad
			} else if mb.V.Lower[i] == -1 {
				mb.Verdicts[i].Rescued = true
			}
		}
		return nil
	}
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 8, MaxWait: time.Hour, Clock: vc, Solve: solve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	healthy := mkReq(2, 16, 50)
	poisoned := mkReq(2, 16, 51)
	poisoned.Diag[1*16] = 0 // its second system's row 0
	rescuedReq := mkReq(1, 16, 52)
	rescuedReq.Lower[0] = -1

	var wg sync.WaitGroup
	results := make([]Result, 3)
	errs := make([]error, 3)
	for i, r := range []*Request[float64]{healthy, poisoned, rescuedReq} {
		wg.Add(1)
		go func(i int, r *Request[float64]) {
			defer wg.Done()
			results[i], errs[i] = b.Solve(context.Background(), r)
		}(i, r)
	}
	waitUntil(t, "all pending", func() bool { return b.Stats().PendingSystems == 5 })
	vc.Advance(time.Hour)
	wg.Wait()

	if errs[0] != nil {
		t.Fatalf("healthy request failed: %v", errs[0])
	}
	checkEcho(t, healthy)
	if !errors.Is(errs[1], bad) {
		t.Fatalf("poisoned request error = %v, want the verdict error", errs[1])
	}
	if errs[2] != nil {
		t.Fatalf("rescued request failed: %v", errs[2])
	}
	if results[2].Rescued != 1 {
		t.Fatalf("rescued count = %d, want 1", results[2].Rescued)
	}
	if results[0].Rescued != 0 {
		t.Fatalf("healthy request reports %d rescues", results[0].Rescued)
	}
}

// TestSaturationSheds drives the queue past MaxQueuedFlights with the
// solver wedged and requires ErrSaturated instead of unbounded
// buffering.
func TestSaturationSheds(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	solve := func(_ context.Context, mb *Megabatch[float64]) error {
		entered <- struct{}{}
		<-release
		copy(mb.Xi, mb.V.RHS)
		return nil
	}
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 2, MaxWait: time.Hour, MaxQueuedFlights: 1, Clock: vc, Solve: solve})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	solveOK := func(r *Request[float64]) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Solve(context.Background(), r); err != nil {
				t.Errorf("solve: %v", err)
			}
		}()
	}
	// Flight 1 seals on admission (M == MaxBatch) and wedges in the
	// solver; flight 2 seals behind it and fills the queue.
	solveOK(mkReq(2, 16, 60))
	<-entered
	solveOK(mkReq(2, 16, 61))
	waitUntil(t, "second flight queued", func() bool {
		st := b.Stats()
		return len(st.Queues) == 1 && st.Queues[0].Flights == 1 && st.Queues[0].Pending == 2
	})
	if _, err := b.Solve(context.Background(), mkReq(2, 16, 62)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third flight admitted: %v, want ErrSaturated", err)
	}
	if st := b.Stats(); st.Saturated != 1 {
		t.Fatalf("Saturated = %d, want 1", st.Saturated)
	}
	close(release)
	wg.Wait()
	b.Close()
}

// TestAdmissionErrors pins the typed misuse errors.
func TestAdmissionErrors(t *testing.T) {
	if _, err := New(Config[float64]{}); err == nil {
		t.Fatal("New without Solve should fail")
	}
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 4, MaxWait: time.Hour, Clock: vc, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Solve(context.Background(), mkReq(5, 8, 1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized: %v, want ErrTooLarge", err)
	}
	bad := mkReq(2, 8, 2)
	bad.RHS = bad.RHS[:7]
	if _, err := b.Solve(context.Background(), bad); !errors.Is(err, core.ErrShapeMismatch) {
		t.Fatalf("short plane: %v, want ErrShapeMismatch", err)
	}
	if _, err := b.Solve(context.Background(), &Request[float64]{M: 0, N: 8}); !errors.Is(err, core.ErrShapeMismatch) {
		t.Fatalf("zero systems: %v, want ErrShapeMismatch", err)
	}
	// Occupy all 8 shape slots, then ask for another N. Each full
	// request flushes on the watermark; its queue stays live.
	for i := 0; i < 8; i++ {
		if _, err := b.Solve(context.Background(), mkReq(4, 8+i, int64(3+i))); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
	}
	if _, err := b.Solve(context.Background(), mkReq(1, 16, 4)); !errors.Is(err, ErrShapeLimit) {
		t.Fatalf("ninth shape: %v, want ErrShapeLimit", err)
	}
	// A pre-cancelled context never enqueues.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Solve(ctx, mkReq(1, 8, 5)); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("pre-cancelled ctx: %v, want ErrCancelled", err)
	}
}

// TestSteadyStateZeroAllocs is the tier-1 allocation gate for the
// hot coalesce→solve→demux loop (ISSUE 8 satellite): after warmup, a
// watermark-flushed Solve — admission, strided append, flush, demux,
// delivery, recycling, across both the caller and the flusher
// goroutine (AllocsPerRun counts every goroutine's mallocs) — runs
// allocation-free.
func TestSteadyStateZeroAllocs(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	b, err := New(Config[float64]{MaxBatch: 4, MaxWait: time.Hour, Clock: vc, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	req := mkReq(4, 64, 70)
	ctx := context.Background()
	// Warm the queue: first Solve cold-allocates flight and pending.
	if _, err := b.Solve(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Solve(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentHammer races many mixed-size requests through a small
// batcher under the wall clock and checks every caller got exactly
// its own data back (the per-package half of the bitwise story; the
// end-to-end half with the real solver lives in the root package).
func TestConcurrentHammer(t *testing.T) {
	b, err := New(Config[float64]{MaxBatch: 8, MaxWait: 200 * time.Microsecond, Solve: echoSolve})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				r := mkReq(1+g%3, 24, int64(g*1000+iter))
				_, err := b.Solve(context.Background(), r)
				for errors.Is(err, ErrSaturated) {
					// Shedding under load is the designed behavior;
					// back off and retry like a real client.
					time.Sleep(100 * time.Microsecond)
					_, err = b.Solve(context.Background(), r)
				}
				if err != nil {
					t.Errorf("g%d iter%d: %v", g, iter, err)
					return
				}
				for i := range r.X {
					if r.X[i] != r.RHS[i] {
						t.Errorf("g%d iter%d: cross-request data leak at %d", g, iter, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := b.Stats()
	if st.AdmittedSystems != st.FlushedSystems {
		t.Fatalf("admitted %d systems but flushed %d", st.AdmittedSystems, st.FlushedSystems)
	}
	if st.PendingSystems != 0 {
		t.Fatalf("PendingSystems = %d after drain", st.PendingSystems)
	}
}
