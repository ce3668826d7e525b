package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputrid/internal/gpusim"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

var bg = context.Background()

// countRecordings empties the memo and counts, until the test ends,
// the recordings recordOnce starts for keys of an m×n batch.
func countRecordings(t *testing.T, m, n int) *atomic.Int64 {
	t.Helper()
	ResetRecordMemo()
	var count atomic.Int64
	testHookRecord = func(key recordKey) {
		if key.m == m && key.n == n {
			count.Add(1)
		}
	}
	t.Cleanup(func() { testHookRecord = nil })
	return &count
}

// memoEntries returns how many memo entries hold an m×n batch's keys,
// and the memo's size.
func memoEntries(m, n int) (match, size int) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for key := range memo.entries {
		if key.m == m && key.n == n {
			match++
		}
	}
	return match, len(memo.entries)
}

// solveOn solves an m×n batch on a fresh pipeline for cfg and returns
// the solution and the per-launch Stats the pipeline published.
func solveOn(ctx context.Context, cfg Config, m, n int) ([]float64, [2]gpusim.Stats, error) {
	p, err := NewPipeline[float64](cfg, m, n)
	if err != nil {
		return nil, [2]gpusim.Stats{}, err
	}
	defer p.Close()
	b := workload.Batch[float64](workload.DiagDominant, m, n, 17)
	x := make([]float64, m*n)
	err = p.SolveIntoCtx(ctx, x, b)
	return x, p.drv.kern, err
}

// TestMemoKeySeparation pins the key: a device field the recording
// reads (TransactionBytes) separates two recordings, and fields only
// the cost model reads (Name, SlowFactor) share one.
func TestMemoKeySeparation(t *testing.T) {
	const m, n = 5, 96
	for _, k := range []int{0, 3} {
		recs := countRecordings(t, m, n)
		base := gpusim.GTX480()
		narrow := gpusim.GTX480()
		narrow.TransactionBytes = 32
		renamed := gpusim.GTX480()
		renamed.Name, renamed.SlowFactor = "GTX480-throttled", 3

		x0, st0, err := solveOn(bg, Config{Device: base, K: k}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		x1, st1, err := solveOn(bg, Config{Device: renamed, K: k}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := recs.Load(); got != 1 {
			t.Fatalf("k=%d: Name and SlowFactor changes recorded %d times, want one shared recording", k, got)
		}
		if st1 != st0 || firstDiff(x0, x1) >= 0 {
			t.Fatalf("k=%d: the shared recording's Stats or solution differ", k)
		}
		x2, st2, err := solveOn(bg, Config{Device: narrow, K: k}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := recs.Load(); got != 2 {
			t.Fatalf("k=%d: a TransactionBytes change recorded %d times in all, want 2", k, got)
		}
		if st2[0].LoadTransactions <= st0[0].LoadTransactions {
			t.Fatalf("k=%d: 32-byte transactions recorded %d loads, 128-byte %d; want more",
				k, st2[0].LoadTransactions, st0[0].LoadTransactions)
		}
		if firstDiff(x0, x2) >= 0 {
			t.Fatalf("k=%d: the transaction size changed the solution", k)
		}
		if match, _ := memoEntries(m, n); match != 2 {
			t.Fatalf("k=%d: memo holds %d entries for the shape, want 2", k, match)
		}
	}
}

// TestMemoSingleFlight makes the first solve of one key on four
// goroutines at once: exactly one records, the others wait for it and
// run the host twins, and all four agree bit for bit.
func TestMemoSingleFlight(t *testing.T) {
	const m, n, solvers = 6, 160, 4
	for _, k := range []int{0, 2} {
		ResetRecordMemo()
		var recs atomic.Int64
		testHookRecord = func(key recordKey) {
			if key.m == m && key.n == n {
				recs.Add(1)
				time.Sleep(20 * time.Millisecond) // let the others arrive mid-recording
			}
		}
		start := make(chan struct{})
		xs := make([][]float64, solvers)
		sts := make([][2]gpusim.Stats, solvers)
		errs := make([]error, solvers)
		var wg sync.WaitGroup
		for i := range solvers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				xs[i], sts[i], errs[i] = solveOn(bg, Config{K: k}, m, n)
			}()
		}
		close(start)
		wg.Wait()
		testHookRecord = nil
		for i := range solvers {
			if errs[i] != nil {
				t.Fatalf("k=%d solver %d: %v", k, i, errs[i])
			}
			if sts[i] != sts[0] || firstDiff(xs[0], xs[i]) >= 0 {
				t.Fatalf("k=%d: solver %d disagrees with solver 0", k, i)
			}
		}
		if got := recs.Load(); got != 1 {
			t.Fatalf("k=%d: %d concurrent first solves recorded %d times, want 1", k, solvers, got)
		}
	}
}

// TestMemoCancellation pins that a cancelled recording stores nothing
// and the next solve records again, and that a caller waiting on
// another's recording of its key gives up when its own context ends.
func TestMemoCancellation(t *testing.T) {
	const m, n = 7, 128
	recs := countRecordings(t, m, n)
	ctx, cancel := context.WithCancel(context.Background())
	testHookRecord = func(key recordKey) {
		if key.m == m && key.n == n {
			recs.Add(1)
			cancel()
		}
	}
	_, _, err := solveOn(ctx, Config{K: 2}, m, n)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled recording returned %v, want ErrCancelled matching context.Canceled", err)
	}
	if match, _ := memoEntries(m, n); match != 0 {
		t.Fatalf("a cancelled recording left %d memo entries", match)
	}

	// A waiter gives up when its context ends; the recording goes on.
	release := make(chan struct{})
	entered := make(chan recordKey, 1)
	testHookRecord = func(key recordKey) {
		if key.m == m && key.n == n {
			recs.Add(1)
			entered <- key
			<-release
		}
	}
	leader := make(chan error, 1)
	go func() {
		_, _, err := solveOn(bg, Config{K: 2}, m, n)
		leader <- err
	}()
	key := <-entered
	wctx, wcancel := context.WithCancel(bg)
	wcancel()
	_, err = recordOnce(wctx, key, func(*[2]gpusim.Stats) error {
		t.Error("a caller recorded while another recording of its key was in flight")
		return nil
	})
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want ErrCancelled matching context.Canceled", err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("the recording after a cancelled one: %v", err)
	}
	if got := recs.Load(); got != 2 {
		t.Fatalf("%d recordings, want the cancelled one and one more", got)
	}
	if match, _ := memoEntries(m, n); match != 1 {
		t.Fatalf("memo holds %d entries for the shape after a completed recording, want 1", match)
	}
}

// TestMemoBound fills the memo past its cap: the table stops growing,
// and a geometry it cannot store records on every first solve and
// still solves correctly.
func TestMemoBound(t *testing.T) {
	const m, n = 9, 72
	recs := countRecordings(t, m, n)
	defer ResetRecordMemo()
	for i := range memoCap + 10 {
		if _, err := recordOnce(nil, recordKey{kernel: "fill", grid: i}, func(*[2]gpusim.Stats) error { return nil }); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	if _, size := memoEntries(m, n); size != memoCap {
		t.Fatalf("memo holds %d entries after filling, want the cap %d", size, memoCap)
	}
	for _, k := range []int{0, 3} {
		b := workload.Batch[float64](workload.DiagDominant, m, n, 17)
		ref := SolveReference(b, k)
		for solve := range 2 {
			x, st, err := solveOn(bg, Config{K: k}, m, n)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(ref, x); i >= 0 {
				t.Fatalf("k=%d solve %d past the cap: x[%d] = %#x, reference %#x", k, solve, i, num.Bits(x[i]), num.Bits(ref[i]))
			}
			if st[0].Blocks == 0 {
				t.Fatalf("k=%d solve %d past the cap published no Stats", k, solve)
			}
		}
	}
	if got := recs.Load(); got != 4 {
		t.Fatalf("past the cap, 4 first solves recorded %d times, want 4", got)
	}
	if match, size := memoEntries(m, n); match != 0 || size != memoCap {
		t.Fatalf("past the cap the memo holds %d entries for the shape and %d in all, want 0 and %d", match, size, memoCap)
	}
}

// TestMemoHitFaultCoordinates runs a memo-hit first solve under rate
// injectors: it records nothing, runs the twins, and fails with the
// fault TestTwinFaultCoordinates derives — the lowest-indexed shard's
// first faulted block, in launch order.
func TestMemoHitFaultCoordinates(t *testing.T) {
	for _, sh := range auditShapes {
		t.Run(sh.name, func(t *testing.T) {
			recs := countRecordings(t, sh.m, sh.n)
			if _, _, err := solveOn(bg, sh.cfg, sh.m, sh.n); err != nil {
				t.Fatal(err)
			}
			faulted := 0
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := sh.cfg
				cfg.Device = faultDevice(&gpusim.Injector{Seed: seed, Rate: 0.3, Repeat: 10})
				cfg.Retry = RetryPolicy{MaxRetries: -1, NoDegrade: true}
				p, err := NewPipeline[float64](cfg, sh.m, sh.n)
				if err != nil {
					t.Fatal(err)
				}
				var want *gpusim.LaunchError
				for _, w := range p.workers {
					for s := range p.launches[:p.nKern] {
						first, count := p.shardRange(w, s)
						if want = firstAt(p.dev.Faults, p.launches[s].name, first, count, 0); want != nil {
							break
						}
					}
					if want != nil {
						break
					}
				}
				b := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 17)
				err = p.SolveInto(make([]float64, sh.m*sh.n), b)
				p.Close()
				var le *gpusim.LaunchError
				switch {
				case want == nil && err != nil:
					t.Fatalf("seed %d: no shard faults, solve returned %v", seed, err)
				case want != nil && (!errors.As(err, &le) || !errors.Is(err, ErrFaulted) || *le != *want):
					t.Fatalf("seed %d: memo-hit first solve returned %v, want ErrFaulted wrapping %+v", seed, err, want)
				case want != nil:
					faulted++
				}
			}
			if faulted == 0 {
				t.Fatal("no seed faulted; the check never ran")
			}
			if got := recs.Load(); got != 1 {
				t.Fatalf("%d recordings, want the fault-free one only", got)
			}
		})
	}
}
