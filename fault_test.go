package gputrid

// Tests of the transient-fault-tolerance surface: seeded chaos
// injection, checkpointed retry, context cancellation, and the
// Close/solve race — the acceptance criteria of the reliability layer.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// TestChaosBitwiseAtTenPercent pins the headline guarantee: at fault
// rate 0.1 per kernel launch site, with the default retry policy,
// recovered solves are bitwise identical to fault-free solves — on the
// recording solve and on replayed solves alike.
func TestChaosBitwiseAtTenPercent(t *testing.T) {
	const m, n = 32, 256
	b := workload.Batch[float64](workload.DiagDominant, m, n, 21)
	clean, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}

	sawFault := false
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		s, err := NewSolver[float64](m, n,
			WithFaultInjection(&FaultInjector{Seed: seed, Rate: 0.1}),
			WithRetry(RetryPolicy{BaseBackoff: time.Microsecond}))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, m*n)
		for iter := 0; iter < 3; iter++ {
			if err := s.SolveBatchIntoCtx(context.Background(), dst, b); err != nil {
				t.Fatalf("seed %d iter %d: %v", seed, iter, err)
			}
			if fr := s.FaultReport(); fr != nil {
				sawFault = true
				if len(fr.Degraded) != 0 {
					t.Fatalf("seed %d iter %d: degraded %v; one-shot transients must recover within the default budget",
						seed, iter, fr.Degraded)
				}
			}
			for i := range dst {
				if dst[i] != clean.X[i] {
					t.Fatalf("seed %d iter %d: element %d = %v, fault-free = %v (not bitwise identical)",
						seed, iter, i, dst[i], clean.X[i])
				}
			}
		}
		s.Close()
	}
	if !sawFault {
		t.Fatal("rate 0.1 over 5 seeds never faulted; injector is not firing")
	}
}

// TestSolveBatchCtxCancellation covers both cancellation windows: a
// context cancelled before the solve, and a deadline expiring while
// the solve is parked in retry backoff. Both must return promptly with
// the typed error (matching the context's own error too) and leak no
// goroutines.
func TestSolveBatchCtxCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	const m, n = 16, 128
	b := workload.Batch[float64](workload.DiagDominant, m, n, 22)

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := SolveBatchCtx(ctx, b)
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want ErrCancelled wrapping context.Canceled", err)
		}
	})

	t.Run("deadline-in-backoff", func(t *testing.T) {
		s, err := NewSolver[float64](m, n,
			WithFaultInjection(&FaultInjector{
				Repeat:   1 << 30, // never heals: the solve lives in backoff
				Schedule: []ScheduledFault{{Kernel: "", Block: -1, Kind: FaultAbort}},
			}),
			WithRetry(RetryPolicy{MaxRetries: 1000, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dst := make([]float64, m*n)
		for i := range dst {
			dst[i] = -3
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		start := time.Now()
		err = s.SolveBatchIntoCtx(ctx, dst, b)
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error = %v, want ErrCancelled wrapping DeadlineExceeded", err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("cancellation took %v, want prompt return", el)
		}
		// k >= 1 path writes dst per whole system only; with every
		// launch aborted at block -1 nothing may have been committed
		// partially: each system is fully written or fully untouched.
		for i := 0; i < m; i++ {
			row := dst[i*n : (i+1)*n]
			touched := 0
			for _, v := range row {
				if v != -3 {
					touched++
				}
			}
			if touched != 0 && touched != n {
				t.Fatalf("system %d partially written (%d of %d rows)", i, touched, n)
			}
		}
	})

	// Every pool goroutine must be gone once the solvers are closed.
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

// TestSolveGuardedCtxCancelled checks the guarded path propagates
// cancellation as a typed error with a nil result.
func TestSolveGuardedCtxCancelled(t *testing.T) {
	const m, n = 8, 64
	s, err := NewSolver[float64](m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := workload.Batch[float64](workload.DiagDominant, m, n, 23)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.SolveGuardedCtx(ctx, b)
	if res != nil {
		t.Fatal("cancelled guarded solve returned a result")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("error = %v, want ErrCancelled", err)
	}
	// The solver stays fully usable.
	if _, err := s.SolveGuardedCtx(context.Background(), b); err != nil {
		t.Fatalf("guarded solve after cancellation: %v", err)
	}
}

// TestGuardedDegradedReportsPivot checks systems rescued by the
// fault-recovery layer's GTSV degradation surface as StagePivot in the
// guarded per-system reports.
func TestGuardedDegradedReportsPivot(t *testing.T) {
	const m, n = 16, 128
	b := workload.Batch[float64](workload.DiagDominant, m, n, 24)
	s, err := NewSolver[float64](m, n,
		WithFaultInjection(&FaultInjector{
			Repeat:   1 << 30,
			Schedule: []ScheduledFault{{Kernel: "", Block: 0, Kind: FaultAbort}},
		}),
		WithRetry(RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.SolveGuardedCtx(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages()
	if st[StagePivot] == 0 {
		t.Fatalf("stages = %v, want degraded systems reported as StagePivot", st)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("degraded diag-dominant systems failed: %v", res.Failed)
	}
	if res.Faults == nil || len(res.Faults.Degraded) == 0 {
		t.Fatal("GuardedResult.Faults does not report the degradation")
	}
	if res.Faults.Degraded[0] != res.Reports[res.Faults.Degraded[0]].System {
		t.Fatal("degraded list and reports disagree on system indexing")
	}
}

// TestSolverCloseBusy pins the public Close/solve race contract: Close
// against an in-flight solve returns ErrSolverBusy without disturbing
// it, and Close is idempotent afterwards.
func TestSolverCloseBusy(t *testing.T) {
	const m, n = 16, 128
	s, err := NewSolver[float64](m, n,
		WithFaultInjection(&FaultInjector{
			Repeat:   2,
			Schedule: []ScheduledFault{{Kernel: "", Block: 0, Kind: FaultAbort}},
		}),
		WithRetry(RetryPolicy{MaxRetries: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	b := workload.Batch[float64](workload.DiagDominant, m, n, 25)
	dst := make([]float64, m*n)
	done := make(chan error, 1)
	go func() { done <- s.SolveBatchIntoCtx(context.Background(), dst, b) }()

	var closeErr error
	deadline := time.Now().Add(5 * time.Second)
	for {
		closeErr = s.Close()
		if closeErr != nil || time.Now().After(deadline) {
			break
		}
		select {
		case err := <-done:
			// Close beat the solve to the pipeline; the solve must then
			// have been rejected as closed, not half-run.
			if !errors.Is(err, ErrSolverClosed) {
				t.Fatalf("solve after winning Close = %v, want ErrSolverClosed", err)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if !errors.Is(closeErr, ErrSolverBusy) {
		t.Fatalf("Close during solve = %v, want ErrSolverBusy", closeErr)
	}
	if err := <-done; err != nil {
		t.Fatalf("solve disturbed by racing Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after solve: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
	if err := s.SolveBatchInto(dst, b); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("solve after Close = %v, want ErrSolverClosed", err)
	}
}

// TestFaultReportSurface checks the report plumbing end to end: kinds
// of activity land in the right fields and the hang charge reflects
// the fixed 10ms watchdog budget.
func TestFaultReportSurface(t *testing.T) {
	const m, n = 16, 128
	b := workload.Batch[float64](workload.DiagDominant, m, n, 26)
	budget := 10 * time.Millisecond
	res, err := SolveBatchCtx(context.Background(), b,
		WithFaultInjection(&FaultInjector{
			Schedule: []ScheduledFault{{Kernel: "tiledPCR", Block: 0, Kind: FaultHang}},
		}),
		WithRetry(RetryPolicy{BaseBackoff: time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Faults
	if fr == nil {
		t.Fatal("Result.Faults nil after an injected hang")
	}
	if fr.Faults == 0 || fr.Retries["tiledPCR"] == 0 {
		t.Fatalf("report = %+v, want the hang counted and the retry keyed by kernel", fr)
	}
	if fr.WastedModeledTime < budget {
		t.Fatalf("wasted = %v, want at least the %v watchdog budget", fr.WastedModeledTime, budget)
	}
	if res.X == nil {
		t.Fatal("recovered solve carries no solution")
	}
	if r := matrix.MaxResidual(b, res.X); !(r <= matrix.ResidualTolerance[float64](n)) {
		t.Fatalf("recovered residual %.3e exceeds tolerance", r)
	}
}
