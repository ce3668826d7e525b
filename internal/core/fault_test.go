package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// settleGoroutines polls until the goroutine count drops back to the
// baseline (or a deadline passes), absorbing the scheduler's lag
// between a worker receiving the pool-shutdown signal and its stack
// actually dying.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// faultDevice returns a GTX480 carrying the injector. The device is
// private to the test — presets are never mutated.
func faultDevice(inj *gpusim.Injector) *gpusim.Device {
	d := gpusim.GTX480()
	d.Faults = inj
	return d
}

// TestRetryRecoversBitwise pins the tentpole guarantee: with a fault
// schedule whose Repeat fits inside the retry budget, the recovered
// solve is bitwise identical to a fault-free solve, on both pipeline
// paths and for both recording and replayed solves.
func TestRetryRecoversBitwise(t *testing.T) {
	for _, tc := range pipelineShapes {
		t.Run(tc.name, func(t *testing.T) {
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 7)
			want, _, err := Solve(tc.cfg, b)
			if err != nil {
				t.Fatal(err)
			}

			cfg := tc.cfg
			cfg.Device = faultDevice(&gpusim.Injector{
				Repeat: 2, // needs two retries; budget default is 3
				Schedule: []gpusim.ScheduledFault{
					{Kernel: "", Block: 0, Kind: gpusim.FaultAbort},
				},
			})
			p, err := NewPipeline[float64](cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			dst := make([]float64, tc.m*tc.n)
			for iter := 0; iter < 3; iter++ {
				for i := range dst {
					dst[i] = -1
				}
				if err := p.SolveInto(dst, b); err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("iter %d: dst[%d] = %v, fault-free = %v (not bitwise identical)",
							iter, i, dst[i], want[i])
					}
				}
				fr := p.Report().Faults
				if fr == nil || fr.Faults == 0 {
					t.Fatalf("iter %d: no faults reported, schedule should have fired", iter)
				}
				if fr.TotalRetries() == 0 {
					t.Fatalf("iter %d: recovery without retries reported", iter)
				}
				if len(fr.Degraded) != 0 {
					t.Fatalf("iter %d: systems degraded %v, want none (Repeat <= budget)", iter, fr.Degraded)
				}
			}
		})
	}
}

// TestCorruptFaultRepaired verifies the poisoned-store fault is fully
// repaired by re-execution: no NaN survives into the solution.
func TestCorruptFaultRepaired(t *testing.T) {
	for _, tc := range pipelineShapes {
		t.Run(tc.name, func(t *testing.T) {
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 8)
			want, _, err := Solve(tc.cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Device = faultDevice(&gpusim.Injector{
				Schedule: []gpusim.ScheduledFault{
					{Kernel: "", Block: -1, Kind: gpusim.FaultCorrupt},
				},
			})
			x, rep, err := Solve(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Faults == nil || rep.Faults.Faults == 0 {
				t.Fatal("corrupt schedule did not fire")
			}
			for i := range x {
				if x[i] != want[i] {
					t.Fatalf("x[%d] = %v, fault-free = %v (corruption leaked through retry)", i, x[i], want[i])
				}
			}
		})
	}
}

// TestDegradeToGTSV exhausts the retry budget and checks the shard's
// systems are re-solved through the pivoting path: solutions stay
// accurate, the report lists them, and the solve still returns nil.
func TestDegradeToGTSV(t *testing.T) {
	for _, tc := range pipelineShapes {
		t.Run(tc.name, func(t *testing.T) {
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 9)
			cfg := tc.cfg
			cfg.Retry = RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond}
			cfg.Device = faultDevice(&gpusim.Injector{
				Repeat: 1000, // never heals inside the budget
				Schedule: []gpusim.ScheduledFault{
					{Kernel: "", Block: 0, Kind: gpusim.FaultAbort},
				},
			})
			x, rep, err := Solve(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			fr := rep.Faults
			if fr == nil || len(fr.Degraded) == 0 {
				t.Fatal("no systems degraded, schedule never heals and budget is 1")
			}
			if res := matrix.MaxResidual(b, x); !(res <= matrix.ResidualTolerance[float64](tc.n)) {
				t.Fatalf("degraded solve residual %.3e exceeds tolerance", res)
			}
		})
	}
}

// TestNoDegradeFails checks RetryPolicy.NoDegrade turns budget
// exhaustion into a typed ErrFaulted instead of a silent GTSV rescue.
func TestNoDegradeFails(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 16, 128, 10)
	cfg := Config{
		K:     KAuto,
		Retry: RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond, NoDegrade: true},
		Device: faultDevice(&gpusim.Injector{
			Repeat:   1000,
			Schedule: []gpusim.ScheduledFault{{Kernel: "", Block: 0, Kind: gpusim.FaultAbort}},
		}),
	}
	_, _, err := Solve(cfg, b)
	if !errors.Is(err, ErrFaulted) {
		t.Fatalf("error = %v, want ErrFaulted", err)
	}
	var le *gpusim.LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("error chain %v does not carry the *LaunchError", err)
	}
}

// TestCancelBeforeSolve checks a pre-cancelled context rejects the
// solve before anything runs: typed error, dst untouched.
func TestCancelBeforeSolve(t *testing.T) {
	for _, tc := range pipelineShapes {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPipeline[float64](tc.cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 11)
			dst := make([]float64, tc.m*tc.n)
			for i := range dst {
				dst[i] = -7
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err = p.SolveIntoCtx(ctx, dst, b)
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("error = %v, want ErrCancelled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, does not match context.Canceled", err)
			}
			for i := range dst {
				if dst[i] != -7 {
					t.Fatalf("dst[%d] written by a cancelled solve", i)
				}
			}
			// The pipeline stays usable after a cancelled call.
			if err := p.SolveInto(dst, b); err != nil {
				t.Fatalf("solve after cancellation: %v", err)
			}
		})
	}
}

// TestCancelDuringBackoff cancels mid-solve deterministically: a
// never-healing fault with a long backoff parks the solve in
// sleepBackoff, where the context deadline fires. The solve must
// return promptly with the typed error and leak nothing.
func TestCancelDuringBackoff(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, tc := range pipelineShapes {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Retry = RetryPolicy{
				MaxRetries:  1000,
				BaseBackoff: 50 * time.Millisecond,
				MaxBackoff:  time.Second,
			}
			cfg.Device = faultDevice(&gpusim.Injector{
				Repeat:   1 << 30,
				Schedule: []gpusim.ScheduledFault{{Kernel: "", Block: -1, Kind: gpusim.FaultAbort}},
			})
			p, err := NewPipeline[float64](cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 12)
			dst := make([]float64, tc.m*tc.n)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			start := time.Now()
			err = p.SolveIntoCtx(ctx, dst, b)
			if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error = %v, want ErrCancelled wrapping DeadlineExceeded", err)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("cancellation took %v, want prompt return from backoff", el)
			}
		})
	}
	settleGoroutines(t, base)
}

// TestFaultRetryCycleLeaksNothing hammers the retry/degrade machinery
// over many solves and checks the worker pool neither leaks goroutines
// nor wedges.
func TestFaultRetryCycleLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		cfg := Config{K: KAuto, Retry: RetryPolicy{BaseBackoff: time.Microsecond}}
		cfg.Device = faultDevice(&gpusim.Injector{Seed: 3, Rate: 0.2, Repeat: 2})
		p, err := NewPipeline[float64](cfg, 16, 128)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		b := workload.Batch[float64](workload.DiagDominant, 16, 128, 13)
		dst := make([]float64, 16*128)
		for iter := 0; iter < 30; iter++ {
			if err := p.SolveIntoCtx(context.Background(), dst, b); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}()
	settleGoroutines(t, base)
}

// TestCloseWhileSolving pins the Close/SolveInto race fix: Close
// against an in-flight solve returns ErrPipelineBusy and leaves both
// the solve and the pipeline intact.
func TestCloseWhileSolving(t *testing.T) {
	cfg := Config{
		K:     KAuto,
		Retry: RetryPolicy{MaxRetries: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second},
	}
	cfg.Device = faultDevice(&gpusim.Injector{
		Repeat:   2, // fault twice, then heal: the solve succeeds after backoffs
		Schedule: []gpusim.ScheduledFault{{Kernel: "", Block: 0, Kind: gpusim.FaultAbort}},
	})
	p, err := NewPipeline[float64](cfg, 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := workload.Batch[float64](workload.DiagDominant, 16, 128, 14)
	dst := make([]float64, 16*128)

	solveDone := make(chan error, 1)
	go func() {
		// The scheduled fault parks this solve in ~200ms of backoff,
		// giving the concurrent Close a wide window to race into.
		solveDone <- p.SolveIntoCtx(context.Background(), dst, b)
	}()
	var closeErr error
	deadline := time.Now().Add(5 * time.Second)
	for {
		closeErr = p.Close()
		if closeErr != nil || time.Now().After(deadline) {
			break
		}
		// Close won the race before the solve acquired the pipeline;
		// that is legal (solve then reports ErrPipelineClosed). Only
		// keep probing while the solve is still running.
		select {
		case err := <-solveDone:
			if !errors.Is(err, ErrPipelineClosed) {
				t.Fatalf("solve after winning Close = %v, want ErrPipelineClosed", err)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if !errors.Is(closeErr, ErrPipelineBusy) {
		t.Fatalf("Close during solve = %v, want ErrPipelineBusy", closeErr)
	}
	if err := <-solveDone; err != nil {
		t.Fatalf("solve disturbed by racing Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close after solve returned: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
	if err := p.SolveInto(dst, b); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("solve after Close = %v, want ErrPipelineClosed", err)
	}
}

// TestWatchdogChargesHangs checks a hang fault contributes the fixed
// 10ms watchdog budget to the wasted-time model.
func TestWatchdogChargesHangs(t *testing.T) {
	const budget = 10 * time.Millisecond
	if watchdogBudget != budget {
		t.Fatalf("watchdogBudget = %v, want %v", watchdogBudget, budget)
	}
	cfg := Config{
		K:     KAuto,
		Retry: RetryPolicy{BaseBackoff: time.Microsecond},
	}
	cfg.Device = faultDevice(&gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kernel: "", Block: 0, Kind: gpusim.FaultHang}},
	})
	b := workload.Batch[float64](workload.DiagDominant, 16, 128, 15)
	_, rep, err := Solve(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	fr := rep.Faults
	if fr == nil || fr.Faults == 0 {
		t.Fatal("hang schedule did not fire")
	}
	if fr.WastedModeledTime < budget {
		t.Fatalf("wasted modeled time %v, want at least one watchdog budget %v", fr.WastedModeledTime, budget)
	}
}
