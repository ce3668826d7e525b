package gputrid

import (
	"context"
	"fmt"
	"time"

	"gputrid/internal/core"
	"gputrid/internal/guard"
)

// Typed errors of the reusable Solver, matchable with errors.Is through
// the "gputrid:"-prefixed wrappers the methods return.
var (
	// ErrSolverBusy reports a SolveBatchInto that overlapped another
	// call on the same Solver. The Solver stays fully usable; no state
	// was touched. Distinct Solvers may always run concurrently.
	ErrSolverBusy = core.ErrPipelineBusy
	// ErrSolverClosed reports a call after Close.
	ErrSolverClosed = core.ErrPipelineClosed
	// ErrShapeMismatch reports a batch or destination whose shape does
	// not match the one the Solver was built for.
	ErrShapeMismatch = core.ErrShapeMismatch
)

// Solver is a reusable solver for one fixed batch shape (M systems of
// N rows each). NewSolver pre-allocates every scratch buffer the
// hybrid pipeline needs — device arrays, sliding-window rings,
// p-Thomas workspaces, interleave planes — so a warmed Solver runs
// SolveBatchInto with zero steady-state heap allocations.
//
// The simulated device events recorded in Stats are a pure function of
// the shape and configuration, not of the coefficient values, so they
// are recorded once per process and geometry, simulating the kernels
// with no fault model attached, and cached. Every solve, the first
// included, computes its solution on plain-Go twins of the kernels at
// host speed (sharded across a bounded worker pool, see WithWorkers);
// injected faults strike the twins. Results are bitwise identical to
// the one-shot SolveBatch.
//
// A Solver is not safe for concurrent use: overlapping calls return
// ErrSolverBusy (never corrupt state). Distinct Solvers are
// independent and safe to use from different goroutines.
type Solver[T Real] struct {
	c    config
	m, n int
	pipe *core.Pipeline[T]
	// runner is the guarded solve over pipe, built on first
	// SolveGuarded.
	runner *guard.Runner[T]
	gres   GuardedResult[T]
	gresu  Result[T]
}

// NewSolver builds a reusable solver for batches of m systems of n
// rows, applying the same options as SolveBatch plus WithWorkers.
// Callers that solve many same-shaped batches (time stepping, ADI
// sweeps) should build one Solver and reuse it; one-shot callers can
// stay with SolveBatch, which wraps a transient pipeline.
func NewSolver[T Real](m, n int, opts ...Option) (*Solver[T], error) {
	c := buildConfig(opts)
	p, err := core.NewPipeline[T](c.coreConfig(), m, n)
	if err != nil {
		return nil, fmt.Errorf("gputrid: %w", err)
	}
	return &Solver[T]{c: c, m: m, n: n, pipe: p}, nil
}

// SolveBatchInto solves every system of the batch into dst (natural
// order: row j of system i at dst[i*N+j]), which must have length M*N.
// After the first (recording) solve it performs no heap allocations.
//
// Unlike SolveBatch it does not run the O(M·N) input Validate pass;
// non-finite coefficients propagate into the solution. Callers wanting
// a checked answer use SolveGuarded, or Residual selectively.
func (s *Solver[T]) SolveBatchInto(dst []T, b *Batch[T]) error {
	if err := s.pipe.SolveInto(dst, b); err != nil {
		return fmt.Errorf("gputrid: %w", err)
	}
	return nil
}

// SolveBatchIntoCtx is SolveBatchInto with cooperative cancellation and
// transient-fault recovery. Once ctx is done the solve stops promptly
// — between kernel blocks and during retry backoff waits — with no
// goroutine leaks, returning an error matching both ErrCancelled and
// the context's own error; dst is written at whole-system granularity,
// so every healthy system's rows are either fully written or untouched.
// With a fault-injecting device (WithFaultInjection), transient
// LaunchErrors are retried per WithRetry and the recovered solution is
// bitwise identical to a fault-free solve; systems that exhaust the
// budget degrade to the host pivoting path (inspect FaultReport), or
// fail with ErrFaulted under RetryPolicy.NoDegrade. An uncancellable
// context (Background, TODO, nil) adds no per-block checks — the solve
// is identical to SolveBatchInto.
func (s *Solver[T]) SolveBatchIntoCtx(ctx context.Context, dst []T, b *Batch[T]) error {
	if err := s.pipe.SolveIntoCtx(ctx, dst, b); err != nil {
		return fmt.Errorf("gputrid: %w", err)
	}
	return nil
}

// SolveInterleavedInto solves a batch already in the interleaved
// layout (row j of system i at j*M+i), writing the solution into xi
// interleaved the same way. On the k = 0 path the kernels consume the
// caller's planes directly, no layout conversion runs, and after the
// first solve the call performs no heap allocations. Results are
// bitwise identical to SolveBatchInto on the same data in the
// contiguous layout; the batching front-end builds its megabatches in
// this layout so appending a request is a strided copy and the solve
// is conversion-free end to end. LayoutStats counts these solves.
//
// xi must not alias v's slices. The k >= 1 hybrid cannot consume the
// layout natively and converts through an internal scratch — correct,
// but no faster than SolveBatchInto.
func (s *Solver[T]) SolveInterleavedInto(xi []T, v *Interleaved[T]) error {
	return s.SolveInterleavedIntoCtx(context.Background(), xi, v)
}

// SolveInterleavedIntoCtx is SolveInterleavedInto with cooperative
// cancellation and transient-fault recovery (see SolveBatchIntoCtx).
// One divergence from the contiguous entry: the k = 0 kernels write
// xi in place, so a cancelled solve may leave xi partially written —
// treat xi as garbage unless the call returned nil.
func (s *Solver[T]) SolveInterleavedIntoCtx(ctx context.Context, xi []T, v *Interleaved[T]) error {
	if err := s.pipe.SolveInterleavedIntoCtx(ctx, xi, v); err != nil {
		return fmt.Errorf("gputrid: %w", err)
	}
	return nil
}

// LayoutStats reports how solves entered the Solver: how many came
// through the interleaved entry, and how many of those the k >= 1
// hybrid had to convert. Safe to call concurrently with solves.
func (s *Solver[T]) LayoutStats() LayoutStats { return s.pipe.LayoutStats() }

// FaultReport describes the fault-recovery activity of the Solver's
// most recent solve: nil when nothing fired, otherwise the
// retry/degradation/wasted-time accounting of that solve. The report aliases the Solver's arena —
// read it before the next solve resets it.
func (s *Solver[T]) FaultReport() *FaultReport {
	return faultsOf(s.pipe.Report())
}

// SolveGuarded runs the guarded pipeline (see the package-level
// SolveGuarded) through the Solver's reusable machinery: the bulk fast
// path and the per-system residual scan are allocation-free, with only
// the rescue of failing systems allocating. The returned result
// aliases the Solver's arenas and is valid until the next SolveGuarded
// call or Close.
func (s *Solver[T]) SolveGuarded(b *Batch[T]) (*GuardedResult[T], error) {
	return s.SolveGuardedCtx(context.Background(), b)
}

// SolveGuardedCtx is SolveGuarded with cooperative cancellation and
// transient-fault recovery (see SolveBatchIntoCtx). A cancelled solve
// returns a nil result with an error matching ErrCancelled. Systems
// the recovery layer degraded to the host pivoting path appear in the
// per-system reports as StagePivot.
func (s *Solver[T]) SolveGuardedCtx(ctx context.Context, b *Batch[T]) (*GuardedResult[T], error) {
	if s.runner == nil {
		s.runner = guard.NewRunner(s.pipe, s.c.retry.NoDegrade)
	}
	var pol GuardPolicy
	if s.c.guard != nil {
		pol = *s.c.guard
	}
	start := time.Now()
	gres, err := s.runner.SolveCtx(ctx, b, pol)
	if gres == nil {
		return nil, fmt.Errorf("gputrid: %w", err)
	}
	s.gresu = resultOf(gres.X, gres.FastReport, s.c.device, time.Since(start))
	s.gres = GuardedResult[T]{Result: &s.gresu, Reports: gres.Reports, Failed: gres.Failed}
	if err != nil {
		err = fmt.Errorf("gputrid: %w", err)
	}
	return &s.gres, err
}

// Shape returns the fixed (M, N) the Solver was built for.
func (s *Solver[T]) Shape() (m, n int) { return s.m, s.n }

// K returns the resolved number of PCR steps.
func (s *Solver[T]) K() int { return s.pipe.K() }

// BlocksPerSystem returns the resolved Fig. 11 front-end block mapping.
func (s *Solver[T]) BlocksPerSystem() int { return s.pipe.Report().BlocksPerSystem }

// Workers returns the size of the replay worker pool.
func (s *Solver[T]) Workers() int { return s.pipe.Workers() }

// Stats returns the recorded device events of a solve at this shape
// (identical for every solve; zero before the first one).
func (s *Solver[T]) Stats() *Stats { return s.pipe.Report().Stats }

// ModeledTime returns the cost model's execution-time estimate for the
// kernels of one solve; valid after the first solve.
func (s *Solver[T]) ModeledTime() time.Duration {
	return secondsToDuration(modeled[T](s.c.device, s.pipe.Report()))
}

// LastSolveTime returns the measured host duration of the Solver's
// most recent solve (zero before the first one). The serving Pool
// feeds it to its per-shape service-time EWMA for deadline-aware
// admission control.
func (s *Solver[T]) LastSolveTime() time.Duration { return s.pipe.LastSolveTime() }

// Close releases the worker pools. Subsequent solves return
// ErrSolverClosed; Close is idempotent (repeat calls return nil). A
// Close racing an in-flight solve does not tear the solve down: it
// returns an error matching ErrSolverBusy and leaves the Solver fully
// usable — call Close again once the solve has returned (or cancel it
// first via SolveBatchIntoCtx's context).
func (s *Solver[T]) Close() error {
	if err := s.pipe.Close(); err != nil {
		return fmt.Errorf("gputrid: %w", err)
	}
	return nil
}
