// Package guard implements the guarded solve pipeline: per-system
// fault isolation around the hybrid fast path. The non-pivoting hybrid
// (tiled PCR + p-Thomas) is kept as the bulk solver, but instead of the
// all-or-nothing contract of batch verification — one degenerate system
// rejects the whole batch — every system is classified individually
// after the fast solve and only the failing ones are rescued:
//
//  1. a pivoting GTSV re-solve of just that system — backward stable
//     for any nonsingular tridiagonal matrix (partial pivoting's growth
//     factor is at most 2 there), including the zero-pivot cases the
//     fast path turns into Inf/NaN;
//  2. a typed, errors.Is/As-able SolveError carrying the system index,
//     the stage attempted, the best residual achieved, and (from
//     SolveGuarded) a condition estimate.
//
// Repaired solutions are merged back into the batch result, so M-1
// healthy systems are never poisoned by one bad neighbour, and the
// per-system SystemReport makes the degradation observable instead of
// surfacing as NaNs downstream.
//
// Judge is that classification for every caller: the Runner behind
// SolveGuarded, the pool's direct, coalesced and breaker-open routes,
// and a distributed solve whose answer went non-finite.
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Policy is the caller's hook into SolveGuarded. The verdict itself is
// not tunable: every solve judges at the size-scaled tolerance
// matrix.ResidualTolerance and rescues on the pivoting host path.
type Policy struct {
	// Inject deterministically corrupts chosen systems before or after
	// the fast solve — the fault hook the verdict tests are built on.
	// Nil in production.
	Inject *Injection
}

// Result is a guarded batch solve: the merged solutions, the per-system
// reports, the typed failures (also joined into the error SolveCtx
// returns), and the fast path's execution report.
type Result[T num.Real] struct {
	// X holds the M solutions contiguously. Always fully finite:
	// unrecoverable systems are zeroed and carry a SolveError instead
	// of Inf/NaN markers.
	X []T
	// Reports has one entry per system, in batch order.
	Reports []SystemReport
	// Failed lists the unrecoverable systems' errors (same *SolveError
	// values the reports reference), empty when every system solved.
	Failed []*SolveError
	// FastReport is the device execution report of the bulk fast-path
	// solve.
	FastReport *core.Report
}

// Stages counts the systems per final stage, for summary diagnostics.
func (r *Result[T]) Stages() map[Stage]int {
	m := make(map[Stage]int)
	for _, rep := range r.Reports {
		m[rep.Stage]++
	}
	return m
}

// Runner is a reusable guarded solver for one fixed batch shape. It
// runs its bulk fast path on its owner's core.Pipeline (allocation-free
// once warmed), hands classification to Judge, and owns the solution
// arena and the per-system report slice, so the steady-state happy
// path — every system passing its residual check — performs zero heap
// allocations per solve. Only the rescue
// (which touches failing systems only), the condition estimate of a
// failed system and the fault-injection clone allocate.
//
// A Runner is not safe for concurrent use, nor with other solves on
// its pipeline; the Pipeline rejects overlapping calls with
// core.ErrPipelineBusy.
type Runner[T num.Real] struct {
	pipe      *core.Pipeline[T]
	noDegrade bool // the pipeline's RetryPolicy.NoDegrade
	m, n      int

	x         []T       // merged solutions, aliased by Result.X
	isInvalid []bool    // per-system non-finite-input flags
	res       Result[T] // reused result; Reports/Failed re-sliced per solve
}

// NewRunner builds a guarded runner over p, whose shape it takes.
// noDegrade must be the RetryPolicy.NoDegrade p was configured with: it
// makes a fast-path ErrFaulted a hard batch failure.
func NewRunner[T num.Real](p *core.Pipeline[T], noDegrade bool) *Runner[T] {
	m, n := p.Shape()
	r := &Runner[T]{
		pipe:      p,
		noDegrade: noDegrade,
		m:         m,
		n:         n,
		x:         make([]T, m*n),
		isInvalid: make([]bool, m),
	}
	r.res.Reports = make([]SystemReport, m)
	return r
}

// SolveCtx runs the guarded pipeline over the batch, which must match
// the Runner's shape, with cooperative cancellation and transient-fault
// recovery (see core.Pipeline.SolveIntoCtx). The returned error is nil
// when every system produced a tolerance-passing solution (possibly
// after rescue); otherwise it is the errors.Join of the per-system
// SolveErrors — the Result is still valid and carries the healthy
// systems' solutions. Infrastructure failures (shape mismatches,
// cancellation, a hard ErrFaulted) return a nil Result; a cancelled
// solve's error matches core.ErrCancelled. Systems the fault-recovery
// layer degraded to the pivoting GTSV path are reported as
// StagePivot — the guarantee is the same one the verdict's rescue
// gives. A system that failed carries the Hager-Higham κ₁ estimate of
// its matrix in its report and its SolveError.
//
// The Result aliases the Runner's arenas (X, Reports) and is valid
// until the next solve; callers that need the data longer must copy
// it out.
func (r *Runner[T]) SolveCtx(ctx context.Context, b *matrix.Batch[T], pol Policy) (*Result[T], error) {
	m, n := r.m, r.n
	if b.M != m || b.N != n {
		return nil, fmt.Errorf("guard: batch shape %dx%d does not match runner shape %dx%d: %w",
			b.M, b.N, m, n, core.ErrShapeMismatch)
	}
	if len(b.Lower) != m*n || len(b.Diag) != m*n || len(b.Upper) != m*n || len(b.RHS) != m*n {
		return nil, fmt.Errorf("guard: batch slice lengths do not match M*N=%d", m*n)
	}

	// Fault injection mutates a private clone, never the caller's data.
	work := b
	if pol.Inject != nil && pol.Inject.touchesInput() {
		work = b.Clone()
		injectBatch(pol.Inject, work)
	}

	// Per-system input scan: systems with NaN/Inf coefficients are
	// garbage-in, not numerical breakdown. They are replaced by
	// identity systems for the bulk solve (keeping the kernel free of
	// input poison) and reported as failed with ErrNonFiniteInput.
	// The stack-allocated System view keeps the all-finite scan free
	// of per-system allocations.
	var sys matrix.System[T]
	for i := 0; i < m; i++ {
		lo, hi := i*n, (i+1)*n
		sys.Lower, sys.Diag, sys.Upper, sys.RHS =
			work.Lower[lo:hi], work.Diag[lo:hi], work.Upper[lo:hi], work.RHS[lo:hi]
		if r.isInvalid[i] = !sys.IsFinite(); !r.isInvalid[i] {
			continue
		}
		if work == b {
			work = b.Clone()
		}
		for j := lo; j < hi; j++ {
			work.Lower[j], work.Diag[j], work.Upper[j], work.RHS[j] = 0, 1, 0, 0
		}
	}

	// Bulk fast path over the (sanitized) batch, into the arena. An
	// ErrFaulted here means the recovery layer already degraded the
	// affected systems to GTSV but some of them failed even that
	// (singular); their slots are zeroed, so the verdict below
	// re-classifies them per system instead of failing the batch.
	// Under NoDegrade an ErrFaulted is a hard batch failure by request.
	if err := r.pipe.SolveIntoCtx(ctx, r.x, work); err != nil {
		if !errors.Is(err, core.ErrFaulted) || r.noDegrade {
			return nil, err
		}
	}
	x := r.x
	fastRep := r.pipe.Report()
	var degraded []int
	if fastRep.Faults != nil {
		degraded = fastRep.Faults.Degraded
	}
	if pol.Inject != nil {
		injectSolution(pol.Inject, x, m, n)
	}

	res := &r.res
	res.X = x
	res.FastReport = fastRep
	res.Failed = res.Failed[:0]
	di := 0 // cursor into the (ascending) degraded-system list
	Judge(work.Strided(x), m, nil, false, func(rep SystemReport) {
		i := rep.System
		for di < len(degraded) && degraded[di] < i {
			di++
		}
		switch {
		case r.isInvalid[i]:
			// Judge saw the identity stand-in; the input was garbage.
			rep = SystemReport{System: i, Stage: StageFailed, ResidualBefore: inf(), ResidualAfter: inf(),
				Err: &SolveError{System: i, Stage: StageFailed, Residual: inf(), Cause: ErrNonFiniteInput}}
			clear(x[i*n : (i+1)*n])
		case rep.Stage == StageFast && di < len(degraded) && degraded[di] == i:
			// The fault-recovery layer already re-solved this system
			// through the pivoting path; report the step that ran.
			rep.Stage = StagePivot
		case rep.Err != nil:
			// Only a failed system is worth the estimate's few pivoted
			// solves: it diagnoses why the rescue could not help.
			rep.CondEst = matrix.Cond1Est(work.System(i), cpu.SolveGTSV[T])
			rep.Err.CondEst = rep.CondEst
		}
		res.Reports[i] = rep
		if rep.Err != nil {
			res.Failed = append(res.Failed, rep.Err)
		}
	})

	if len(res.Failed) == 0 {
		return res, nil
	}
	errs := make([]error, len(res.Failed))
	for i, e := range res.Failed {
		errs[i] = e
	}
	return res, errors.Join(errs...)
}

// Judge is the one per-system verdict, over systems [0, count) of v in
// either layout, at tolerance matrix.ResidualTolerance(v.N). With host
// false it scans the residuals of the solution in v.X and re-solves
// each system over tolerance (a NaN residual fails too) on the
// pivoting host path; with host (the pool's breaker-open route) it
// solves every system there. report is called once per system, in
// order, with what the verdict did to it; a system the pivoting
// re-solve could not bring under tolerance carries its *SolveError and
// has its rows zeroed. scratch holds the interleaved scan's residuals
// and partials (4*count float64s); the contiguous layout needs none. A
// healthy batch does not allocate.
func Judge[T num.Real](v matrix.Strided[T], count int, scratch []float64, host bool, report func(SystemReport)) {
	tol := matrix.ResidualTolerance[T](v.N)
	interleaved := !host && v.RS != 1
	if interleaved {
		iv := matrix.Interleaved[T]{M: v.RS, N: v.N, Lower: v.Lower, Diag: v.Diag, Upper: v.Upper, RHS: v.RHS}
		matrix.ResidualsPerSystemInterleavedInto(scratch[:count], scratch[count:], &iv, v.X, count)
	}
	var g *cpu.StridedGTSV[T]
	for i := 0; i < count; i++ {
		rep := SystemReport{System: i, ResidualBefore: inf()}
		switch {
		case interleaved:
			rep.ResidualBefore = scratch[i]
		case !host:
			lo, hi := i*v.SS, i*v.SS+v.N
			sys := matrix.System[T]{Lower: v.Lower[lo:hi], Diag: v.Diag[lo:hi], Upper: v.Upper[lo:hi], RHS: v.RHS[lo:hi]}
			rep.ResidualBefore = matrix.Residual(&sys, v.X[lo:hi])
		}
		if rep.ResidualBefore <= tol {
			rep.ResidualAfter = rep.ResidualBefore
		} else {
			if g == nil {
				g = cpu.NewStridedGTSV[T](v.N)
			}
			rescue(v, i, tol, g, &rep)
		}
		report(rep)
	}
}

// rescue re-solves the over-tolerance (or non-finite) system i of v
// with the pivoting GTSV algorithm, which is backward stable for any
// nonsingular tridiagonal matrix, and fills in the report. A system it cannot
// bring under tolerance is failed: its rows are zeroed so the merged
// solution stays finite, and the typed error carries the diagnosis.
func rescue[T num.Real](v matrix.Strided[T], i int, tol float64, g *cpu.StridedGTSV[T], rep *SystemReport) {
	cur := rep.ResidualBefore
	err := g.Resolve(v, i)
	if err == nil {
		r := matrix.Residual(g.Sys, g.X)
		if r <= tol {
			rep.Stage = StagePivot
			rep.ResidualAfter = r
			return
		}
		if r < cur || !num.IsFinite(cur) {
			cur = r // keep the pivoted attempt's (better) residual for the report
		}
		clear(g.X)
		g.Scatter(v, i)
	}
	rep.Stage = StageFailed
	rep.ResidualAfter = cur
	rep.Err = &SolveError{System: i, Stage: StagePivot, Residual: cur, Cause: err}
}

func inf() float64 { return math.Inf(1) }
