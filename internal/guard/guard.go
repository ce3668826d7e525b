// Package guard implements the guarded solve pipeline: per-system
// fault isolation around the hybrid fast path. The non-pivoting hybrid
// (tiled PCR + p-Thomas) is kept as the bulk solver, but instead of the
// all-or-nothing contract of batch verification — one degenerate system
// rejects the whole batch — every system is classified individually
// after the fast solve and only the failing ones are escalated through
// a ladder of increasingly expensive rescues:
//
//  1. iterative refinement against the cached (non-pivoting) hybrid
//     factorization of that system — repairs finite but
//     over-tolerance solutions at O(n) per round;
//  2. a pivoting GTSV re-solve of just that system — stable for any
//     nonsingular tridiagonal matrix, including the zero-pivot cases
//     the fast path turns into Inf/NaN;
//  3. a typed, errors.Is/As-able SolveError carrying the system index,
//     the last stage attempted, the best residual achieved, and a
//     lazily computed condition estimate.
//
// Repaired solutions are merged back into the batch result, so M-1
// healthy systems are never poisoned by one bad neighbour, and the
// per-system SystemReport makes the degradation observable instead of
// surfacing as NaNs downstream.
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

// Policy tunes the escalation ladder. The zero value is the production
// default: two refinement rounds, size-scaled tolerance, pivoting
// fallback on, condition estimates for rescued systems.
type Policy struct {
	// MaxRefine bounds the iterative-refinement rounds per failing
	// system. 0 means the default of 2; negative disables refinement
	// (failing systems go straight to the pivoting rung).
	MaxRefine int
	// Tolerance is the per-system residual acceptance threshold; 0
	// applies matrix.ResidualTolerance for the batch's N and precision.
	Tolerance float64
	// DisablePivotFallback skips the GTSV rung: systems refinement
	// cannot repair fail with a typed SolveError instead. Useful when
	// the caller wants the fast path's cost envelope strictly bounded.
	DisablePivotFallback bool
	// SkipConditionEstimate suppresses the lazy Hager-Higham κ₁
	// estimate on rescued/failed systems (saves a few pivoted solves
	// per rescued system).
	SkipConditionEstimate bool
	// Inject deterministically corrupts chosen systems before or after
	// the fast solve — the fault hook the ladder tests are built on.
	// Nil in production.
	Inject *Injection
}

func (p Policy) maxRefine() int {
	switch {
	case p.MaxRefine == 0:
		return 2
	case p.MaxRefine < 0:
		return 0
	default:
		return p.MaxRefine
	}
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
// once warmed) and owns the solution and residual arenas and the
// per-system report slice, so the steady-state happy path — every
// system passing its residual check — performs zero heap allocations
// per solve. Only the escalation rungs (which touch failing systems
// only) and the fault-injection clone allocate.
//
// A Runner is not safe for concurrent use, nor with other solves on
// its pipeline; the Pipeline rejects overlapping calls with
// core.ErrPipelineBusy.
type Runner[T num.Real] struct {
	pipe      *core.Pipeline[T]
	noDegrade bool // the pipeline's RetryPolicy.NoDegrade
	m, n      int

	x         []T       // merged solutions, aliased by Result.X
	resid     []float64 // per-system residuals of the fast solve
	isInvalid []bool    // per-system non-finite-input flags
	res       Result[T] // reused result; Reports/Failed re-sliced per solve
	gtsv      *cpu.StridedGTSV[T]
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
		resid:     make([]float64, m),
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
// layer degraded to the pivoting GTSV path are folded into the
// ladder's reporting as StagePivot — the guarantee is the same one
// rung 2 gives.
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
	nInvalid := 0
	var sys matrix.System[T]
	for i := 0; i < m; i++ {
		lo, hi := i*n, (i+1)*n
		sys.Lower, sys.Diag, sys.Upper, sys.RHS =
			work.Lower[lo:hi], work.Diag[lo:hi], work.Upper[lo:hi], work.RHS[lo:hi]
		r.isInvalid[i] = !sys.IsFinite()
		if r.isInvalid[i] {
			nInvalid++
		}
	}
	if nInvalid > 0 {
		if work == b {
			work = b.Clone()
		}
		for i := 0; i < m; i++ {
			if !r.isInvalid[i] {
				continue
			}
			s := work.System(i)
			for j := 0; j < n; j++ {
				s.Lower[j], s.Diag[j], s.Upper[j], s.RHS[j] = 0, 1, 0, 0
			}
		}
	}

	// Bulk fast path over the (sanitized) batch, into the arena. An
	// ErrFaulted here means the recovery layer already degraded the
	// affected systems to GTSV but some of them failed even that
	// (singular); their slots are zeroed, so the ladder below
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

	tol := pol.Tolerance
	if tol <= 0 {
		tol = matrix.ResidualTolerance[T](n)
	}

	res := &r.res
	res.X = x
	res.FastReport = fastRep
	res.Failed = res.Failed[:0]
	for i := range res.Reports {
		res.Reports[i] = SystemReport{}
	}
	matrix.ResidualsPerSystemInto(r.resid, work, x)
	di := 0 // cursor into the (ascending) degraded-system list
	for i := 0; i < m; i++ {
		rep := &res.Reports[i]
		rep.System = i
		for di < len(degraded) && degraded[di] < i {
			di++
		}
		fromGTSV := di < len(degraded) && degraded[di] == i
		if r.isInvalid[i] {
			rep.Stage = StageFailed
			rep.ResidualBefore = inf()
			rep.ResidualAfter = inf()
			rep.Err = &SolveError{System: i, Stage: StageFailed, Residual: inf(), Cause: ErrNonFiniteInput}
			clear(x[i*n : (i+1)*n])
			res.Failed = append(res.Failed, rep.Err)
			continue
		}
		r0 := r.resid[i]
		rep.ResidualBefore = r0
		if r0 <= tol {
			rep.Stage = StageFast
			if fromGTSV {
				// The fault-recovery layer already re-solved this system
				// through the pivoting path; report the rung that ran.
				rep.Stage = StagePivot
			}
			rep.ResidualAfter = r0
			continue
		}
		if r.gtsv == nil {
			r.gtsv = cpu.NewStridedGTSV[T](n)
		}
		escalate(work.Strided(x), i, tol, pol, fastRep.K, r.gtsv, rep)
		if rep.Err != nil {
			res.Failed = append(res.Failed, rep.Err)
		}
	}

	if len(res.Failed) == 0 {
		return res, nil
	}
	errs := make([]error, len(res.Failed))
	for i, e := range res.Failed {
		errs[i] = e
	}
	return res, errors.Join(errs...)
}

// poolPolicy is the serving pool's fixed verdict policy: a system over
// tolerance is re-solved on the pivoting host path only, with no
// refinement rounds and no condition estimate.
var poolPolicy = Policy{MaxRefine: -1, SkipConditionEstimate: true}

// Judge is the serving pool's verdict over systems [0, count) of v, in
// either layout: SolveCtx's ladder under poolPolicy. With host false
// it scans the residuals of the device solution in v.X and re-solves
// each system over tolerance on the pivoting host path; with host (the
// breaker-open route) it solves every system on that path. verdict is
// called for each re-solved system, with nil when it now passes, else
// with its *SolveError and its rows zeroed. scratch holds the
// interleaved scan's residuals and partials (4*count float64s); the
// contiguous layout needs none. A healthy batch does not allocate.
func Judge[T num.Real](v matrix.Strided[T], count int, scratch []float64, host bool, verdict func(i int, err error)) {
	tol := matrix.ResidualTolerance[T](v.N)
	interleaved := !host && v.RS != 1
	if interleaved {
		iv := matrix.Interleaved[T]{M: v.RS, N: v.N, Lower: v.Lower, Diag: v.Diag, Upper: v.Upper, RHS: v.RHS}
		matrix.ResidualsPerSystemInterleavedInto(scratch[:count], scratch[count:], &iv, v.X, count)
	}
	var g *cpu.StridedGTSV[T]
	for i := 0; i < count; i++ {
		r0 := inf()
		switch {
		case interleaved:
			r0 = scratch[i]
		case !host:
			lo, hi := i*v.SS, i*v.SS+v.N
			sys := matrix.System[T]{Lower: v.Lower[lo:hi], Diag: v.Diag[lo:hi], Upper: v.Upper[lo:hi], RHS: v.RHS[lo:hi]}
			r0 = matrix.Residual(&sys, v.X[lo:hi])
		}
		// A NaN residual (non-finite input or solution) fails too.
		if r0 <= tol {
			continue
		}
		if g == nil {
			g = cpu.NewStridedGTSV[T](v.N)
		}
		rep := SystemReport{System: i, ResidualBefore: r0}
		escalate(v, i, tol, poolPolicy, 0, g, &rep)
		if rep.Err != nil {
			verdict(i, rep.Err)
		} else {
			verdict(i, nil)
		}
	}
}

// escalate runs the ladder for one over-tolerance (or non-finite)
// system i of v on a gathered copy, writes the accepted solution (or
// zeros) back into its rows, and fills in the report.
func escalate[T num.Real](v matrix.Strided[T], i int,
	tol float64, pol Policy, k int, g *cpu.StridedGTSV[T], rep *SystemReport) {
	g.Gather(v, i)
	sys, xi := g.Sys, g.X
	cur := rep.ResidualBefore
	lastErr := error(nil)

	// Rung 1: iterative refinement against the cached non-pivoting
	// factorization — only worth attempting when the starting point is
	// finite (refinement cannot recover from Inf/NaN).
	if rounds := pol.maxRefine(); rounds > 0 && finiteVec(xi) {
		one := &matrix.Batch[T]{M: 1, N: v.N, Lower: sys.Lower, Diag: sys.Diag, Upper: sys.Upper, RHS: sys.RHS}
		if f, err := core.FactorHybrid(one, k); err == nil {
			r := make([]T, len(xi))
			e := make([]T, len(xi))
			for round := 0; round < rounds && cur > tol; round++ {
				ax := sys.Apply(xi)
				for j := range r {
					r[j] = sys.RHS[j] - ax[j]
				}
				if f.Solve(r, e) != nil {
					break
				}
				for j := range xi {
					xi[j] += e[j]
				}
				next := matrix.Residual(sys, xi)
				rep.Refinements = round + 1
				if !(next < cur) {
					cur = next
					break // stalled (or went non-finite): stop burning rounds
				}
				cur = next
			}
			if cur <= tol {
				g.Scatter(v, i)
				rep.Stage = StageRefine
				rep.ResidualAfter = cur
				return
			}
		} else {
			lastErr = err // zero pivot: the matrix needs pivoting
		}
	}

	// Rung 2: pivoting GTSV re-solve of this system only.
	if !pol.DisablePivotFallback {
		if err := g.Resolve(v, i); err != nil {
			lastErr = err
		} else if r := matrix.Residual(sys, xi); r <= tol {
			rep.Stage = StagePivot
			rep.ResidualAfter = r
			if !pol.SkipConditionEstimate {
				rep.CondEst = matrix.Cond1Est(sys, cpu.SolveGTSV[T])
			}
			return
		} else if r < cur || !finite(cur) {
			cur = r // keep the pivoted attempt's (better) residual for the report
		}
	}

	// Rung 3: structured failure. The solution rows are zeroed so the
	// merged X stays finite; the typed error carries the diagnosis.
	rep.Stage = StageFailed
	rep.ResidualAfter = cur
	if !pol.SkipConditionEstimate {
		rep.CondEst = matrix.Cond1Est(sys, cpu.SolveGTSV[T])
	}
	rep.Err = &SolveError{System: i, Stage: StagePivot, Residual: cur, CondEst: rep.CondEst, Cause: lastErr}
	if pol.DisablePivotFallback {
		rep.Err.Stage = StageRefine
	}
	clear(xi)
	g.Scatter(v, i)
}

func finiteVec[T num.Real](x []T) bool {
	for _, v := range x {
		if !num.IsFinite(v) {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func inf() float64 { return math.Inf(1) }
