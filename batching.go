package gputrid

import (
	"context"
	"fmt"

	"gputrid/internal/batcher"
	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
)

// Megabatch is the coalesced unit of work a batcher.Batcher hands to
// Pool.SolveMegabatch: Count real systems interleaved in V, solution
// in Xi, per-system outcomes in Verdicts. See the batcher package for
// the field contract.
type Megabatch[T Real] = batcher.Megabatch[T]

// SolveMegabatch solves one coalesced megabatch through a pooled
// megabatch solver lease: route through the breaker, acquire from the
// shape's dedicated megabatch station, run the interleaved-native
// solve (no transpose at k = 0), then scan per-system residuals from
// the megabatch's own scratch and rescue any failing system on the
// host pivoting path — recording the outcome in that system's Verdict
// so one corrupt system fails only the request that submitted it.
// With the breaker open, every system is served individually on the
// host path instead. A non-nil return fails the whole flight and is
// reserved for infrastructure errors (admission, cancellation,
// unrecovered whole-batch faults).
//
// It is a batcher.SolveFunc: a batcher built over it calls it from
// its flusher.
func (p *Pool[T]) SolveMegabatch(ctx context.Context, mb *Megabatch[T]) error {
	if mb.Count == 0 {
		return nil
	}
	device, probe := p.inner.Route()
	if !device {
		return p.megaFallback(ctx, mb)
	}
	// Guard failures below never reach the breaker: they indicate sick
	// input systems, not a sick device.
	if err := p.lease(ctx, probe, true, mb.V.M, mb.V.N, func(ctx context.Context, s *Solver[T]) error {
		return s.SolveInterleavedIntoCtx(ctx, mb.Xi, mb.V)
	}); err != nil {
		return err
	}
	p.guardMegabatch(mb)
	return nil
}

// guardMegabatch scans per-system residuals (allocation-free, from
// the megabatch's scratch) and rescues failing systems on the host
// pivoting path, filling per-system Verdicts. The rescue is the cold
// path: it allocates, but only once a system has already failed its
// residual check.
func (p *Pool[T]) guardMegabatch(mb *Megabatch[T]) {
	m := mb.V.M
	tol := matrix.ResidualTolerance[T](mb.V.N)
	res := mb.Scratch[:m]
	matrix.ResidualsPerSystemInterleavedInto(res, mb.Scratch[m:], mb.V, mb.Xi, mb.Count)
	var h *hostSolver[T]
	for i := 0; i < mb.Count; i++ {
		// NaN residuals (from non-finite inputs) must fail too, so
		// compare through the negation.
		if res[i] <= tol {
			continue
		}
		if h == nil {
			h = newHostSolver(mb)
		}
		r := res[i]
		switch rr, ok, err := h.solve(i, tol); {
		case err != nil:
			mb.Verdicts[i].Err = fmt.Errorf(
				"gputrid: system residual %.3e exceeds tolerance %.3e and host rescue failed: %w", r, tol, err)
		case !ok:
			mb.Verdicts[i].Err = fmt.Errorf(
				"gputrid: system unsolvable within tolerance %.3e (fast %.3e, host rescue %.3e)", tol, r, rr)
		default:
			mb.Verdicts[i].Rescued = true
		}
	}
}

// megaFallback serves a megabatch with the breaker open: every system
// individually on the host pivoting path, with per-system verdicts —
// the megabatch analogue of solveFallback.
func (p *Pool[T]) megaFallback(ctx context.Context, mb *Megabatch[T]) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("gputrid: %w: %w", ErrCancelled, err)
	}
	tol := matrix.ResidualTolerance[T](mb.V.N)
	h := newHostSolver(mb)
	for i := 0; i < mb.Count; i++ {
		switch rr, ok, err := h.solve(i, tol); {
		case err != nil:
			mb.Verdicts[i].Err = fmt.Errorf("gputrid: fallback: %w", err)
		case !ok:
			mb.Verdicts[i].Err = fmt.Errorf(
				"gputrid: fallback residual %.3e exceeds tolerance %.3e", rr, tol)
		}
	}
	p.inner.RecordFallback()
	return nil
}

// hostSolver re-solves single megabatch systems on the host pivoting
// path through one workspace.
type hostSolver[T Real] struct {
	mb *Megabatch[T]
	w  *cpu.GTSVWorkspace[T]
	x  []T
}

func newHostSolver[T Real](mb *Megabatch[T]) *hostSolver[T] {
	n := mb.V.N
	return &hostSolver[T]{mb: mb, w: cpu.NewGTSVWorkspace[T](n), x: make([]T, n)}
}

// solve re-solves system i and returns its residual rr. ok reports
// rr within tol (a NaN residual is not), and only then is the solution
// scattered into Xi.
func (h *hostSolver[T]) solve(i int, tol float64) (rr float64, ok bool, err error) {
	mb := h.mb
	sys := mb.V.ExtractSystem(i)
	if err := cpu.SolveGTSVInto(sys, h.x, h.w); err != nil {
		return 0, false, err
	}
	rr = matrix.Residual(sys, h.x)
	if !(rr <= tol) {
		return rr, false, nil
	}
	for j, v := range h.x {
		mb.Xi[j*mb.V.M+i] = v
	}
	return rr, true, nil
}
