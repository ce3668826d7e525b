package gputrid

import (
	"context"

	"gputrid/internal/batcher"
	"gputrid/internal/guard"
)

// Megabatch is the coalesced unit of work a batcher.Batcher hands to
// Pool.SolveMegabatch: Count real systems interleaved in V, solution
// in Xi, per-system outcomes in Verdicts. See the batcher package for
// the field contract.
type Megabatch[T Real] = batcher.Megabatch[T]

// SolveMegabatch solves one coalesced megabatch as Solve solves a
// batch, on the shape's dedicated megabatch station with the
// interleaved-native solve (no transpose at k = 0). The pool's verdict
// scans residuals from the megabatch's own scratch and records each
// system's outcome in its Verdict, so one corrupt system fails only
// the request that submitted it. A non-nil return fails the whole
// flight and is reserved for infrastructure errors (admission,
// cancellation, unrecovered whole-batch faults).
//
// It is a batcher.SolveFunc: a batcher built over it calls it from
// its flusher.
func (p *Pool[T]) SolveMegabatch(ctx context.Context, mb *Megabatch[T]) error {
	if mb.Count == 0 {
		return nil
	}
	device, err := p.lease(ctx, true, mb.V.M, mb.V.N, func(ctx context.Context, s *Solver[T]) error {
		return s.SolveInterleavedIntoCtx(ctx, mb.Xi, mb.V)
	})
	if err != nil {
		return err
	}
	// Verdict failures never reach the breaker (see Solve).
	guard.Judge(mb.V.Strided(mb.Xi), mb.Count, mb.Scratch, !device, func(rep guard.SystemReport) {
		v := batcher.Verdict{Rescued: device && rep.Stage == guard.StagePivot}
		if rep.Err != nil {
			v.Err = rep.Err
		}
		mb.Verdicts[rep.System] = v
	})
	return nil
}
