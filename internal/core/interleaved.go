package core

import (
	"context"

	"gputrid/internal/matrix"
)

// This file is the interleaved-native pipeline entry: batches that are
// already in the interleaved layout (row j of system i at j*M+i — the
// layout the k = 0 p-Thomas kernel consumes and the batching
// front-end's megabatches are born in, per Gloster et al.
// arXiv:1909.04539) solve in that layout. At k = 0 neither entry
// transposes on a warm solve: this one's twin runs Thomas down the
// interleaved columns, the contiguous entry's over the caller's rows.
// The per-system arithmetic is identical either way, so results are
// bitwise equal to the contiguous path on the same data.

// LayoutStats counts how solves entered the pipeline. Snapshot via
// Pipeline.LayoutStats; safe to read concurrently with solves.
type LayoutStats struct {
	// InterleavedSolves counts solves entered through the
	// interleaved-native API (native and shimmed).
	InterleavedSolves uint64
	// InterleavedShim counts interleaved solves that had to convert
	// layouts anyway because the k >= 1 hybrid cannot consume them
	// natively.
	InterleavedShim uint64
}

// LayoutStats returns the pipeline's layout entry counters.
func (p *Pipeline[T]) LayoutStats() LayoutStats {
	return LayoutStats{
		InterleavedSolves: p.ilSolves.Load(),
		InterleavedShim:   p.ilShim.Load(),
	}
}

// SolveInterleavedInto solves an interleaved batch, writing the
// interleaved solution into xi (entry of system i at row j at j*M+i).
// See SolveInterleavedIntoCtx.
func (p *Pipeline[T]) SolveInterleavedInto(xi []T, v *matrix.Interleaved[T]) error {
	return p.SolveInterleavedIntoCtx(context.Background(), xi, v)
}

// SolveInterleavedIntoCtx is the interleaved-native form of
// SolveIntoCtx: v's planes and xi must be M·N interleaved, and xi must
// not alias v's slices. On the k = 0 path the kernel reads v and
// writes xi directly — no transpose runs at all, and after the first
// call the solve performs no heap allocations. Cancellation and fault
// recovery behave as in SolveIntoCtx with one difference: because the
// kernel writes xi in place, a cancelled k = 0 solve may leave xi
// partially written (the contiguous path's dst stays untouched). The
// error contract is unchanged — treat xi as garbage unless the solve
// returned nil.
//
// The k >= 1 hybrid cannot consume the layout: it converts through a
// lazily allocated contiguous scratch and solves as usual, so the
// entry point works for every pipeline; LayoutStats tells the two
// paths apart.
func (p *Pipeline[T]) SolveInterleavedIntoCtx(ctx context.Context, xi []T, v *matrix.Interleaved[T]) error {
	if err := p.checkShape(v.M, v.N, len(xi), v.Lower, v.Diag, v.Upper, v.RHS); err != nil {
		return err
	}
	ctx, start, err := p.admit(ctx)
	if err != nil {
		return err
	}
	defer p.release(start)
	p.ilSolves.Add(1)

	if p.k != 0 {
		p.ilShim.Add(1)
		if p.iscratchB == nil {
			p.iscratchB = matrix.NewBatch[T](p.m, p.n)
			p.iscratchX = make([]T, p.m*p.n)
		}
		v.ToBatchInto(p.iscratchB)
		if err := p.solveBatch(ctx, p.iscratchX, p.iscratchB); err != nil {
			return err
		}
		matrix.InterleaveVectorInto(xi, p.iscratchX, p.m, p.n)
		return nil
	}

	// Point the twin, and through bindRecording the kernel, at the
	// caller's planes for this solve only, so the pipeline does not keep
	// them alive.
	p.iv, p.x = v, xi
	err = p.execute(ctx)
	p.iv, p.x = nil, nil
	if err != nil {
		return err
	}
	return p.degradedResolve(v.Strided(xi))
}
