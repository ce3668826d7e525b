package core

import (
	"context"
	"errors"
	"fmt"

	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/pthomas"
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
		if err := p.solveHybrid(ctx, p.iscratchX, p.iscratchB); err != nil {
			return err
		}
		matrix.InterleaveVectorInto(xi, p.iscratchX, p.m, p.n)
		return nil
	}

	// Point the kernel and its twin at the caller's planes for this
	// solve; the binding is restored before returning, so the
	// contiguous entry writes its arena's xi again and the pipeline
	// does not keep the caller's planes alive.
	p.bindK0(v, xi)
	defer p.bindK0(nil, p.xi)
	if err := p.execute(ctx); err != nil {
		return err
	}
	return p.degradedResolveInterleaved(xi, v)
}

// bindK0 points the k = 0 kernel and its host twin at interleaved
// planes v and solution xi; a nil v binds no input planes, which only
// the contiguous entry's twin, reading the caller's rows, can run
// with. NewBufs/NewGlobal are value constructors and the c'/d' scratch
// already exists after construction, so a rebind allocates nothing.
func (p *Pipeline[T]) bindK0(v *matrix.Interleaved[T], xi []T) {
	cp, dp := p.ws.Ensure(p.m * p.n)
	var a, b, c, d []T
	if v != nil {
		a, b, c, d = v.Lower, v.Diag, v.Upper, v.RHS
	}
	p.bufs = pthomas.NewBufs(a, b, c, d, cp, dp, xi)
	p.iv = v
}

// degradedResolveInterleaved is degradedResolve for the native path:
// every degraded system is extracted from the interleaved planes,
// re-solved on the host through the pivoting GTSV path, and written
// back into xi with the interleaved stride. It allocates per degraded
// system — an acceptable cost on a path that only runs after the retry
// budget is spent.
func (p *Pipeline[T]) degradedResolveInterleaved(xi []T, v *matrix.Interleaved[T]) error {
	if len(p.frep.Degraded) == 0 {
		return nil
	}
	if p.gtsvWS == nil {
		p.gtsvWS = cpu.NewGTSVWorkspace[T](p.n)
	}
	x := make([]T, p.n)
	var errs []error
	for _, i := range p.frep.Degraded {
		sys := v.ExtractSystem(i)
		if err := cpu.SolveGTSVInto(sys, x, p.gtsvWS); err != nil {
			clear(x)
			errs = append(errs, fmt.Errorf("%w: degraded re-solve of system %d: %v", ErrFaulted, i, err))
		}
		for j := 0; j < p.n; j++ {
			xi[j*p.m+i] = x[j]
		}
	}
	return errors.Join(errs...)
}
