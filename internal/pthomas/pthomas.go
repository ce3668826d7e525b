// Package pthomas implements the thread-level parallel Thomas algorithm
// of paper §III.B: every thread solves one complete tridiagonal system
// with the classic O(n) two-sweep recurrence, and coalescing comes
// entirely from the memory layout — systems are interleaved so that
// consecutive threads touch consecutive addresses on every step.
//
// The pipeline in internal/core embeds the two per-thread bodies in
// its own kernels:
//
//   - ThreadInterleaved solves one of M systems stored in the
//     interleaved layout (row j of system i at j·M+i), one thread per
//     system: the k = 0 path of the hybrid.
//
//   - ThreadStrided solves one of the 2^k interleaved subsystems that
//     k-step PCR leaves inside each of M contiguously stored systems
//     (row l of subsystem r of system i at i·N + r + l·2^k), 2^k
//     threads per original system: the hybrid's back-end. The access
//     pattern is consecutive across a block's threads, which is why
//     the paper calls PCR's output a "perfect match".
//
// SolveStridedRefInto and SolveInterleavedRangeInto are their host
// twins, the same recurrence over plain slices with c'/d' scratch from
// a caller-owned Workspace. KernelStrided is the one standalone
// launch, the back-end of the Fig. 11(c) multiplexed ablation.
//
// No form pivots: a vanishing pivot yields Inf/NaN in that system's
// solution rather than an error, as on real hardware.
package pthomas

import (
	"fmt"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Workspace holds the forward-sweep scratch (the modified coefficients
// c' and d' of Eqs. 2-3) shared by every solver variant in this
// package. Ensure grows it on demand and keeps capacity across calls,
// so one workspace serves solves of any size with allocations only
// when the requested size first exceeds what it holds.
type Workspace[T num.Real] struct {
	Cp, Dp []T
}

// Ensure returns cp/dp slices of exactly size elements, reallocating
// only when the workspace is too small.
func (w *Workspace[T]) Ensure(size int) (cp, dp []T) {
	if cap(w.Cp) < size {
		w.Cp = make([]T, size)
	}
	if cap(w.Dp) < size {
		w.Dp = make([]T, size)
	}
	return w.Cp[:size], w.Dp[:size]
}

// Bufs bundles the device-global arrays a p-Thomas thread touches: the
// four coefficient arrays, the c'/d' scratch, and the solution.
type Bufs[T num.Real] struct {
	A, B, C, D, Cp, Dp, X gpusim.Global[T]
}

// NewBufs wraps the slices as device-global arrays.
func NewBufs[T num.Real](a, b, c, d, cp, dp, x []T) Bufs[T] {
	return Bufs[T]{
		A: gpusim.NewGlobal(a), B: gpusim.NewGlobal(b),
		C: gpusim.NewGlobal(c), D: gpusim.NewGlobal(d),
		Cp: gpusim.NewGlobal(cp), Dp: gpusim.NewGlobal(dp),
		X: gpusim.NewGlobal(x),
	}
}

// KernelStrided solves, for every system of the contiguous batch
// (a, b, c, d) of M systems × N rows, the 2^k interleaved subsystems
// produced by k-step PCR. One thread block of 2^k threads handles one
// system; thread r solves subsystem r (rows r, r+2^k, r+2·2^k, ...).
// The returned solution vector is in natural row order (length M·N).
func KernelStrided[T num.Real](dev *gpusim.Device, a, b, c, d []T, m, n, k int) ([]T, *gpusim.Stats, error) {
	if k < 0 {
		return nil, nil, fmt.Errorf("pthomas: negative k")
	}
	p := 1 << k
	if p > dev.MaxThreadsPerBlock {
		return nil, nil, fmt.Errorf("pthomas: 2^k = %d exceeds max threads per block %d", p, dev.MaxThreadsPerBlock)
	}
	if len(a) != m*n || len(b) != m*n || len(c) != m*n || len(d) != m*n {
		return nil, nil, fmt.Errorf("pthomas: array lengths do not match M*N = %d", m*n)
	}
	x, cp, dp := make([]T, m*n), make([]T, m*n), make([]T, m*n)
	g := NewBufs(a, b, c, d, cp, dp, x)
	st, err := dev.Launch("pThomasStrided", gpusim.LaunchConfig{Grid: m, Block: p},
		func(blk *gpusim.Block) {
			base := blk.ID * n
			blk.PhaseNoSync(func(t *gpusim.Thread) {
				r := t.ID
				if r >= n {
					return
				}
				ThreadStrided(t, &g, base, r, p, n)
			})
		})
	if err != nil {
		return nil, nil, err
	}
	return x, st, nil
}

// ThreadInterleaved runs Thomas for one system of an interleaved
// batch: row l lives at l*m + sys. Pipelines embed it in their own
// pre-built kernel closures.
//
//tridlint:hotpath
func ThreadInterleaved[T num.Real](t *gpusim.Thread, g *Bufs[T], sys, m, n int) {
	// Local array handles and batched step accounting, as in
	// ThreadStrided.
	gA, gB, gC, gD, gCp, gDp, gX := g.A, g.B, g.C, g.D, g.Cp, g.Dp, g.X
	// Forward reduction (paper Eqs. 2-3).
	idx := sys
	bv := gB.Load(t, idx)
	cpPrev := gC.Load(t, idx) / bv
	dpPrev := gD.Load(t, idx) / bv
	gCp.Store(t, idx, cpPrev)
	gDp.Store(t, idx, dpPrev)
	for l := 1; l < n; l++ {
		idx = l*m + sys
		av := gA.Load(t, idx)
		den := gB.Load(t, idx) - cpPrev*av
		inv := 1 / den
		cpPrev = gC.Load(t, idx) * inv
		dpPrev = (gD.Load(t, idx) - dpPrev*av) * inv
		gCp.Store(t, idx, cpPrev)
		gDp.Store(t, idx, dpPrev)
	}
	t.ThomasSteps(n)
	// Backward substitution (paper Eq. 4).
	xNext := dpPrev
	gX.Store(t, (n-1)*m+sys, xNext)
	for l := n - 2; l >= 0; l-- {
		idx = l*m + sys
		xNext = gDp.Load(t, idx) - gCp.Load(t, idx)*xNext
		gX.Store(t, idx, xNext)
	}
	t.ThomasSteps(n - 1)
}

// ThreadStrided runs Thomas over rows base+r, base+r+p, ...
// base+r+(L-1)p. It is the per-thread body of KernelStrided, and
// pipelines embed it in their own pre-built kernel closures.
//
//tridlint:hotpath
func ThreadStrided[T num.Real](t *gpusim.Thread, g *Bufs[T], base, r, p, n int) {
	L := (n - r + p - 1) / p
	if L <= 0 {
		return
	}
	// Local copies of the array handles: the stores through Cp/Dp/X
	// could alias any of the coefficient slices as far as the compiler
	// knows, so indexing g's fields directly would reload the headers
	// after every store. The Thomas-step accounting is batched per
	// sweep (L forward, L-1 backward) — identical recorded totals.
	gA, gB, gC, gD, gCp, gDp, gX := g.A, g.B, g.C, g.D, g.Cp, g.Dp, g.X
	idx := base + r
	bv := gB.Load(t, idx)
	cpPrev := gC.Load(t, idx) / bv
	dpPrev := gD.Load(t, idx) / bv
	gCp.Store(t, idx, cpPrev)
	gDp.Store(t, idx, dpPrev)
	for l := 1; l < L; l++ {
		idx = base + r + l*p
		av := gA.Load(t, idx)
		den := gB.Load(t, idx) - cpPrev*av
		inv := 1 / den
		cpPrev = gC.Load(t, idx) * inv
		dpPrev = (gD.Load(t, idx) - dpPrev*av) * inv
		gCp.Store(t, idx, cpPrev)
		gDp.Store(t, idx, dpPrev)
	}
	t.ThomasSteps(L)
	xNext := dpPrev
	gX.Store(t, base+r+(L-1)*p, xNext)
	for l := L - 2; l >= 0; l-- {
		idx = base + r + l*p
		xNext = gDp.Load(t, idx) - gCp.Load(t, idx)*xNext
		gX.Store(t, idx, xNext)
	}
	t.ThomasSteps(L - 1)
}

// SolveInterleavedRangeInto is the host twin of ThreadInterleaved for
// systems [lo, hi) of v: it writes only their entries of the
// interleaved solution x, with at least N elements of scratch from ws.
//
//tridlint:hotpath
func SolveInterleavedRangeInto[T num.Real](v *matrix.Interleaved[T], x []T, ws *Workspace[T], lo, hi int) {
	m, n := v.M, v.N
	cp, dp := ws.Ensure(n)
	for i := lo; i < hi; i++ {
		thomasStrided(v.Lower, v.Diag, v.Upper, v.RHS, x, cp, dp, i, m, n)
	}
}

// SolveStridedRefInto is the host twin of KernelStrided: it solves the
// 2^k strided subsystems of each of the M contiguous systems of
// (a, b, c, d) into x in natural row order, with at least ceil(N/2^k)
// elements of scratch from ws.
//
//tridlint:hotpath
func SolveStridedRefInto[T num.Real](a, b, c, d []T, m, n, k int, x []T, ws *Workspace[T]) {
	p := 1 << k
	cp, dp := ws.Ensure(num.CeilDiv(n, p))
	for i := 0; i < m; i++ {
		for r := 0; r < p && r < n; r++ {
			base := i * n
			thomasStrided(a[base:], b[base:], c[base:], d[base:], x[base:], cp, dp, r, p, (n-r+p-1)/p)
		}
	}
}

// thomasStrided solves the system whose row l lives at flat index
// start + l*stride, writing x at the same indices. cp/dp are scratch of
// at least rows elements.
//
//tridlint:hotpath
func thomasStrided[T num.Real](a, b, c, d, x, cp, dp []T, start, stride, rows int) {
	if rows <= 0 {
		return
	}
	idx := start
	cp[0] = c[idx] / b[idx]
	dp[0] = d[idx] / b[idx]
	for l := 1; l < rows; l++ {
		idx = start + l*stride
		den := b[idx] - cp[l-1]*a[idx]
		inv := 1 / den
		cp[l] = c[idx] * inv
		dp[l] = (d[idx] - dp[l-1]*a[idx]) * inv
	}
	xn := dp[rows-1]
	x[start+(rows-1)*stride] = xn
	for l := rows - 2; l >= 0; l-- {
		xn = dp[l] - cp[l]*xn
		x[start+l*stride] = xn
	}
}
