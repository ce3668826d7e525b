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
// twins, the same recurrence over plain slices with c' scratch the
// caller owns, and SolveRowsInto is ThreadInterleaved's twin over
// systems stored contiguously, the layout a contiguous k = 0 solve
// holds; SolveCoupledInto is that twin for the three systems of a
// distributed slab, which share their coefficients and differ only in
// the right-hand side. Every twin writes d' into the solution it
// solves for: the backward pass reads each row's d' before it
// overwrites it, so no twin needs d' scratch. A twin runs every lane it covers in lockstep, one
// sweep row by row across them, which is the host form of consecutive
// threads on consecutive addresses: consecutive loop iterations belong
// to independent recurrences, so their divisions overlap. The strided
// and interleaved twins keep c' in memory at each row's own index,
// where consecutive lanes sit at consecutive addresses; SolveRowsInto's
// lanes are whole systems apart, so it advances Lanes of them at a time
// with each lane's c'/d' and x in registers, as a kernel thread holds
// them. Each lane still takes the kernel thread's operations in its
// order, so the twins match the kernels bit for bit. Every product that
// feeds a sum is rounded explicitly, T(x*y), in the kernels and the
// twins alike: Go may otherwise fuse x*y + z into one multiply-add on
// some architectures (arm64 among them), and a fused product rounds
// once where the other side's rounds twice. KernelStrided is
// the one standalone launch, the back-end of the Fig. 11(c)
// multiplexed ablation.
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
		den := gB.Load(t, idx) - T(cpPrev*av)
		inv := 1 / den
		cpPrev = gC.Load(t, idx) * inv
		dpPrev = (gD.Load(t, idx) - T(dpPrev*av)) * inv
		gCp.Store(t, idx, cpPrev)
		gDp.Store(t, idx, dpPrev)
	}
	t.ThomasSteps(n)
	// Backward substitution (paper Eq. 4).
	xNext := dpPrev
	gX.Store(t, (n-1)*m+sys, xNext)
	for l := n - 2; l >= 0; l-- {
		idx = l*m + sys
		xNext = gDp.Load(t, idx) - T(gCp.Load(t, idx)*xNext)
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
		den := gB.Load(t, idx) - T(cpPrev*av)
		inv := 1 / den
		cpPrev = gC.Load(t, idx) * inv
		dpPrev = (gD.Load(t, idx) - T(dpPrev*av)) * inv
		gCp.Store(t, idx, cpPrev)
		gDp.Store(t, idx, dpPrev)
	}
	t.ThomasSteps(L)
	xNext := dpPrev
	gX.Store(t, base+r+(L-1)*p, xNext)
	for l := L - 2; l >= 0; l-- {
		idx = base + r + l*p
		xNext = gDp.Load(t, idx) - T(gCp.Load(t, idx)*xNext)
		gX.Store(t, idx, xNext)
	}
	t.ThomasSteps(L - 1)
}

// SolveInterleavedRangeInto is the host twin of ThreadInterleaved for
// systems [lo, hi) of v: it writes only their entries of the
// interleaved solution x, and only their entries of cp. The systems
// are the lanes of one lockstep sweep (see sweep), row by row across
// the range as the kernel's consecutive threads run, and c' sits at
// the input's own indices l·M+i: cp must hold M·N elements, and calls
// over disjoint ranges may share it.
//
//tridlint:hotpath
func SolveInterleavedRangeInto[T num.Real](v *matrix.Interleaved[T], x, cp []T, lo, hi int) {
	sweep(v.Lower, v.Diag, v.Upper, v.RHS, x, cp[:v.M*v.N], v.M, lo, hi)
}

// SolveStridedRefInto is the host twin of KernelStrided: it solves the
// 2^k strided subsystems of each of the M contiguous systems of
// (a, b, c, d) into x in natural row order. Each system is one lockstep
// sweep over its 2^k lanes (see sweep), with c' at the row's own index
// of cp, which must hold at least N elements. At k = 0 the one lane of
// each system is plain Thomas over its contiguous rows, and the systems
// go through SolveRowsInto len(cp)/N at a time, so a cp of Lanes·N
// elements or more lets Lanes of them run in lockstep.
//
//tridlint:hotpath
func SolveStridedRefInto[T num.Real](a, b, c, d []T, m, n, k int, x, cp []T) {
	step := n
	if k == 0 {
		step = max(min(len(cp)/n, m), 1) * n
	}
	for lo := 0; lo < m*n; lo += step {
		hi := min(lo+step, m*n)
		if k == 0 {
			SolveRowsInto(a[lo:hi], b[lo:hi], c[lo:hi], d[lo:hi], x[lo:hi], cp, n)
		} else {
			sweep(a[lo:hi], b[lo:hi], c[lo:hi], d[lo:hi], x[lo:hi], cp[:n], 1<<k, 0, 1<<k)
		}
	}
}

// Lanes is how many contiguous systems SolveRowsInto advances together.
// Each lane carries its previous c'/d' and x in registers, as a kernel
// thread does, so the group must fit the register file. Three lanes
// overlap three division chains where one lane waits on each row's
// division; a four-lane form that padded its tail with a duplicate
// lane ran slower on the 3-system distributed slab (0.72 against
// 0.50–0.56 ms at 3×32768).
const Lanes = 3

// SolveRowsInto is the k = 0 host twin over contiguous rows: it solves
// the len(b)/n systems of (a, b, c, d), each over its own n rows, into
// the same rows of x. Systems go Lanes at a time through one lockstep
// sweep (thomas3) and the remainder one by one (thomas). c' sits at
// the rows' own indices of cp, which must hold len(b) elements. d' is
// written into x, where the backward pass reads each row's d' before
// it overwrites it with the solution, so the twin needs no d' scratch.
// Every system takes the kernel thread's operations in its order
// (ThreadInterleaved), so the solution matches the kernel bit for bit.
//
//tridlint:hotpath
func SolveRowsInto[T num.Real](a, b, c, d, x, cp []T, n int) {
	g, i := Lanes*n, 0
	for ; i+g <= len(b); i += g {
		thomas3(a[i:i+g], b[i:i+g], c[i:i+g], d[i:i+g], x[i:i+g], cp[i:i+g], n)
	}
	for ; i < len(b); i += n {
		thomas(a[i:i+n], b[i:i+n], c[i:i+n], d[i:i+n], x[i:i+n], cp[i:i+n])
	}
}

// SolveCoupledInto is the k = 0 twin for three systems that share
// their coefficients (a, b, c) of len(b) rows and differ only in the
// right-hand side: d, the vector whose row 0 holds v, and the vector
// whose last row holds w. A distributed slab solves exactly these: its
// own RHS and its two separator couplings. It runs one c' chain and
// three d' chains, so each row takes one division where three lanes
// take three, and it loads each coefficient once. The v and w systems'
// other entries are a literal +0, as the kernel loads them from a
// cleared plane. Each chain takes ThreadInterleaved's operations in
// its order, so xu, xv and xw each match the kernel bit for bit. c'
// lands in cp and d' in the solutions, which the backward pass reads
// before it overwrites them; all must hold len(b) elements.
//
//tridlint:hotpath
func SolveCoupledInto[T num.Real](a, b, c, d []T, v, w T, xu, xv, xw, cp []T) {
	n := len(b)
	a, c, d, cp = a[:n], c[:n], d[:n], cp[:n]
	xu, xv, xw = xu[:n], xv[:n], xw[:n]
	var zero T
	w0 := zero // the w system's row 0, its last when n = 1
	if n == 1 {
		w0 = w
	}
	cq, du, dv, dw := c[0]/b[0], d[0]/b[0], v/b[0], w0/b[0]
	cp[0], xu[0], xv[0], xw[0] = cq, du, dv, dw
	for i := 1; i < n; i++ {
		wi := zero
		if i == n-1 {
			wi = w
		}
		av := a[i]
		inv := 1 / (b[i] - T(cq*av))
		cq, du = c[i]*inv, (d[i]-T(du*av))*inv
		dv, dw = (zero-T(dv*av))*inv, (wi-T(dw*av))*inv
		cp[i], xu[i], xv[i], xw[i] = cq, du, dv, dw
	}
	for i := n - 2; i >= 0; i-- {
		p := cp[i]
		du, dv, dw = xu[i]-T(p*du), xv[i]-T(p*dv), xw[i]-T(p*dw)
		xu[i], xv[i], xw[i] = du, dv, dw
	}
}

// sweep runs Thomas in lockstep over the lanes [lo, hi) of a strided
// layout of len(b) rows: lane j's rows sit at j, j+s, j+2s, ... Each
// step visits the lanes' current rows in turn, so consecutive
// iterations touch consecutive addresses and their divisions overlap,
// where a per-lane loop would wait on each lane's recurrence. Every
// lane takes the same operations in the same order as a per-lane loop,
// so the outputs match it bit for bit. c' is written at each row's own
// index of cp and d' into x, which the backward pass reads as d' and
// overwrites with the solution; a row's forward step reads index i-s,
// its backward step x[i+s]. When the lanes are all s of them, the
// rows' runs join into one run over the whole layout; a single lane is
// thomas.
//
//tridlint:hotpath
func sweep[T num.Real](a, b, c, d, x, cp []T, s, lo, hi int) {
	n := len(b)
	if s == 1 {
		if lo < hi {
			thomas(a, b, c, d, x, cp)
		}
		return
	}
	run, gap := hi-lo, s
	if run == s {
		run, gap = n, n
	}
	for r := lo; r < n; r += gap {
		i, e := r, min(r+run, n)
		for first := min(e, s); i < first; i++ {
			cp[i] = c[i] / b[i]
			x[i] = d[i] / b[i]
		}
		for ; i < e; i++ {
			av := a[i]
			den := b[i] - T(cp[i-s]*av)
			inv := 1 / den
			cp[i] = c[i] * inv
			x[i] = (d[i] - T(x[i-s]*av)) * inv
		}
	}
	for r := lo + (n-1-lo)/gap*gap; r >= lo; r -= gap {
		for i := min(r+run, n-s) - 1; i >= r; i-- {
			x[i] -= T(cp[i] * x[i+s])
		}
	}
}

// thomas is the one-lane form of Thomas over contiguous rows: sweep's
// single lane and SolveRowsInto's remainder. With a single recurrence
// there is no other lane's work to overlap, so it carries the previous
// row's c'/d' and x in registers, as the kernel thread does, instead
// of reading them back from memory. d' is written into x, which the
// backward pass reads as d' and overwrites with the solution.
//
//tridlint:hotpath
func thomas[T num.Real](a, b, c, d, x, cp []T) {
	n := len(b)
	cpPrev := c[0] / b[0]
	dpPrev := d[0] / b[0]
	cp[0], x[0] = cpPrev, dpPrev
	for i := 1; i < n; i++ {
		av := a[i]
		den := b[i] - T(cpPrev*av)
		inv := 1 / den
		cpPrev = c[i] * inv
		dpPrev = (d[i] - T(dpPrev*av)) * inv
		cp[i], x[i] = cpPrev, dpPrev
	}
	xn := dpPrev
	for i := n - 2; i >= 0; i-- {
		xn = x[i] - T(cp[i]*xn)
		x[i] = xn
	}
}

// thomas3 is thomas over the three systems of 3·n contiguous rows,
// advanced row by row in lockstep: each step issues the three lanes'
// divisions back to back, so they overlap where one lane's would wait
// on the previous row's. Every lane keeps its previous c'/d' and x in
// registers and takes thomas's operations in thomas's order.
//
//tridlint:hotpath
func thomas3[T num.Real](a, b, c, d, x, cp []T, n int) {
	a0, a1, a2 := a[:n], a[n:2*n], a[2*n:3*n]
	b0, b1, b2 := b[:n], b[n:2*n], b[2*n:3*n]
	c0, c1, c2 := c[:n], c[n:2*n], c[2*n:3*n]
	d0, d1, d2 := d[:n], d[n:2*n], d[2*n:3*n]
	x0, x1, x2 := x[:n], x[n:2*n], x[2*n:3*n]
	p0, p1, p2 := cp[:n], cp[n:2*n], cp[2*n:3*n]
	cq0, dq0 := c0[0]/b0[0], d0[0]/b0[0]
	cq1, dq1 := c1[0]/b1[0], d1[0]/b1[0]
	cq2, dq2 := c2[0]/b2[0], d2[0]/b2[0]
	p0[0], x0[0] = cq0, dq0
	p1[0], x1[0] = cq1, dq1
	p2[0], x2[0] = cq2, dq2
	for i := 1; i < n; i++ {
		av0, av1, av2 := a0[i], a1[i], a2[i]
		inv0 := 1 / (b0[i] - T(cq0*av0))
		inv1 := 1 / (b1[i] - T(cq1*av1))
		inv2 := 1 / (b2[i] - T(cq2*av2))
		cq0, dq0 = c0[i]*inv0, (d0[i]-T(dq0*av0))*inv0
		cq1, dq1 = c1[i]*inv1, (d1[i]-T(dq1*av1))*inv1
		cq2, dq2 = c2[i]*inv2, (d2[i]-T(dq2*av2))*inv2
		p0[i], x0[i] = cq0, dq0
		p1[i], x1[i] = cq1, dq1
		p2[i], x2[i] = cq2, dq2
	}
	for i := n - 2; i >= 0; i-- {
		dq0 = x0[i] - T(p0[i]*dq0)
		dq1 = x1[i] - T(p1[i]*dq1)
		dq2 = x2[i] - T(p2[i]*dq2)
		x0[i], x1[i], x2[i] = dq0, dq1, dq2
	}
}
