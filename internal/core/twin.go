package core

import (
	"context"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pthomas"
	"gputrid/internal/tiledpcr"
)

// This file holds the host twins of the kernels. A kernel's
// architectural events depend only on its launch geometry, so once a
// geometry is recorded its Stats describe every later solve exactly,
// and a solve needs only the arithmetic. The driver (driver.go) runs
// every recorded kernel: it records, audits and asks the injector, and
// the twins here are what it runs for the answer, on every solve, the
// one that records a geometry included. They compute bit for bit (a
// NaN's sign aside, see matchOutputs) what the kernels compute: the
// tiled-PCR window's schedule (tiledpcr.HostReducer, which stores the
// constant rows beyond a system instead of combining padding), the
// p-Thomas recurrences (pthomas.SolveStridedRefInto over a system's
// 2^k strided lanes, SolveRowsInto over the contiguous entry's rows at
// k = 0, three systems at a time, and SolveInterleavedRangeInto over
// the interleaved entry's columns, each a lockstep sweep across the
// lanes it covers), and the distBacksub expression (backsubRows).
// A twin does only the arithmetic that reaches an output, in the
// kernel's order for each output, and writes every output: the audit
// fails one it leaves unwritten. A twin reads the layout its caller
// holds: the device's interleaved layout exists to coalesce loads, and
// on the host a contiguous solve gains nothing from a transpose.

// ctxErr is ctx.Err for a context that may be nil (uncancellable).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// hostShard runs worker w's shard on the host twins. For k >= 1 each
// system is reduced by k PCR levels into its rows of the reduced
// planes and then solved by strided Thomas into dst, so one system's
// work stays in cache; the context is checked between systems, so dst
// is written a whole system at a time. For k = 0 the shard's systems
// run Thomas into the bound solution with c' (and on the interleaved
// entry d') at the input's own indices of the pipeline's M·N planes:
// over the caller's rows on the contiguous entry, a group of
// pthomas.Lanes systems at a time (thomasRows), checking the context
// between groups, and on the interleaved one as a single lockstep sweep
// over the planes' columns for the whole range, so the context is
// checked once for the range.
//
//tridlint:hotpath
func (p *Pipeline[T]) hostShard(w *pipeWorker[T]) error {
	x := p.bufs.X.Data
	lo, hi := p.systems(w)
	if p.k == 0 {
		if p.rows != nil {
			return p.thomasRows(x, lo, hi)
		}
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		pthomas.SolveInterleavedRangeInto(p.iv, x, &p.ws, lo, hi)
		return nil
	}
	n := p.n
	a, b, c, d := p.in.A.Data, p.in.B.Data, p.in.C.Data, p.in.D.Data
	for i := lo; i < hi; i++ {
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		s, e := i*n, (i+1)*n
		ra, rb, rc, rd := p.ra[s:e], p.rb[s:e], p.rc[s:e], p.rd[s:e]
		w.red.Reduce(a[s:e], b[s:e], c[s:e], d[s:e], ra, rb, rc, rd)
		pthomas.SolveStridedRefInto(ra, rb, rc, rd, 1, n, p.k, x[s:e], &w.tws)
	}
	return nil
}

// thomasRows is the k = 0 twin of the contiguous entry: Thomas for
// systems [lo, hi) of the caller's batch, each over its own contiguous
// rows, into the same rows of x, through pthomas.SolveRowsInto one
// group of pthomas.Lanes systems at a time (the last group takes the
// remainder). c' sits at the systems' own indices of the pipeline's
// M·N c' plane, as on the interleaved entry, and d' in x. It is
// SolveReference's k = 0 arithmetic, bit for bit the interleaved
// kernel's, with no transpose on either side. The context is checked
// between groups.
//
//tridlint:hotpath
func (p *Pipeline[T]) thomasRows(x []T, lo, hi int) error {
	b, n, cp := p.rows, p.n, p.ws.Cp
	for i := lo; i < hi; i += pthomas.Lanes {
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		s, e := i*n, min(i+pthomas.Lanes, hi)*n
		pthomas.SolveRowsInto(b.Lower[s:e], b.Diag[s:e], b.Upper[s:e], b.RHS[s:e], x[s:e], cp[s:e], n)
	}
	return nil
}

// twinScratch points w's strided Thomas scratch (k >= 1) at the N rows
// of the worker's first system in the pipeline's c'/d' planes, which
// the simulated kernels use the same way, so the twins add no buffer:
// a lockstep sweep keeps c'/d' at each row's own index. Workers own
// disjoint systems, so the views never meet; the capacity is clipped
// so that no view reaches past its rows. The k = 0 twins need no view:
// both entries write the worker's systems of the whole planes.
func (p *Pipeline[T]) twinScratch(w *pipeWorker[T]) {
	lo, hi := w.firstSys*p.n, (w.firstSys+1)*p.n
	w.tws = pthomas.Workspace[T]{Cp: p.ws.Cp[lo:hi:hi], Dp: p.ws.Dp[lo:hi:hi]}
}

// SolveReference solves the batch on the host twins alone, with no
// pipeline, device or recording: per system, tiledpcr.HostReducer
// reduces by k PCR steps and pthomas.SolveStridedRefInto solves the
// 2^k subsystems; k = 0 is SolveStridedRefInto alone. The arithmetic
// is the pipeline's, so at the k a solve resolves to the result
// matches Solve bit for bit. k resolves as hostK resolves it.
func SolveReference[T num.Real](b *matrix.Batch[T], k int) []T {
	m, n := b.M, b.N
	k = hostK(m, n, k)
	x := make([]T, m*n)
	var ws pthomas.Workspace[T]
	if k == 0 {
		pthomas.SolveStridedRefInto(b.Lower, b.Diag, b.Upper, b.RHS, m, n, 0, x, &ws)
		return x
	}
	h := tiledpcr.NewHostReducer[T](k)
	ra, rb, rc, rd := make([]T, n), make([]T, n), make([]T, n), make([]T, n)
	for lo := 0; lo < m*n; lo += n {
		hi := lo + n
		h.Reduce(b.Lower[lo:hi], b.Diag[lo:hi], b.Upper[lo:hi], b.RHS[lo:hi], ra, rb, rc, rd)
		pthomas.SolveStridedRefInto(ra, rb, rc, rd, 1, n, k, x[lo:hi], &ws)
	}
	return x
}

// hostK resolves k for the host-only solvers, SolveReference and
// FactorHybrid: KAuto applies the Table III heuristic for m systems,
// and k is clamped so that 0 <= k and 2^k <= n.
func hostK(m, n, k int) int {
	if k == KAuto {
		k = HeuristicK(m)
	}
	k = max(k, 0)
	for k > 0 && 1<<k > n {
		k--
	}
	return k
}

// firstDiff returns the first index where got differs from want in any
// bit, or -1.
func firstDiff[T num.Real](want, got []T) int {
	for i := range want {
		if num.Bits(want[i]) != num.Bits(got[i]) {
			return i
		}
	}
	return -1
}

// backsubRows is distBacksub's arithmetic over plain slices,
// out = u + v·xl + w·xr per row with system i's separators xl[i] and
// xr[i], in the order the kernel body evaluates it. It is the kernel's
// host twin and the degraded host back-substitution alike. The context
// is checked between systems.
//
//tridlint:hotpath
func backsubRows[T num.Real](ctx context.Context, a *backsubArgs[T]) error {
	u, v, w, out := a.u.Data, a.v.Data, a.w.Data, a.out.Data
	xl, xr := a.xl.Data, a.xr.Data
	for i, lo := 0, 0; lo < a.total; i, lo = i+1, lo+a.rows {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		l, r := xl[i], xr[i]
		for j := lo; j < lo+a.rows; j++ {
			out[j] = u[j] + v[j]*l + w[j]*r
		}
	}
	return nil
}
