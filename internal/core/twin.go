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
// system is reduced by k PCR levels into the worker's N reduced rows
// and then solved by strided Thomas into dst (hybridTwin), so one
// system's work stays in cache; the context is checked between
// systems, so dst is written a whole system at a time. For k = 0 the
// shard's systems run Thomas into the bound solution with c' at the
// input's own indices of the pipeline's M·N c' plane and d' in the
// solution: over the caller's rows on the contiguous entry, a group of
// pthomas.Lanes systems at a time (thomasRows), checking the context
// between groups, and on the interleaved one as a single lockstep sweep
// over the planes' columns for the whole range, so the context is
// checked once for the range.
//
//tridlint:hotpath
func (p *Pipeline[T]) hostShard(w *pipeWorker[T]) error {
	x := p.x
	lo, hi := p.systems(w)
	if p.k == 0 {
		if p.rows != nil {
			return p.thomasRows(x, lo, hi)
		}
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		pthomas.SolveInterleavedRangeInto(p.iv, x, p.cp, lo, hi)
		return nil
	}
	n, b := p.n, p.rows
	for i := lo; i < hi; i++ {
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		s, e, r := i*n, (i+1)*n, w.tw.r
		if p.planes[0] != nil {
			// Only under the audit do the kernels' reduced planes outlive
			// a recording; the twin writes them for the audit to compare.
			r = [4][]T{p.planes[0][s:e], p.planes[1][s:e], p.planes[2][s:e], p.planes[3][s:e]}
		}
		w.tw.solve(b.Lower[s:e], b.Diag[s:e], b.Upper[s:e], b.RHS[s:e], x[s:e], r)
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
	b, n, cp := p.rows, p.n, p.cp
	for i := lo; i < hi; i += pthomas.Lanes {
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		s, e := i*n, min(i+pthomas.Lanes, hi)*n
		pthomas.SolveRowsInto(b.Lower[s:e], b.Diag[s:e], b.Upper[s:e], b.RHS[s:e], x[s:e], cp[s:e], n)
	}
	return nil
}

// hybridTwin is the k >= 1 host twin of one system at a time: the
// tiled-PCR rings and N rows each of reduced a, b, c, d (r) and of c'.
// Each system is reduced into its N rows and solved from them, so the
// twin holds no plane that grows with M, where the kernels keep M·N
// planes in device memory.
type hybridTwin[T num.Real] struct {
	red *tiledpcr.HostReducer[T]
	k   int
	r   [4][]T
	cp  []T
}

func newHybridTwin[T num.Real](k, n int) *hybridTwin[T] {
	h := &hybridTwin[T]{red: tiledpcr.NewHostReducer[T](k), k: k, cp: make([]T, n)}
	for i := range h.r {
		h.r[i] = make([]T, n)
	}
	return h
}

// solve reduces the system (a, b, c, d) by k PCR levels into the
// reduced rows r, h's own or the audit's, then solves the 2^k strided
// subsystems they hold into x, with d' in x.
//
//tridlint:hotpath
func (h *hybridTwin[T]) solve(a, b, c, d, x []T, r [4][]T) {
	h.red.Reduce(a, b, c, d, r[0], r[1], r[2], r[3])
	pthomas.SolveStridedRefInto(r[0], r[1], r[2], r[3], 1, len(b), h.k, x, h.cp)
}

// SolveReference solves the batch on the host twins alone, with no
// pipeline, device or recording: per system, hybridTwin reduces by k
// PCR steps and solves the 2^k subsystems; k = 0 is
// pthomas.SolveStridedRefInto alone. The arithmetic is the pipeline's,
// so at the k a solve resolves to the result matches Solve bit for
// bit. k resolves as hostK resolves it.
func SolveReference[T num.Real](b *matrix.Batch[T], k int) []T {
	m, n := b.M, b.N
	k = hostK(m, n, k)
	x := make([]T, m*n)
	if k == 0 {
		pthomas.SolveStridedRefInto(b.Lower, b.Diag, b.Upper, b.RHS, m, n, 0, x, make([]T, min(m, pthomas.Lanes)*n))
		return x
	}
	h := newHybridTwin[T](k, n)
	for lo := 0; lo < m*n; lo += n {
		hi := lo + n
		h.solve(b.Lower[lo:hi], b.Diag[lo:hi], b.Upper[lo:hi], b.RHS[lo:hi], x[lo:hi], h.r)
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
