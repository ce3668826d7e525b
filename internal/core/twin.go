package core

import (
	"context"
	"fmt"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pthomas"
	"gputrid/internal/tiledpcr"
)

// This file holds the host twins of the kernels. A kernel's
// architectural events depend only on its launch geometry, so once a
// geometry is recorded its Stats describe every later solve exactly,
// and a solve needs only the arithmetic. Every solve, the one that
// records a geometry included, computes its answer by running each
// kernel's plain-Go twin over the raw slices; simulated blocks run
// only to record, one per equivalence class (sample.go), and under
// the audit, which runs them all. The twins compute bit for bit
// (a NaN's sign aside, see matchOutputs) what the kernels compute: the
// tiled-PCR window's schedule (tiledpcr.HostReducer), the p-Thomas
// recurrences (pthomas.SolveStridedRefInto, which at k = 0 runs over
// the contiguous entry's rows, and SolveInterleavedRangeInto over the
// interleaved entry's columns), and the distBacksub expression
// (backsubRows). A twin reads the layout its caller holds: the
// device's interleaved layout exists to coalesce loads, and on the
// host a contiguous solve gains nothing from a transpose. Faults
// strike the twins: their callers ask the injector about the blocks
// the twins stand in for (gpusim.FaultSite.First) before any
// arithmetic runs.

// auditTwin, set only by the package's tests, audits every twin run:
// the simulated kernels re-record first, every block of them, a panic
// reports Stats that differ from the sampled ones the solve published
// — the record-once and sampling claims — and matchOutputs panics on
// any output bit the twins write differently.
var auditTwin bool

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
// work stays in cache. For k = 0 each system of the shard's thread
// blocks runs Thomas into the bound solution: over the caller's rows
// on the contiguous entry (thomasRows), over the interleaved planes'
// columns on the interleaved one. The context is checked between
// systems, so dst is written a whole system at a time.
//
//tridlint:hotpath
func (p *Pipeline[T]) hostShard(w *pipeWorker[T]) error {
	x := p.bufs.X.Data
	if p.k == 0 {
		lo, hi := w.firstBlk*p.bs, min((w.firstBlk+w.nBlk)*p.bs, p.m)
		if p.rows != nil {
			return p.thomasRows(x, &w.tws, lo, hi)
		}
		for i := lo; i < hi; i++ {
			if err := ctxErr(p.ctx); err != nil {
				return err
			}
			pthomas.SolveInterleavedRangeInto(p.iv, x, &w.tws, i, i+1)
		}
		return nil
	}
	n := p.n
	a, b, c, d := p.in.A.Data, p.in.B.Data, p.in.C.Data, p.in.D.Data
	for i := w.firstSys; i < w.firstSys+w.nSys; i++ {
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		lo, hi := i*n, (i+1)*n
		ra, rb, rc, rd := p.ra[lo:hi], p.rb[lo:hi], p.rc[lo:hi], p.rd[lo:hi]
		w.red.Reduce(a[lo:hi], b[lo:hi], c[lo:hi], d[lo:hi], ra, rb, rc, rd)
		pthomas.SolveStridedRefInto(ra, rb, rc, rd, 1, n, p.k, x[lo:hi], &w.tws)
	}
	return nil
}

// thomasRows is the k = 0 twin of the contiguous entry: Thomas for
// systems [lo, hi) of the caller's batch, each over its own contiguous
// rows, into the same rows of x. It is SolveReference's k = 0
// arithmetic, bit for bit the interleaved kernel's, with no transpose
// on either side. The context is checked between systems.
//
//tridlint:hotpath
func (p *Pipeline[T]) thomasRows(x []T, ws *pthomas.Workspace[T], lo, hi int) error {
	b, n := p.rows, p.n
	for i := lo; i < hi; i++ {
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		s, e := i*n, (i+1)*n
		pthomas.SolveStridedRefInto(b.Lower[s:e], b.Diag[s:e], b.Upper[s:e], b.RHS[s:e], 1, n, 0, x[s:e], ws)
	}
	return nil
}

// twinScratch points w's Thomas scratch at its own rows of the
// pipeline's c'/d' planes, which the simulated kernels use the same
// way, so the twins add no buffer: k >= 1 needs ceil(N/2^k) rows, a
// slice of the worker's first system; k = 0 needs N rows, at the
// worker's first system times N, inside the planes since that system
// is below M. Workers own disjoint systems, so the views never meet.
func (p *Pipeline[T]) twinScratch(w *pipeWorker[T]) {
	first, rows := w.firstSys, num.CeilDiv(p.n, 1<<p.k)
	if p.k == 0 {
		first, rows = w.firstBlk*p.bs, p.n
	}
	lo := first * p.n
	w.tws = pthomas.Workspace[T]{Cp: p.ws.Cp[lo : lo+rows], Dp: p.ws.Dp[lo : lo+rows]}
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

// auditRecording is the audit's first half: it runs record, a full
// recording that simulates every block, into a fresh pair of Stats,
// panics if they differ from want — the sampled Stats the solve
// published, the memo's included — and keeps the simulated outputs in
// buf for matchOutputs to compare with the twins'.
func auditRecording[T num.Real](record func(*[2]gpusim.Stats) error, want *[2]gpusim.Stats, buf *[]T, outs [][]T) error {
	var st [2]gpusim.Stats
	if err := record(&st); err != nil {
		return err
	}
	if st != *want {
		panic(fmt.Sprintf("core: re-recording changed the Stats:\n%+v\nrecorded %+v", st, *want))
	}
	*buf = (*buf)[:0]
	for _, o := range outs {
		*buf = append(*buf, o...)
	}
	return nil
}

// matchOutputs panics on the first bit in which the twins' outputs
// differ from the simulated ones auditRecording kept in sim. A NaN
// matches any NaN: IEEE 754 lets an operation on two NaNs return either
// one, and the compiler orders a commutative product's operands as
// register allocation suits each inlined copy of pcr.Combine, so the
// kernel and its twin can return the same NaN with opposite signs (a
// singular system does). Every other bit, the sign of zero included,
// must match.
func matchOutputs[T num.Real](sim []T, outs [][]T) {
	for plane, o := range outs {
		for i, v := range o {
			if num.Bits(v) != num.Bits(sim[i]) && !(v != v && sim[i] != sim[i]) {
				panic(fmt.Sprintf("core: host twin diverges from the simulated kernels: output %d (of %d) index %d: twin %#x, simulated %#x",
					plane, len(outs), i, num.Bits(v), num.Bits(sim[i])))
			}
		}
		sim = sim[len(o):]
	}
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
