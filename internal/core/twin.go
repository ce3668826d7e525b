package core

import (
	"context"
	"math"

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
//
// Systems that share an operator reduce it once. The PCR multipliers
// and the p-Thomas pivots depend on (a, b, c) alone, so when the next
// system of a k >= 1 shard has its predecessor's coefficients bit for
// bit, the worker records them while it solves the first system of the
// run (a tiledpcr.Plan and pthomas.RecordStridedInto's pivot factors)
// and replays them for the rest, recomputing only d: HostReducer.Replay
// and pthomas.ReplayStridedInto take the twins' operations in their
// order, so a replayed system is bit for bit the full twin's. A record
// lives for one run of one shard of one solve; nothing is cached across
// solves. Under the audit a replayed system's reduced a, b, c planes
// are copies of its predecessor's, and its reduced d and solution come
// from the replay, so the audit compares the replay with the kernels.
// HybridFactorization keeps one such record per system.

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
// system's work stays in cache, and a run of systems with one operator
// records it at its first system and replays it for the rest; the
// context is checked between systems, so dst is written a whole system
// at a time. For k = 0 the shard's systems run Thomas into the bound
// solution with c' at the input's own indices of the pipeline's M·N c'
// plane and d' in the solution: over the caller's rows on the
// contiguous entry, a group of pthomas.Lanes systems at a time
// (thomasRows), checking the context between groups, and on the
// interleaved one as a single lockstep sweep over the planes' columns
// for the whole range, so the context is checked once for the range.
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
	n, b, tw := p.n, p.rows, w.tw
	run := false // system i's operator is the one tw recorded
	for i := lo; i < hi; i++ {
		if err := ctxErr(p.ctx); err != nil {
			return err
		}
		s, e, r := i*n, (i+1)*n, tw.r
		if p.planes[0] != nil {
			// Only under the audit do the kernels' reduced planes outlive
			// a recording; the twin writes them for the audit to compare,
			// and a replayed system's a, b, c are its predecessor's.
			r = [4][]T{p.planes[0][s:e], p.planes[1][s:e], p.planes[2][s:e], p.planes[3][s:e]}
			if run {
				for j := range 3 {
					copy(r[j], p.planes[j][s-n:s])
				}
			}
		}
		// Look one system ahead: a run of systems with one operator
		// records at its first and replays the rest.
		next := tw.plan != nil && i+1 < hi && sameOperator(b, s, e, n)
		if run {
			tw.replay(b.RHS[s:e], x[s:e], r)
		} else {
			tw.solve(b.Lower[s:e], b.Diag[s:e], b.Upper[s:e], b.RHS[s:e], x[s:e], r, next)
		}
		run = next
	}
	return nil
}

// sameOperator reports whether the system at rows [e, e+n) of b has
// the coefficients (a, b, c) of the one at [s, e), bit for bit.
func sameOperator[T num.Real](b *matrix.Batch[T], s, e, n int) bool {
	return sameValues(b.Lower[s:e], b.Lower[e:e+n]) &&
		sameValues(b.Diag[s:e], b.Diag[e:e+n]) &&
		sameValues(b.Upper[s:e], b.Upper[e:e+n])
}

// sameValues reports whether x and y hold the same values bit for bit,
// as float64: widening keeps every bit of a float32 but a signalling
// NaN's, which the first operation on it quiets anyway.
func sameValues[T num.Real](x, y []T) bool {
	y = y[:len(x)]
	for i, v := range x {
		if math.Float64bits(float64(v)) != math.Float64bits(float64(y[i])) {
			return false
		}
	}
	return true
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
// planes in device memory. A twin that can replay also holds the
// record of one system's operator: its tiled-PCR plan and p-Thomas
// pivot factors, with the reduced a in r[0] and c' in cp.
type hybridTwin[T num.Real] struct {
	red  *tiledpcr.HostReducer[T]
	k    int
	r    [4][]T
	cp   []T
	plan *tiledpcr.Plan[T] // nil unless the twin replays
	piv  []T
}

// newHybridTwin builds the twin for systems of n rows at depth k, with
// the plan a replay needs if replays is set.
func newHybridTwin[T num.Real](k, n int, replays bool) *hybridTwin[T] {
	h := &hybridTwin[T]{red: tiledpcr.NewHostReducer[T](k), k: k, cp: make([]T, n)}
	for i := range h.r {
		h.r[i] = make([]T, n)
	}
	if replays {
		h.plan, h.piv = h.red.NewPlan(n), make([]T, n)
	}
	return h
}

// solve reduces the system (a, b, c, d) by k PCR levels into the
// reduced rows r, h's own or the audit's, then solves the 2^k strided
// subsystems they hold into x, with d' in x. With record set it also
// records the system's operator for replay.
//
//tridlint:hotpath
func (h *hybridTwin[T]) solve(a, b, c, d, x []T, r [4][]T, record bool) {
	if !record {
		h.red.Reduce(a, b, c, d, r[0], r[1], r[2], r[3], nil)
		pthomas.SolveStridedRefInto(r[0], r[1], r[2], r[3], 1, len(b), h.k, x, h.cp)
		return
	}
	h.red.Reduce(a, b, c, d, r[0], r[1], r[2], r[3], h.plan)
	pthomas.RecordStridedInto(r[0], r[1], r[2], r[3], x, h.cp, h.piv, h.k)
}

// replay solves, for the right-hand side d, the system whose operator
// h recorded last: only the reduced d is recomputed, into r[3], and
// the sweeps read the recorded pivots and the reduced a in r[0]. Its
// output is solve's bit for bit.
//
//tridlint:hotpath
func (h *hybridTwin[T]) replay(d, x []T, r [4][]T) {
	h.red.Replay(h.plan, d, r[3])
	pthomas.ReplayStridedInto(r[0], h.cp, h.piv, r[3], x, h.k)
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
	h := newHybridTwin[T](k, n, false)
	for lo := 0; lo < m*n; lo += n {
		hi := lo + n
		h.solve(b.Lower[lo:hi], b.Diag[lo:hi], b.Upper[lo:hi], b.RHS[lo:hi], x[lo:hi], h.r, false)
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
// xr[i], in the order the kernel body evaluates it, each product
// rounded explicitly so neither side fuses a multiply-add (see package
// pthomas). It is the kernel's host twin and the degraded host
// back-substitution alike. The context is checked between systems.
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
			out[j] = u[j] + T(v[j]*l) + T(w[j]*r)
		}
	}
	return nil
}
