package core

import (
	"fmt"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// HybridFactorization caches everything about a batch's k-step PCR
// reduction that does not depend on the right-hand side: the per-row,
// per-level elimination multipliers k1 = a/b_up and k2 = c/b_dn
// (paper Eqs. 5-6), the reduced sub-diagonal, and the p-Thomas pivots
// of the 2^k subsystems. Solving for a new right-hand side then only
// replays the d-updates (4 flops per row-level instead of a full
// 16-flop Combine) and runs the cached-pivot Thomas sweeps — the
// natural extension of LU reuse to the hybrid algorithm, for ADI and
// other time-stepping workloads whose matrices are fixed.
//
// Solutions agree with Solve / SolveReference at the same k to within a
// few ULPs: the replay applies exactly the multipliers the full
// reduction would compute, differing only in that cached pivots are
// applied as reciprocal multiplications.
type HybridFactorization[T num.Real] struct {
	m, n, k int
	k1, k2  [][]T // [level][m*n] elimination multipliers
	aR      []T   // reduced sub-diagonal after k steps
	cp      []T   // p-Thomas c' per row
	invDen  []T   // p-Thomas 1/denominator per row
}

// FactorHybrid reduces every matrix of the batch by k PCR steps and
// factors the resulting subsystems. k = KAuto applies the Table III
// heuristic (clamped to the system size).
func FactorHybrid[T num.Real](b *matrix.Batch[T], k int) (*HybridFactorization[T], error) {
	m, n := b.M, b.N
	k = hostK(m, n, k)
	f := &HybridFactorization[T]{m: m, n: n, k: k}
	f.k1 = make([][]T, k)
	f.k2 = make([][]T, k)
	for j := range f.k1 {
		f.k1[j] = make([]T, m*n)
		f.k2[j] = make([]T, m*n)
	}

	// Reduce (a, b, c) per system, recording the multipliers.
	a := append([]T(nil), b.Lower...)
	bb := append([]T(nil), b.Diag...)
	c := append([]T(nil), b.Upper...)
	for i := 0; i < m; i++ {
		a[i*n] = 0
		c[i*n+n-1] = 0
	}
	na := make([]T, m*n)
	nb := make([]T, m*n)
	nc := make([]T, m*n)
	for lvl := 0; lvl < k; lvl++ {
		h := 1 << lvl
		for sys := 0; sys < m; sys++ {
			base := sys * n
			for i := 0; i < n; i++ {
				gi := base + i
				// Identity rows outside the system.
				upB, upA, upC := T(1), T(0), T(0)
				if i-h >= 0 {
					upB, upA, upC = bb[gi-h], a[gi-h], c[gi-h]
				}
				dnB, dnA, dnC := T(1), T(0), T(0)
				if i+h < n {
					dnB, dnA, dnC = bb[gi+h], a[gi+h], c[gi+h]
				}
				kk1 := a[gi] / upB
				kk2 := c[gi] / dnB
				f.k1[lvl][gi] = kk1
				f.k2[lvl][gi] = kk2
				na[gi] = -upA * kk1
				nb[gi] = bb[gi] - upC*kk1 - dnA*kk2
				nc[gi] = -dnC * kk2
			}
		}
		a, na = na, a
		bb, nb = nb, bb
		c, nc = nc, c
	}

	// p-Thomas factor per subsystem (stride 2^k within each system).
	f.aR = a
	f.cp = make([]T, m*n)
	f.invDen = make([]T, m*n)
	p := 1 << k
	for sys := 0; sys < m; sys++ {
		base := sys * n
		for r := 0; r < p && r < n; r++ {
			rows := (n - r + p - 1) / p
			gi := base + r
			den := bb[gi]
			if den == 0 || !num.IsFinite(den) {
				return nil, fmt.Errorf("core: system %d subsystem %d: zero pivot", sys, r)
			}
			f.invDen[gi] = 1 / den
			if rows > 1 {
				f.cp[gi] = c[gi] / den
			}
			for l := 1; l < rows; l++ {
				gi = base + r + l*p
				den = bb[gi] - f.cp[gi-p]*a[gi]
				if den == 0 || !num.IsFinite(den) {
					return nil, fmt.Errorf("core: system %d subsystem %d row %d: zero pivot", sys, r, l)
				}
				f.invDen[gi] = 1 / den
				if l < rows-1 {
					f.cp[gi] = c[gi] / den
				}
			}
		}
	}
	return f, nil
}

// K returns the PCR depth of the factorization.
func (f *HybridFactorization[T]) K() int { return f.k }

// Shape returns the batch shape (M systems × N rows).
func (f *HybridFactorization[T]) Shape() (m, n int) { return f.m, f.n }

// Solve computes solutions for new right-hand sides d (length M·N,
// contiguous) into x. d and x may alias. At k = 0 there is no
// d-reduction to replay: the sweeps read d directly and Solve
// allocates nothing.
func (f *HybridFactorization[T]) Solve(d, x []T) error {
	m, n, k := f.m, f.n, f.k
	if len(d) != m*n || len(x) != m*n {
		return fmt.Errorf("core: factorized solve length mismatch (want %d)", m*n)
	}
	// Replay the d-reduction. It writes both of its buffers, so d is
	// copied first.
	cur, nxt := d, []T(nil)
	if k > 0 {
		cur, nxt = append([]T(nil), d...), make([]T, m*n)
	}
	for lvl := 0; lvl < k; lvl++ {
		h := 1 << lvl
		k1, k2 := f.k1[lvl], f.k2[lvl]
		for sys := 0; sys < m; sys++ {
			base := sys * n
			for i := 0; i < n; i++ {
				gi := base + i
				var up, dn T
				if i-h >= 0 {
					up = cur[gi-h]
				}
				if i+h < n {
					dn = cur[gi+h]
				}
				nxt[gi] = cur[gi] - up*k1[gi] - dn*k2[gi]
			}
		}
		cur, nxt = nxt, cur
	}
	// Cached-pivot Thomas per subsystem.
	p := 1 << k
	for sys := 0; sys < m; sys++ {
		base := sys * n
		for r := 0; r < p && r < n; r++ {
			rows := (n - r + p - 1) / p
			gi := base + r
			prev := cur[gi] * f.invDen[gi]
			x[gi] = prev
			for l := 1; l < rows; l++ {
				gi = base + r + l*p
				prev = (cur[gi] - prev*f.aR[gi]) * f.invDen[gi]
				x[gi] = prev
			}
			for l := rows - 2; l >= 0; l-- {
				gi = base + r + l*p
				x[gi] -= f.cp[gi] * x[gi+p]
			}
		}
	}
	return nil
}
