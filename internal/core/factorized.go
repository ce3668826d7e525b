package core

import (
	"fmt"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pthomas"
	"gputrid/internal/tiledpcr"
)

// HybridFactorization caches everything about a batch's k-step hybrid
// solve that does not depend on the right-hand side, as the host twins
// record it: per system, the tiled-PCR plan (the multipliers k1 = a/b_up
// and k2 = c/b_dn of every combine, paper Eqs. 5-6) and the p-Thomas
// record of the 2^k subsystems (reduced a, c' and the pivot factors).
// Solving for a new right-hand side replays only the d-updates and the
// sweeps, with no division in the reduction — the extension of LU reuse
// to the hybrid algorithm, for ADI and other time-stepping workloads
// whose matrices are fixed.
//
// The replay takes the twins' operations in their order, so a
// factorized solve equals Solve and SolveReference at the same k bit
// for bit. Solve reuses scratch held on the factorization, so it
// allocates nothing and must not run concurrently on one factorization.
type HybridFactorization[T num.Real] struct {
	m, n, k    int
	red        *tiledpcr.HostReducer[T] // k >= 1: halo constants and replay buffers
	plans      []*tiledpcr.Plan[T]      // k >= 1: one per system
	a, cp, piv []T                      // M·N: the p-Thomas record of every system
	d          []T                      // k >= 1: N rows of reduced d
}

// FactorHybrid records every matrix of the batch at depth k: one
// HostReducer pass with a plan per system, then one recording sweep of
// its 2^k subsystems. k = KAuto applies the Table III heuristic
// (clamped to the system size). A zero or non-finite pivot, or one
// whose reciprocal overflows, is an error.
func FactorHybrid[T num.Real](b *matrix.Batch[T], k int) (*HybridFactorization[T], error) {
	m, n := b.M, b.N
	k = hostK(m, n, k)
	f := &HybridFactorization[T]{m: m, n: n, k: k, a: make([]T, m*n), cp: make([]T, m*n), piv: make([]T, m*n)}
	x := make([]T, n)
	var r [3][]T // the reduced b, c, d of one system
	if k > 0 {
		f.red, f.plans, f.d = tiledpcr.NewHostReducer[T](k), make([]*tiledpcr.Plan[T], m), make([]T, n)
		r = [3][]T{make([]T, n), make([]T, n), make([]T, n)}
	}
	for i := range m {
		s, e := i*n, (i+1)*n
		a, bd, c, d := b.Lower[s:e], b.Diag[s:e], b.Upper[s:e], b.RHS[s:e]
		if k > 0 {
			f.plans[i] = f.red.NewPlan(n)
			f.red.Reduce(a, bd, c, d, f.a[s:e], r[0], r[1], r[2], f.plans[i])
			bd, c, d = r[0], r[1], r[2]
		} else {
			copy(f.a[s:e], a)
		}
		pthomas.RecordStridedInto(f.a[s:e], bd, c, d, x, f.cp[s:e], f.piv[s:e], k)
		for j, v := range f.piv[s:e] {
			if v == 0 || !num.IsFinite(v) {
				return nil, fmt.Errorf("core: system %d subsystem %d row %d: zero pivot", i, j%(1<<k), j>>k)
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
// contiguous) into x, system by system: the plan's replay reduces d
// into the factorization's scratch, and the sweeps' replay solves from
// it. d and x may alias. Solve allocates nothing.
func (f *HybridFactorization[T]) Solve(d, x []T) error {
	m, n, k := f.m, f.n, f.k
	if len(d) != m*n || len(x) != m*n {
		return fmt.Errorf("core: factorized solve length mismatch (want %d)", m*n)
	}
	for i := range m {
		s, e := i*n, (i+1)*n
		di := d[s:e]
		if k > 0 {
			f.red.Replay(f.plans[i], di, f.d)
			di = f.d
		}
		pthomas.ReplayStridedInto(f.a[s:e], f.cp[s:e], f.piv[s:e], di, x[s:e], k)
	}
	return nil
}
