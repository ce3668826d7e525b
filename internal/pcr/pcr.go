// Package pcr implements the classic parallel tridiagonal reductions
// the paper builds on and compares against: cyclic reduction (CR),
// parallel cyclic reduction (PCR, both full and incomplete k-step), and
// Stone's recursive doubling (RD). These are the clean reference
// formulations — sequential Go code operating on whole systems — used
// to validate the tiled/streamed GPU kernels and to reason about
// elimination-step counts; the production data path lives in
// internal/tiledpcr and internal/core.
package pcr

import (
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Row is one equation of a tridiagonal system: A·x[left] + B·x[mid] +
// C·x[right] = D, where left/mid/right are implied by the row's
// position and the current PCR coupling distance.
type Row[T num.Real] struct {
	A, B, C, D T
}

// Identity returns the virtual row used beyond the matrix boundary:
// 0·x + 1·x + 0·x = 0, i.e. a decoupled unknown pinned to zero.
// Combining against identity rows is what makes every PCR schedule in
// this module correct for arbitrary n without special boundary code.
func Identity[T num.Real]() Row[T] { return Row[T]{A: 0, B: 1, C: 0, D: 0} }

// Combine performs one PCR elimination (paper Eqs. 5-6): it rewrites
// mid using its current neighbors up and dn, eliminating the coupling
// to them and coupling instead to their outer neighbors. Every PCR
// variant in this module — naive, streamed, tiled, GPU kernel — funnels
// through this one function, so different schedules of the same
// reduction produce bitwise-identical coefficients (up to the sign of
// floating-point zeros at boundaries).
//
// Callers must ensure mid.A == 0 whenever up is the boundary identity
// row and mid.C == 0 whenever dn is (true for any well-formed system
// whose Lower[0] and Upper[n-1] are zero), so the quotients below
// vanish exactly.
//
// Every product that feeds a sum is rounded explicitly, T(x*y), so no
// compiler fuses it into a multiply-add (arm64 would): the tiled-PCR
// kernel and its host twin inline this function separately, and a
// fused product rounds once where an unfused one rounds twice.
func Combine[T num.Real](up, mid, dn Row[T]) Row[T] {
	k1 := mid.A / up.B
	k2 := mid.C / dn.B
	return Row[T]{
		A: -up.A * k1,
		B: mid.B - T(up.C*k1) - T(dn.A*k2),
		C: -dn.C * k2,
		D: mid.D - T(up.D*k1) - T(dn.D*k2),
	}
}

// Multipliers returns the quotients k1 = mid.A/up.B and k2 =
// mid.C/dn.B that Combine eliminates with, the part of the elimination
// that depends on the operator alone: given them, Combine's D,
// mid.D - T(up.D*k1) - T(dn.D*k2), is recomputed bit for bit for a new
// right-hand side without a division (tiledpcr.HostReducer.Replay).
// The quotients are Combine's own, so the same rows give the same bits.
func Multipliers[T num.Real](up, mid, dn Row[T]) (k1, k2 T) {
	return mid.A / up.B, mid.C / dn.B
}

// RowAt returns row i of s, or the boundary identity row when i is
// outside [0, n).
func RowAt[T num.Real](s *matrix.System[T], i int) Row[T] {
	if i < 0 || i >= s.N() {
		return Identity[T]()
	}
	return Row[T]{A: s.Lower[i], B: s.Diag[i], C: s.Upper[i], D: s.RHS[i]}
}

// SetRow stores r as row i of s.
func SetRow[T num.Real](s *matrix.System[T], i int, r Row[T]) {
	s.Lower[i], s.Diag[i], s.Upper[i], s.RHS[i] = r.A, r.B, r.C, r.D
}

// Normalize zeroes the structurally ignored corner coefficients
// Lower[0] and Upper[n-1] in place, establishing the precondition of
// Combine. Solvers call it on their private copies.
func Normalize[T num.Real](s *matrix.System[T]) {
	if n := s.N(); n > 0 {
		s.Lower[0] = 0
		s.Upper[n-1] = 0
	}
}

// Step applies one PCR forward-reduction step with the given stride to
// every row of src, writing the reduced system to dst (Jacobi-style:
// all reads from src, all writes to dst; dst and src must not alias).
// src must be normalized (see Normalize).
//
// After the step, row i couples only to rows i±2·stride, so repeated
// steps with strides 1, 2, 4, ... 2^(k-1) leave the rows partitioned
// into 2^k independent interleaved subsystems (paper Fig. 3-4).
func Step[T num.Real](dst, src *matrix.System[T], stride int) {
	n := src.N()
	if dst.N() != n {
		panic("pcr: Step size mismatch")
	}
	for i := 0; i < n; i++ {
		SetRow(dst, i, Combine(RowAt(src, i-stride), RowAt(src, i), RowAt(src, i+stride)))
	}
}

// Reduce applies k PCR steps (strides 1, 2, ..., 2^(k-1)) and returns
// the reduced system. The input is not modified.
func Reduce[T num.Real](s *matrix.System[T], k int) *matrix.System[T] {
	cur := s.Clone()
	Normalize(cur)
	if k <= 0 {
		return cur
	}
	next := matrix.NewSystem[T](s.N())
	stride := 1
	for step := 0; step < k; step++ {
		Step(next, cur, stride)
		cur, next = next, cur
		stride <<= 1
	}
	return cur
}

// Solve runs full PCR — ceil(log2 n) reduction steps until every row is
// decoupled — and returns the solution x[i] = d[i]/b[i].
// Work is O(n log n); step count is logn + 1 in the paper's accounting.
func Solve[T num.Real](s *matrix.System[T]) []T {
	n := s.N()
	x := make([]T, n)
	if n == 0 {
		return x
	}
	r := Reduce(s, num.CeilLog2(n))
	for i := 0; i < n; i++ {
		x[i] = r.RHS[i] / r.Diag[i]
	}
	return x
}

// EliminationSteps returns the paper's Table II step count for full PCR
// on a 2^n-row system: n·2^n + 1 total row updates... expressed per the
// paper as (n·2^n + 1) aggregate elimination work for input size 2^n.
// For a general size N it returns ceil(log2 N)·N + 1.
func EliminationSteps(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(num.CeilLog2(n))*int64(n) + 1
}
