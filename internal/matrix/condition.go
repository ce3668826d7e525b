package matrix

import (
	"math"

	"gputrid/internal/num"
)

// Norm1 returns the 1-norm of the tridiagonal matrix (maximum absolute
// column sum).
func (s *System[T]) Norm1() T {
	n := s.N()
	var m T
	for j := 0; j < n; j++ {
		col := num.Abs(s.Diag[j])
		if j > 0 {
			col += num.Abs(s.Upper[j-1]) // row j-1 couples to column j
		}
		if j < n-1 {
			col += num.Abs(s.Lower[j+1]) // row j+1 couples to column j
		}
		m = num.Max(m, col)
	}
	return m
}

// Transpose returns the transposed system (sub- and super-diagonals
// swapped); the RHS is copied unchanged.
func (s *System[T]) Transpose() *System[T] {
	n := s.N()
	t := NewSystem[T](n)
	copy(t.Diag, s.Diag)
	copy(t.RHS, s.RHS)
	for i := 0; i < n-1; i++ {
		t.Upper[i] = s.Lower[i+1]
		t.Lower[i+1] = s.Upper[i]
	}
	return t
}

// Cond1Est estimates the 1-norm condition number κ₁(A) = ‖A‖₁·‖A⁻¹‖₁
// with Hager's algorithm as refined by Higham (the method behind
// LAPACK's xGECON): a few tridiagonal solves with A and Aᵀ steer a
// gradient ascent on ‖A⁻¹x‖₁/‖x‖₁. The solver callback must solve the
// given system (it is handed fresh System values whose RHS is the
// vector to invert against).
//
// Returns +Inf when a solve fails (singular matrix). The estimate is a
// lower bound on the true κ₁, almost always within a small factor.
func Cond1Est[T num.Real](s *System[T], solve func(*System[T]) ([]T, error)) float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	at := s.Transpose()

	solveWith := func(m *System[T], rhs []T) ([]T, bool) {
		w := m.Clone()
		copy(w.RHS, rhs)
		x, err := solve(w)
		if err != nil {
			return nil, false
		}
		for _, v := range x {
			if !num.IsFinite(v) {
				return nil, false
			}
		}
		return x, true
	}

	norm1 := func(v []T) float64 {
		var sum float64
		for _, u := range v {
			sum += math.Abs(float64(u))
		}
		return sum
	}

	x := make([]T, n)
	for i := range x {
		x[i] = T(1.0 / float64(n))
	}
	var est float64
	for iter := 0; iter < 5; iter++ {
		y, ok := solveWith(s, x)
		if !ok {
			return math.Inf(1)
		}
		est = norm1(y)
		// ξ = sign(y)
		xi := make([]T, n)
		for i, v := range y {
			if v >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		z, ok := solveWith(at, xi)
		if !ok {
			return math.Inf(1)
		}
		// Find j maximizing |z_j|.
		j, zmax := 0, math.Abs(float64(z[0]))
		for i := 1; i < n; i++ {
			if a := math.Abs(float64(z[i])); a > zmax {
				j, zmax = i, a
			}
		}
		var ztx float64
		for i := range z {
			ztx += float64(z[i]) * float64(x[i])
		}
		if zmax <= ztx {
			break // converged
		}
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
	}
	return float64(s.Norm1()) * est
}

// Cond1EstBatch runs Cond1Est on the selected systems of a batch,
// returning estimates aligned with systems (result[j] is the estimate
// for batch system systems[j]). Estimation costs a handful of pivoted
// solves per system, so callers invoke it lazily, only for the systems
// they care about (e.g. the ones that needed rescue).
func Cond1EstBatch[T num.Real](b *Batch[T], systems []int, solve func(*System[T]) ([]T, error)) []float64 {
	out := make([]float64, len(systems))
	for j, i := range systems {
		out[j] = Cond1Est(b.System(i), solve)
	}
	return out
}
