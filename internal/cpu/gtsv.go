package cpu

import (
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// GTSVWorkspace holds the working copies a pivoting solve mutates (the
// three diagonals, plus the second super-diagonal filled in by row
// swaps), so repeated single-system re-solves — the guard's per-system
// rescue path — do not reallocate.
type GTSVWorkspace[T num.Real] struct {
	dl, d, du, du2 []T
}

// NewGTSVWorkspace returns a workspace for systems of up to n rows.
func NewGTSVWorkspace[T num.Real](n int) *GTSVWorkspace[T] {
	w := &GTSVWorkspace[T]{}
	w.grow(n)
	return w
}

func (w *GTSVWorkspace[T]) grow(n int) {
	if len(w.dl) < n {
		w.dl = make([]T, n)
		w.d = make([]T, n)
		w.du = make([]T, n)
		w.du2 = make([]T, n)
	}
}

// SolveGTSV solves one tridiagonal system with LU decomposition and
// partial pivoting — the algorithm behind LAPACK/MKL dgtsv, the paper's
// actual CPU baseline. Unlike Thomas it is stable for any nonsingular
// tridiagonal matrix, at the price of an extra super-diagonal fill-in
// vector and branchy row swaps (the reason the proxy cost model charges
// it more cycles per row than textbook Thomas).
//
// The input is not modified.
func SolveGTSV[T num.Real](s *matrix.System[T]) ([]T, error) {
	x := make([]T, s.N())
	if err := SolveGTSVInto(s, x, NewGTSVWorkspace[T](s.N())); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveGTSVInto is SolveGTSV with caller-provided output and workspace:
// it re-solves a single system without allocating and without touching
// any other system of a batch (pass a Batch.System(i) view). On error x
// is left unspecified. Every product that feeds a sum is rounded
// explicitly, T(x*y), so no architecture fuses it into a multiply-add
// and the solution is the same on each.
func SolveGTSVInto[T num.Real](s *matrix.System[T], x []T, w *GTSVWorkspace[T]) error {
	n := s.N()
	if len(x) != n {
		panic("cpu: SolveGTSVInto output length mismatch")
	}
	if n == 0 {
		return nil
	}
	w.grow(n)
	// Working copies of the three diagonals, RHS, and the second
	// super-diagonal fill-in introduced by row swaps.
	dl := w.dl[:n] // dl[i] couples row i to i-1
	d := w.d[:n]
	du := w.du[:n]
	du2 := w.du2[:n]
	copy(dl, s.Lower)
	copy(d, s.Diag)
	copy(du, s.Upper)
	for i := range du2 {
		du2[i] = 0 // fill-in: row i to i+2
	}
	copy(x, s.RHS)

	for i := 0; i < n-1; i++ {
		if num.Abs(d[i]) >= num.Abs(dl[i+1]) {
			// No swap: eliminate dl[i+1] with row i.
			if d[i] == 0 {
				return ErrZeroPivot
			}
			f := dl[i+1] / d[i]
			d[i+1] -= T(f * du[i])
			x[i+1] -= T(f * x[i])
			// du2 of row i stays zero in this branch.
		} else {
			// Swap rows i and i+1, then eliminate.
			f := d[i] / dl[i+1]
			d[i], dl[i+1] = dl[i+1], 0 // pivot now the old subdiagonal entry
			newDu := d[i+1]
			d[i+1] = du[i] - T(f*newDu)
			du[i] = newDu
			if i < n-2 {
				du2[i] = du[i+1]
				du[i+1] = -f * du[i+1]
			}
			x[i], x[i+1] = x[i+1], x[i]-T(f*x[i+1])
		}
	}
	if d[n-1] == 0 {
		return ErrZeroPivot
	}

	// Back substitution with the extra diagonal.
	x[n-1] /= d[n-1]
	if n >= 2 {
		x[n-2] = (x[n-2] - T(du[n-2]*x[n-1])) / d[n-2]
	}
	for i := n - 3; i >= 0; i-- {
		x[i] = (x[i] - T(du[i]*x[i+1]) - T(du2[i]*x[i+2])) / d[i]
	}
	return nil
}

// StridedGTSV is the one host re-solve of single systems inside a batch
// of either layout (a matrix.Strided view), for the guard's verdict
// and the pipeline's degraded re-solve. Sys and X hold the system last
// gathered and its solution rows; with its workspace they are reused,
// so re-solves do not allocate.
type StridedGTSV[T num.Real] struct {
	Sys *matrix.System[T]
	X   []T
	ws  *GTSVWorkspace[T]
}

// NewStridedGTSV returns a re-solver for systems of n rows.
func NewStridedGTSV[T num.Real](n int) *StridedGTSV[T] {
	return &StridedGTSV[T]{Sys: matrix.NewSystem[T](n), X: make([]T, n), ws: NewGTSVWorkspace[T](n)}
}

// Gather copies system i of v into Sys and its solution rows into X.
func (g *StridedGTSV[T]) Gather(v matrix.Strided[T], i int) {
	s := g.Sys
	for j := range v.N {
		at := i*v.SS + j*v.RS
		s.Lower[j], s.Diag[j], s.Upper[j], s.RHS[j], g.X[j] = v.Lower[at], v.Diag[at], v.Upper[at], v.RHS[at], v.X[at]
	}
}

// Scatter writes X into system i's solution rows of v.
func (g *StridedGTSV[T]) Scatter(v matrix.Strided[T], i int) {
	for j, x := range g.X {
		v.X[i*v.SS+j*v.RS] = x
	}
}

// Resolve gathers system i of v, solves it with SolveGTSVInto and
// scatters the solution into v, zeros when the solve fails (with its
// error). Sys and X keep both for the caller to judge.
func (g *StridedGTSV[T]) Resolve(v matrix.Strided[T], i int) error {
	g.Gather(v, i)
	err := SolveGTSVInto(g.Sys, g.X, g.ws)
	if err != nil {
		clear(g.X)
	}
	g.Scatter(v, i)
	return err
}

// SolveBatchGTSV runs SolveGTSV over every system of a batch,
// returning the solutions contiguously.
func SolveBatchGTSV[T num.Real](b *matrix.Batch[T]) ([]T, error) {
	x := make([]T, b.M*b.N)
	w := NewGTSVWorkspace[T](b.N)
	for i := 0; i < b.M; i++ {
		if err := SolveGTSVInto(b.System(i), x[i*b.N:(i+1)*b.N], w); err != nil {
			return nil, err
		}
	}
	return x, nil
}
