package matrix

import (
	"fmt"
	"math"

	"gputrid/internal/num"
)

// Residual returns the normwise relative backward error of a candidate
// solution x:
//
//	||A x − d||_inf / (||A||_inf ||x||_inf + ||d||_inf)
//
// For a backward-stable solve on a well-conditioned system this is a
// small multiple of machine epsilon. It is +Inf, never NaN, when x or
// d holds a non-finite entry, when A x does, or when both norms
// overflow, so a non-finite input fails a `<= tol` check and passes no
// `> tol` one. Every product that feeds a sum is rounded explicitly,
// T(x*y), so no architecture fuses it into a multiply-add and the
// residual is the same on each.
func Residual[T num.Real](s *System[T], x []T) float64 {
	n := s.N()
	if len(x) != n {
		panic("matrix: Residual dimension mismatch")
	}
	// A x is computed row by row (same expression and evaluation order
	// as System.Apply) instead of through Apply, so the residual scan
	// allocates nothing — it runs per system per solve on the guarded
	// path.
	var rmax, xmax, dmax float64
	for i := 0; i < n; i++ {
		v := T(s.Diag[i] * x[i])
		if i > 0 {
			v += T(s.Lower[i] * x[i-1])
		}
		if i < n-1 {
			v += T(s.Upper[i] * x[i+1])
		}
		if !num.IsFinite(x[i]) || !num.IsFinite(v) || !num.IsFinite(s.RHS[i]) {
			return math.Inf(1)
		}
		r := float64(v) - float64(s.RHS[i])
		if r < 0 {
			r = -r
		}
		if r > rmax {
			rmax = r
		}
		xa := float64(num.Abs(x[i]))
		if xa > xmax {
			xmax = xa
		}
		da := float64(num.Abs(s.RHS[i]))
		if da > dmax {
			dmax = da
		}
	}
	den := float64(float64(s.InfNorm())*xmax) + dmax
	if den == 0 {
		return rmax
	}
	if q := rmax / den; q == q {
		return q
	}
	return math.Inf(1) // Inf/Inf: |A x − d| and the norms overflowed
}

// MaxResidual returns the worst Residual over all systems in a batch,
// where x holds the M solutions contiguously (system i in [i*N,(i+1)*N)).
// It does not allocate.
func MaxResidual[T num.Real](b *Batch[T], x []T) float64 {
	if len(x) != b.M*b.N {
		panic("matrix: MaxResidual dimension mismatch")
	}
	var worst float64
	var sys System[T]
	for i := 0; i < b.M; i++ {
		lo, hi := i*b.N, (i+1)*b.N
		sys.Lower, sys.Diag, sys.Upper, sys.RHS =
			b.Lower[lo:hi], b.Diag[lo:hi], b.Upper[lo:hi], b.RHS[lo:hi]
		worst = max(worst, Residual(&sys, x[lo:hi]))
	}
	return worst
}

// ResidualTolerance returns a pass/fail threshold for the relative
// residual of an n-row solve in precision T: c·n·eps with a generous
// constant, loose enough for the non-pivoting parallel algorithms on
// diagonally dominant systems, tight enough to catch real bugs (which
// produce O(1) residuals).
func ResidualTolerance[T num.Real](n int) float64 {
	eps := float64(num.Eps[T]())
	c := 64.0
	t := c * float64(n) * eps
	if t > 1e-2 {
		t = 1e-2
	}
	return t
}

// CheckSolution verifies x against the system with ResidualTolerance and
// returns a descriptive error on failure.
func CheckSolution[T num.Real](s *System[T], x []T) error {
	for i, v := range x {
		if !num.IsFinite(v) {
			return fmt.Errorf("matrix: non-finite solution entry x[%d]=%v", i, v)
		}
	}
	r := Residual(s, x)
	tol := ResidualTolerance[T](s.N())
	if r > tol {
		return fmt.Errorf("matrix: residual %.3e exceeds tolerance %.3e (n=%d)", r, tol, s.N())
	}
	return nil
}

// MaxAbsDiff returns the largest elementwise |a[i]−b[i]|.
func MaxAbsDiff[T num.Real](a, b []T) T {
	if len(a) != len(b) {
		panic("matrix: MaxAbsDiff length mismatch")
	}
	var m T
	for i := range a {
		m = num.Max(m, num.Abs(a[i]-b[i]))
	}
	return m
}

// MaxRelDiff returns the largest elementwise num.RelDiff(a[i], b[i]).
func MaxRelDiff[T num.Real](a, b []T) T {
	if len(a) != len(b) {
		panic("matrix: MaxRelDiff length mismatch")
	}
	var m T
	for i := range a {
		m = num.Max(m, num.RelDiff(a[i], b[i]))
	}
	return m
}

// ResidualsPerSystemInterleavedInto is the per-system Residual scan of
// an interleaved batch with an interleaved candidate solution x (entry
// of system i at row j lives at j*M+i): dst[i] receives the Residual of
// system i for the first count systems. It traverses row-major — one
// pass over the strided planes — but accumulates each system's
// max/sum reductions in exactly the order Residual does row by row, so
// the results are bitwise identical to deinterleaving and calling
// Residual on each system, on every architecture: its products are
// rounded as Residual rounds them, so none fuses into a multiply-add.
// That identity is what lets the guard judge a coalesced megabatch
// without converting layouts.
//
// scratch must hold at least 3*count float64s; it carries the per-
// system xmax/dmax/|A|_inf partials across rows and its contents on
// entry are ignored.
//
//tridlint:hotpath
func ResidualsPerSystemInterleavedInto[T num.Real](dst, scratch []float64, v *Interleaved[T], x []T, count int) {
	if count < 0 || count > v.M {
		panic("matrix: ResidualsPerSystemInterleavedInto count out of range")
	}
	if len(x) < v.M*v.N {
		panic("matrix: ResidualsPerSystemInterleavedInto solution length mismatch")
	}
	if len(dst) < count || len(scratch) < 3*count {
		panic("matrix: ResidualsPerSystemInterleavedInto buffer too short")
	}
	xmax := scratch[:count]
	dmax := scratch[count : 2*count]
	anorm := scratch[2*count : 3*count]
	for i := 0; i < count; i++ {
		dst[i], xmax[i], dmax[i], anorm[i] = 0, 0, 0, 0
	}
	m, n := v.M, v.N
	for j := 0; j < n; j++ {
		base := j * m
		for i := 0; i < count; i++ {
			// xmax < 0 marks a system already classified non-finite:
			// Residual early-returns +Inf there, so stop accumulating.
			if xmax[i] < 0 {
				continue
			}
			idx := base + i
			xi := x[idx]
			val := T(v.Diag[idx] * xi)
			if j > 0 {
				val += T(v.Lower[idx] * x[idx-m])
			}
			if j < n-1 {
				val += T(v.Upper[idx] * x[idx+m])
			}
			if !num.IsFinite(xi) || !num.IsFinite(val) || !num.IsFinite(v.RHS[idx]) {
				dst[i] = math.Inf(1)
				xmax[i] = -1
				continue
			}
			r := float64(val) - float64(v.RHS[idx])
			if r < 0 {
				r = -r
			}
			if r > dst[i] {
				dst[i] = r
			}
			if xa := float64(num.Abs(xi)); xa > xmax[i] {
				xmax[i] = xa
			}
			if da := float64(num.Abs(v.RHS[idx])); da > dmax[i] {
				dmax[i] = da
			}
			// ||A||_inf accumulates in T exactly as System.InfNorm does;
			// the float64 slot round-trips T values losslessly.
			row := num.Abs(v.Diag[idx])
			if j > 0 {
				row += num.Abs(v.Lower[idx])
			}
			if j < n-1 {
				row += num.Abs(v.Upper[idx])
			}
			anorm[i] = float64(num.Max(T(anorm[i]), row))
		}
	}
	for i := 0; i < count; i++ {
		if xmax[i] < 0 {
			continue // dst[i] is already +Inf
		}
		if den := float64(anorm[i]*xmax[i]) + dmax[i]; den != 0 {
			if dst[i] /= den; dst[i] != dst[i] {
				dst[i] = math.Inf(1) // Inf/Inf, as in Residual
			}
		}
	}
}
