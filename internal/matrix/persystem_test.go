package matrix

import (
	"math"
	"testing"

	"gputrid/internal/num"
)

// threeSystems builds a 3×4 batch whose systems are identity matrices
// with distinct right-hand sides, so solutions are the RHS themselves.
func threeSystems() *Batch[float64] {
	b := NewBatch[float64](3, 4)
	for i := range b.Diag {
		b.Diag[i] = 1
		b.RHS[i] = float64(i)
	}
	return b
}

func TestResidualsPerSystemIsolatesNonFinite(t *testing.T) {
	b := threeSystems()
	x := append([]float64(nil), b.RHS...) // exact solution everywhere
	x[1*4+2] = math.NaN()                 // poison system 1 only
	rs := residualsOf(b, x)
	if rs[0] != 0 || rs[2] != 0 {
		t.Errorf("healthy systems have residuals %g, %g; want 0", rs[0], rs[2])
	}
	if !math.IsInf(rs[1], 1) {
		t.Errorf("poisoned system residual %g, want +Inf", rs[1])
	}
	// MaxResidual must agree with the per-system worst.
	if r := MaxResidual(b, x); !math.IsInf(r, 1) {
		t.Errorf("MaxResidual %g, want +Inf", r)
	}
}

// residualsOf is the Residual of every system of b, one by one.
func residualsOf[T num.Real](b *Batch[T], x []T) []float64 {
	rs := make([]float64, b.M)
	for i := range rs {
		rs[i] = Residual(b.System(i), x[i*b.N:(i+1)*b.N])
	}
	return rs
}

func TestSystemIsFinite(t *testing.T) {
	s := NewSystem[float64](3)
	s.Diag[0] = 1
	if !s.IsFinite() {
		t.Error("finite system reported non-finite")
	}
	s.Lower[2] = math.Inf(-1)
	if s.IsFinite() {
		t.Error("Inf coefficient not detected")
	}
}
