package matrix

import (
	"math"
	"testing"
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
	rs := ResidualsPerSystem(b, x)
	if len(rs) != 3 {
		t.Fatalf("%d residuals, want 3", len(rs))
	}
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
