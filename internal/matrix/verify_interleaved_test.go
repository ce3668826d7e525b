package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// sameFloat treats two float64s as equal when they are bitwise equal
// or both NaN — the equivalence the interleaved residual scan promises
// against the contiguous one.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b)) ||
		(math.IsInf(a, 1) && math.IsInf(b, 1))
}

// TestResidualsPerSystemInterleavedBitwise drives the interleaved
// residual scan against Residual of each system on the same data in
// both layouts and requires bitwise-identical residuals, including
// the +Inf classification of poisoned systems. The batching
// front-end's per-system guard verdicts rest on this identity.
func TestResidualsPerSystemInterleavedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range []struct{ m, n int }{{1, 8}, {7, 33}, {64, 16}, {16, 257}} {
		m, n := sh.m, sh.n
		b := NewBatch[float64](m, n)
		x := make([]float64, m*n)
		for i := range b.Diag {
			b.Lower[i] = rng.NormFloat64()
			b.Upper[i] = rng.NormFloat64()
			b.Diag[i] = 4 + rng.Float64()
			b.RHS[i] = rng.NormFloat64()
			x[i] = rng.NormFloat64()
		}
		// Poison systems the way real faults do: a non-finite solution
		// entry, an infinite and a NaN RHS (each +Inf in both scans),
		// and finite rows whose residual and norms overflow (Inf/Inf,
		// which both scans report as +Inf).
		if m >= 5 {
			x[1*n+n/2] = math.NaN()
			b.RHS[2*n] = math.Inf(1)
			b.RHS[3*n+n-1] = math.NaN()
			b.Diag[4*n], b.RHS[4*n], x[4*n] = 1.5e308, -1.5e308, 1
		}

		want := residualsOf(b, x)
		for i := 1; i < 5 && m >= 5; i++ {
			if !math.IsInf(want[i], 1) {
				t.Fatalf("%dx%d poisoned system %d: Residual %v, want +Inf", m, n, i, want[i])
			}
		}

		v := b.ToInterleaved()
		xi := InterleaveVector(x, m, n)
		got := make([]float64, m)
		scratch := make([]float64, 3*m)
		for i := range scratch {
			scratch[i] = math.NaN() // contents on entry must not matter
		}
		ResidualsPerSystemInterleavedInto(got, scratch, v, xi, m)
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%dx%d system %d: interleaved residual %v != contiguous %v",
					m, n, i, got[i], want[i])
			}
		}

		// A shorter count scans a prefix only.
		if m > 2 {
			partial := make([]float64, m)
			ResidualsPerSystemInterleavedInto(partial, scratch, v, xi, 2)
			for i := 0; i < 2; i++ {
				if !sameFloat(partial[i], want[i]) {
					t.Fatalf("prefix scan system %d: %v != %v", i, partial[i], want[i])
				}
			}
		}
	}
}

// TestResidualsPerSystemInterleavedFloat32 pins the T-typed ||A||_inf
// accumulation: for float32 the row sums must round in float32, as
// System.InfNorm does, or residuals drift from the contiguous scan.
func TestResidualsPerSystemInterleavedFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 9, 41
	b := NewBatch[float32](m, n)
	x := make([]float32, m*n)
	for i := range b.Diag {
		b.Lower[i] = float32(rng.NormFloat64())
		b.Upper[i] = float32(rng.NormFloat64())
		b.Diag[i] = float32(4 + rng.Float64())
		b.RHS[i] = float32(rng.NormFloat64())
		x[i] = float32(rng.NormFloat64())
	}
	want := residualsOf(b, x)
	got := make([]float64, m)
	scratch := make([]float64, 3*m)
	ResidualsPerSystemInterleavedInto(got, scratch, b.ToInterleaved(), InterleaveVector(x, m, n), m)
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("float32 system %d: interleaved residual %v != contiguous %v", i, got[i], want[i])
		}
	}
}
