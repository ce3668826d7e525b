package core

import (
	"math"
	"testing"
	"testing/quick"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// TestFactorHybridMatchesReferenceExactly pins a factorized solve to
// Solve and SolveReference bit for bit (a NaN matching any NaN, as in
// the audit) at k = 0, 1, 4 and 8, in both precisions, on diagonally
// dominant and near-singular input, for the right-hand side the batch
// was factored with and for another.
func TestFactorHybridMatchesReferenceExactly(t *testing.T) {
	factorMatchesSolve[float64](t)
	factorMatchesSolve[float32](t)
}

func factorMatchesSolve[T num.Real](t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{1, 64, 3}, {4, 100, 2}, {2, 257, 4}, {3, 512, 6}, {2, 50, 0}, {6, 77, 0},
		{5, 300, 1}, {3, 1000, 4}, {2, 256, 8}, {4, 33, 0}, {1, 2, 1},
	} {
		for _, kind := range []workload.Kind{workload.DiagDominant, workload.NearSingular} {
			b := workload.Batch[T](kind, tc.m, tc.n, uint64(tc.m*tc.n+tc.k))
			f, err := FactorHybrid(b, tc.k)
			if err != nil {
				t.Fatalf("%+v: %v", tc, err)
			}
			for _, rhs := range []string{"factored", "random"} {
				if rhs == "random" {
					rng := num.NewRNG(uint64(tc.n))
					for i := range b.RHS {
						b.RHS[i] = T(rng.Range(-3, 3))
					}
				}
				x := make([]T, tc.m*tc.n)
				if err := f.Solve(b.RHS, x); err != nil {
					t.Fatal(err)
				}
				want := SolveReference(b, tc.k)
				got, _, err := Solve(Config{K: tc.k}, b)
				if err != nil {
					t.Fatal(err)
				}
				for name, ref := range map[string][]T{"SolveReference": want, "Solve": got} {
					for i := range x {
						if num.Bits(x[i]) != num.Bits(ref[i]) && !(x[i] != x[i] && ref[i] != ref[i]) {
							t.Fatalf("%+v %v %s rhs: x[%d] = %v (%#x), %s %v (%#x)",
								tc, kind, rhs, i, x[i], num.Bits(x[i]), name, ref[i], num.Bits(ref[i]))
						}
					}
				}
			}
		}
	}
}

// TestFactorHybridRepeatedRHS is the time-stepping pattern: one
// factorization, many right-hand sides.
func TestFactorHybridRepeatedRHS(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{{4, 300, 5}, {4, 64, 0}} {
		b := workload.Batch[float64](workload.Heat, tc.m, tc.n, 7)
		f, err := FactorHybrid(b, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		rng := num.NewRNG(3)
		x := make([]float64, tc.m*tc.n)
		for step := 0; step < 4; step++ {
			for i := range b.RHS {
				b.RHS[i] = rng.Range(-2, 2)
			}
			if err := f.Solve(b.RHS, x); err != nil {
				t.Fatal(err)
			}
			if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](tc.n) {
				t.Fatalf("%+v step %d: residual %g", tc, step, r)
			}
		}
	}
}

func TestFactorHybridAutoK(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 8, 1024, 9)
	f, err := FactorHybrid(b, KAuto)
	if err != nil {
		t.Fatal(err)
	}
	if f.K() != 8 { // Table III: M < 16 -> 8
		t.Errorf("auto k = %d, want 8", f.K())
	}
	x := make([]float64, 8*1024)
	if err := f.Solve(b.RHS, x); err != nil {
		t.Fatal(err)
	}
	if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](1024) {
		t.Errorf("residual %g", r)
	}
}

func TestFactorHybridInPlaceAndErrors(t *testing.T) {
	for _, k := range []int{3, 0} {
		b := workload.Batch[float64](workload.DiagDominant, 2, 64, 5)
		f, err := FactorHybrid(b, k)
		if err != nil {
			t.Fatal(err)
		}
		if m, n := f.Shape(); m != 2 || n != 64 {
			t.Errorf("k = %d: Shape = %d,%d, want 2,64", k, m, n)
		}
		want := make([]float64, len(b.RHS))
		if err := f.Solve(b.RHS, want); err != nil {
			t.Fatal(err)
		}
		rhs := append([]float64(nil), b.RHS...)
		if err := f.Solve(rhs, rhs); err != nil { // aliased
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(rhs, want); d != 0 {
			t.Errorf("k = %d: in-place solve differs from out-of-place by %g", k, d)
		}
		if r := matrix.MaxResidual(b, rhs); r > matrix.ResidualTolerance[float64](64) {
			t.Errorf("k = %d: in-place residual %g", k, r)
		}
		if err := f.Solve(make([]float64, 3), rhs); err == nil {
			t.Errorf("k = %d: short rhs accepted", k)
		}
		sing := matrix.NewBatch[float64](1, 8)
		if _, err := FactorHybrid(sing, k); err == nil {
			t.Errorf("k = %d: singular factorization accepted", k)
		}
	}
	// A non-finite pivot is rejected like a zero one, at k = 0 too.
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		b := workload.Batch[float64](workload.DiagDominant, 1, 8, 5)
		b.Diag[3] = bad
		if _, err := FactorHybrid(b, 0); err == nil {
			t.Errorf("pivot %v accepted", bad)
		}
	}
}

// TestFactorHybridIndependentOfInput: mutating the batch after factoring
// must not change the solutions.
func TestFactorHybridIndependentOfInput(t *testing.T) {
	for _, k := range []int{0, 2} {
		b := workload.Batch[float64](workload.DiagDominant, 2, 16, 13)
		f, err := FactorHybrid(b, k)
		if err != nil {
			t.Fatal(err)
		}
		rhs := append([]float64(nil), b.RHS...)
		want := make([]float64, len(rhs))
		if err := f.Solve(rhs, want); err != nil {
			t.Fatal(err)
		}
		for i := range b.Lower {
			b.Lower[i], b.Diag[i], b.Upper[i] = 999, -1, 42
		}
		got := make([]float64, len(rhs))
		if err := f.Solve(rhs, got); err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got, want); d != 0 {
			t.Errorf("k = %d: factorization aliased the input batch (diff %g)", k, d)
		}
	}
}

// TestFactorHybridK0ZeroAlloc pins a factorized solve, in place or
// not, at zero allocations, at k = 0 and at the k >= 1 depths whose
// replay scratch lives on the factorization.
func TestFactorHybridK0ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := workload.Batch[float64](workload.DiagDominant, 16, 513, 2)
	for _, k := range []int{0, 1, 4, 6} {
		f, err := FactorHybrid(b, k)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, len(b.RHS))
		rhs := append([]float64(nil), b.RHS...)
		allocs := testing.AllocsPerRun(10, func() {
			if err := f.Solve(b.RHS, x); err != nil {
				t.Fatal(err)
			}
			if err := f.Solve(rhs, rhs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("k = %d factorized solve: %v allocs per run, want 0", k, allocs)
		}
	}
}

func TestFactorHybridProperty(t *testing.T) {
	f := func(seed uint32, mRaw, nRaw, kRaw uint8) bool {
		m := int(mRaw)%6 + 1
		n := int(nRaw)%200 + 1
		k := int(kRaw) % 7
		b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(seed))
		fac, err := FactorHybrid(b, k)
		if err != nil {
			return false
		}
		x := make([]float64, m*n)
		if err := fac.Solve(b.RHS, x); err != nil {
			return false
		}
		return firstDiff(SolveReference(b, fac.K()), x) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
