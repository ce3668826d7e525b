package cpu_test

// The batched CPU factorization is core.FactorHybrid at k = 0: its factors
// are Thomas's forward-elimination coefficients. These tests check it
// against this package's Thomas solver. They live in an external test
// package because core imports cpu.

import (
	"testing"
	"testing/quick"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

func TestFactorBatchMatchesThomas(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 6, 77, 3)
	f, err := core.FactorHybrid(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, b.M*b.N)
	if err := f.Solve(b.RHS, x); err != nil {
		t.Fatal(err)
	}
	want, err := cpu.SolveBatchSeq(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(x, want); d > 1e-14 {
		t.Errorf("factored solve differs from Thomas by %g", d)
	}
}

func TestFactorBatchRepeatedSolves(t *testing.T) {
	// Time-stepping pattern: one factorization, many right-hand sides.
	b := workload.Batch[float64](workload.Heat, 4, 64, 9)
	f, err := core.FactorHybrid(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := num.NewRNG(5)
	x := make([]float64, b.M*b.N)
	for step := 0; step < 5; step++ {
		for i := range b.RHS {
			b.RHS[i] = rng.Range(-1, 1)
		}
		if err := f.Solve(b.RHS, x); err != nil {
			t.Fatal(err)
		}
		if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](b.N) {
			t.Fatalf("step %d: residual %g", step, r)
		}
	}
}

func TestFactorBatchInPlace(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 3, 40, 11)
	f, err := core.FactorHybrid(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	rhs := append([]float64(nil), b.RHS...)
	if err := f.Solve(rhs, rhs); err != nil { // aliased
		t.Fatal(err)
	}
	want, _ := cpu.SolveBatchSeq(b)
	if d := matrix.MaxAbsDiff(rhs, want); d > 1e-14 {
		t.Errorf("in-place solve differs by %g", d)
	}
}

func TestFactorBatchErrors(t *testing.T) {
	sing := matrix.NewBatch[float64](1, 4) // zero matrix
	if _, err := core.FactorHybrid(sing, 0); err == nil {
		t.Error("singular factorization accepted")
	}
	b := workload.Batch[float64](workload.DiagDominant, 2, 8, 1)
	f, err := core.FactorHybrid(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Solve(make([]float64, 3), make([]float64, 16)); err == nil {
		t.Error("short rhs accepted")
	}
	if m, n := f.Shape(); m != 2 || n != 8 {
		t.Errorf("Shape = %d,%d", m, n)
	}
}

func TestFactorBatchProperty(t *testing.T) {
	f := func(seed uint32, mRaw, nRaw uint8) bool {
		m := int(mRaw)%8 + 1
		n := int(nRaw)%100 + 1
		b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(seed))
		fac, err := core.FactorHybrid(b, 0)
		if err != nil {
			return false
		}
		x := make([]float64, m*n)
		if err := fac.Solve(b.RHS, x); err != nil {
			return false
		}
		return matrix.MaxResidual(b, x) <= matrix.ResidualTolerance[float64](n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
