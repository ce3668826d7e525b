package core

import (
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// TestSystemViewSharesStorage: the view must alias the batch (that is
// its point — per-system re-factorization without copying), and a
// FactorHybrid of the view must solve the system.
func TestSystemViewSharesStorage(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 3, 64, 17)
	v := SystemView(b, 1)
	if v.M != 1 || v.N != 64 {
		t.Fatalf("view shape %dx%d", v.M, v.N)
	}
	v.Diag[0] = 123
	if b.Diag[64] != 123 {
		t.Error("SystemView copied instead of aliasing")
	}
	b.Diag[64] = 2 // restore a sane diagonal

	f, err := FactorHybrid(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	if err := f.Solve(v.RHS, x); err != nil {
		t.Fatal(err)
	}
	if err := matrix.CheckSolution(b.System(1), x); err != nil {
		t.Errorf("factor-of-view solve: %v", err)
	}
}
