package core

import (
	"math"
	"testing"

	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// TestDegenerateShapes drives the hybrid through every tiny/awkward
// shape the pipeline's index algebra must survive.
func TestDegenerateShapes(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{1, 1, 0}, {1, 1, KAuto}, {1, 2, 1}, {1, 2, KAuto}, {2, 1, 0},
		{1, 3, 2}, {5, 2, 3}, {1, 7, 8}, // k far larger than log2(n)
		{1, 16, 4}, // 2^k == n exactly
		{3, 5, 5},
	} {
		b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, uint64(tc.m*100+tc.n*10+1))
		x, rep, err := Solve(Config{Device: dev(), K: tc.k}, b)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want, err := cpu.SolveBatchSeq(b)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxRelDiff(x, want); d > 1e-9 {
			t.Errorf("%+v (resolved k=%d): differs from Thomas by %g", tc, rep.K, d)
		}
		if rep.K > 0 && 1<<rep.K > tc.n {
			t.Errorf("%+v: resolved k=%d exceeds system size", tc, rep.K)
		}
	}
}

// TestNearSingularResidualScalesWithConditioning injects progressively
// worse conditioning and checks the non-pivoting hybrid degrades
// gracefully (residual stays small — backward stability — even as the
// forward error grows).
func TestNearSingularResidualScalesWithConditioning(t *testing.T) {
	b := workload.Batch[float64](workload.NearSingular, 4, 96, 3)
	x, _, err := Solve(Config{Device: dev(), K: 4}, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.MaxResidual(b, x); r > 1e-8 {
		t.Errorf("near-singular residual %g", r)
	}
}

// TestSingularProducesNonFinite documents the contract: a singular
// system yields Inf/NaN (detected by verification), not silent garbage.
func TestSingularProducesNonFinite(t *testing.T) {
	b := matrix.NewBatch[float64](1, 16)
	for i := range b.RHS {
		b.RHS[i] = 1 // all-zero matrix, nonzero RHS
	}
	x, _, err := Solve(Config{Device: dev(), K: 2}, b)
	if err != nil {
		t.Fatal(err) // the solve itself must not error (no pivoting)
	}
	finite := true
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
	}
	if finite {
		t.Error("singular solve produced finite values everywhere; expected Inf/NaN markers")
	}
	if r := matrix.MaxResidual(b, x); !math.IsInf(r, 1) {
		t.Errorf("residual of singular solve = %g, want +Inf", r)
	}
}

// TestMixedMagnitudeCoefficients stresses scaling: rows with 1e-8 and
// 1e+8 magnitudes in one system.
func TestMixedMagnitudeCoefficients(t *testing.T) {
	n := 128
	s := matrix.NewSystem[float64](n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(i%17)-8)
		if i > 0 {
			s.Lower[i] = -0.4 * scale
		}
		if i < n-1 {
			s.Upper[i] = -0.4 * scale
		}
		s.Diag[i] = scale
		s.RHS[i] = scale * float64(i%5)
	}
	b := matrix.NewBatch[float64](1, s.N())
	b.SetSystem(0, s)
	x, _, err := Solve(Config{Device: dev(), K: 5}, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := matrix.CheckSolution(s, x); err != nil {
		t.Error(err)
	}
}

// TestUserGarbageInCorners verifies the Lower[0]/Upper[n-1]
// normalization: junk in the structurally ignored corners must not
// change the answer.
func TestUserGarbageInCorners(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 2, 64, 7)
	clean, _, err := Solve(Config{Device: dev(), K: 3}, b)
	if err != nil {
		t.Fatal(err)
	}
	dirty := b.Clone()
	for i := 0; i < dirty.M; i++ {
		dirty.Lower[i*dirty.N] = 1e9
		dirty.Upper[i*dirty.N+dirty.N-1] = -1e9
	}
	got, _, err := Solve(Config{Device: dev(), K: 3}, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(clean, got); d != 0 {
		t.Errorf("corner garbage changed the solution by %g", d)
	}
}

// TestLargeCGrid stresses the sub-tile scale with awkward N.
func TestLargeCGrid(t *testing.T) {
	for _, c := range []int{2, 3, 5} {
		b := workload.Batch[float64](workload.DiagDominant, 2, 777, uint64(c))
		x, _, err := Solve(Config{Device: dev(), K: 4, C: c, BlocksPerSystem: 2}, b)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](777) {
			t.Errorf("c=%d: residual %g", c, r)
		}
	}
}
