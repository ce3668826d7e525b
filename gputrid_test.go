package gputrid

import (
	"math"
	"strings"
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// checkResidual fails t unless every system of b is solved by x to
// within the size-scaled residual tolerance (a NaN residual fails).
func checkResidual[T Real](t *testing.T, b *Batch[T], x []T) {
	t.Helper()
	tol := matrix.ResidualTolerance[T](b.N)
	for i := 0; i < b.M; i++ {
		if r := matrix.Residual(b.System(i), x[i*b.N:(i+1)*b.N]); !(r <= tol) {
			t.Fatalf("system %d residual %.3e exceeds tolerance %.3e", i, r, tol)
		}
	}
}

func TestSolveSingleSystem(t *testing.T) {
	s := workload.System[float64](workload.DiagDominant, 500, 1)
	res, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != 500 {
		t.Fatalf("X length %d", len(res.X))
	}
	if res.K == 0 {
		t.Error("single system should use PCR front-end")
	}
	if res.ModeledTime <= 0 || res.WallTime <= 0 {
		t.Errorf("times: modeled %v wall %v", res.ModeledTime, res.WallTime)
	}
	if err := matrix.CheckSolution(s, res.X); err != nil {
		t.Error(err)
	}
}

func TestSolveBatchDefaults(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 64, 256, 2)
	res, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(b, res.X); r > matrix.ResidualTolerance[float64](256) {
		t.Errorf("residual %g", r)
	}
	if res.K != 6 { // Table III: 32 <= M < 512 -> 6
		t.Errorf("auto K = %d, want 6", res.K)
	}
	if res.Stats == nil || res.Stats.Eliminations == 0 {
		t.Error("stats missing")
	}
}

func TestSolveOptions(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 4, 512, 3)
	res, err := SolveBatch(b, WithK(5), WithSubTileScale(2), WithBlocksPerSystem(2), WithDevice(GTX480()))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 || res.BlocksPerSystem != 2 {
		t.Errorf("options not honored: %+v", res)
	}
}

func TestSolveInterleavedRoundTrip(t *testing.T) {
	m, n := 10, 64
	v := workload.Interleaved[float64](workload.DiagDominant, m, n, 5)
	res, err := SolveInterleaved(v)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against the contiguous solve of the same data.
	b := v.ToBatch()
	want, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	back := matrix.DeinterleaveVector(res.X, m, n)
	if d := matrix.MaxAbsDiff(back, want.X); d != 0 {
		t.Errorf("interleaved solve differs by %g", d)
	}
}

func TestSolveCPUBaseline(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 8, 100, 6)
	x, err := SolveCPU(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxRelDiff(x, res.X); d > 1e-9 {
		t.Errorf("CPU and GPU paths differ by %g", d)
	}
}

// TestFactorIsK0: Factor is FactorHybrid at k = 0, so it rejects a
// non-finite pivot as well as a zero one.
func TestFactorIsK0(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 3, 77, 4)
	f, err := Factor(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.K() != 0 {
		t.Errorf("Factor k = %d, want 0", f.K())
	}
	for _, bad := range []float64{0, math.Inf(-1)} {
		b.Diag[0] = bad
		if _, err := Factor(b); err == nil {
			t.Errorf("pivot %v accepted", bad)
		}
	}
}

func TestValidationRejectsBadInput(t *testing.T) {
	b := NewBatch[float64](2, 4)
	for i := range b.Diag {
		b.Diag[i] = 1
	}
	b.RHS[5] = math.Inf(1)
	if _, err := SolveBatch(b); err == nil || !strings.Contains(err.Error(), "invalid batch") {
		t.Errorf("invalid batch accepted: %v", err)
	}
}

func TestVerificationCatchesGarbage(t *testing.T) {
	// A non-dominant system with a zero pivot path produces NaNs in the
	// non-pivoting solver; the residual check must catch it.
	b := NewBatch[float64](1, 8)
	for i := 0; i < 8; i++ {
		b.Diag[i] = 0.0 // singular
		b.RHS[i] = 1
	}
	// Make it structurally valid (finite) but singular.
	res, err := SolveBatch(b)
	if err == nil && Residual(b, res.X) <= matrix.ResidualTolerance[float64](b.N) {
		t.Error("singular system passed the residual check")
	}
}

func TestFloat32API(t *testing.T) {
	b := workload.Batch[float32](workload.DiagDominant, 4, 128, 7)
	res, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	checkResidual(t, b, res.X)
	if res.ModeledTime <= 0 {
		t.Error("modeled time missing")
	}
}
