package cpu

import (
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// TestSolveGTSVIntoMatchesAllocating: the workspace path must agree
// bitwise with SolveGTSV across repeated, size-varying reuse.
func TestSolveGTSVIntoMatchesAllocating(t *testing.T) {
	w := NewGTSVWorkspace[float64](1) // deliberately undersized: grow() must handle it
	for _, n := range []int{1, 2, 7, 64, 33} {
		s := workload.System[float64](workload.DiagDominant, n, uint64(n))
		want, err := SolveGTSV(s)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := SolveGTSVInto(s, got, w); err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got, want); d != 0 {
			t.Errorf("n=%d: workspace solve differs from allocating solve by %g", n, d)
		}
	}
}

// TestSolveGTSVIntoPivotingReuse: a system that forces row swaps must
// not leave fill-in state behind that corrupts the next solve.
func TestSolveGTSVIntoPivotingReuse(t *testing.T) {
	swappy := workload.System[float64](workload.DiagDominant, 32, 3)
	swappy.Diag[0] = 0 // first pivot vanishes; GTSV must swap
	w := NewGTSVWorkspace[float64](32)
	x := make([]float64, 32)
	if err := SolveGTSVInto(swappy, x, w); err != nil {
		t.Fatal(err)
	}
	if err := matrix.CheckSolution(swappy, x); err != nil {
		t.Errorf("pivoting solve: %v", err)
	}
	// Now a clean solve with the same (dirty) workspace.
	clean := workload.System[float64](workload.DiagDominant, 32, 4)
	want, err := SolveGTSV(clean)
	if err != nil {
		t.Fatal(err)
	}
	if err := SolveGTSVInto(clean, x, w); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(x, want); d != 0 {
		t.Errorf("workspace reuse after pivoting changed the result by %g", d)
	}
}
