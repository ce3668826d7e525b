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

// TestStridedGatherMatchesBatchSystem: the strided re-solve addresses
// the same system in either layout. Gather copies out exactly
// Batch.System(i) and its solution rows, Resolve writes SolveGTSV's
// bits into system i's rows and no other, and a singular system comes
// back zeroed with its error.
func TestStridedGatherMatchesBatchSystem(t *testing.T) {
	const m, n = 3, 6
	b := workload.Batch[float64](workload.DiagDominant, m, n, 20)
	b.Diag[n] = 0 // system 1 needs a row swap
	for j := 0; j < n; j++ {
		b.Lower[2*n+j], b.Diag[2*n+j], b.Upper[2*n+j] = 0, 0, 0 // system 2 is singular
	}
	iv := b.ToInterleaved()
	x := make([]float64, m*n)
	for k := range x {
		x[k] = float64(k + 1)
	}
	x0 := append([]float64(nil), x...)
	xi := matrix.InterleaveVector(x, m, n)
	g := NewStridedGTSV[float64](n)
	for _, v := range []matrix.Strided[float64]{b.Strided(x), iv.Strided(xi)} {
		for i := 0; i < m; i++ {
			g.Gather(v, i)
			want := b.System(i)
			if matrix.MaxAbsDiff(g.Sys.Lower, want.Lower) != 0 || matrix.MaxAbsDiff(g.Sys.Diag, want.Diag) != 0 ||
				matrix.MaxAbsDiff(g.Sys.Upper, want.Upper) != 0 || matrix.MaxAbsDiff(g.Sys.RHS, want.RHS) != 0 ||
				matrix.MaxAbsDiff(g.X, x0[i*n:(i+1)*n]) != 0 {
				t.Fatalf("SS=%d RS=%d: Gather(%d) differs from Batch.System", v.SS, v.RS, i)
			}
		}
		if err := g.Resolve(v, 1); err != nil {
			t.Fatalf("SS=%d RS=%d: Resolve(1): %v", v.SS, v.RS, err)
		}
		if err := g.Resolve(v, 2); err == nil {
			t.Fatalf("SS=%d RS=%d: singular system resolved", v.SS, v.RS)
		}
	}
	ref, err := SolveGTSV(b.System(1))
	if err != nil {
		t.Fatal(err)
	}
	back := matrix.DeinterleaveVector(xi, m, n)
	for j := 0; j < n; j++ {
		if x[n+j] != ref[j] || back[n+j] != ref[j] {
			t.Fatalf("row %d of system 1: contiguous %v, interleaved %v, want SolveGTSV's %v", j, x[n+j], back[n+j], ref[j])
		}
		if x[j] != float64(j+1) || back[j] != float64(j+1) {
			t.Fatalf("row %d of system 0 changed by another system's re-solve", j)
		}
		if x[2*n+j] != 0 || back[2*n+j] != 0 {
			t.Fatalf("row %d of the singular system not zeroed", j)
		}
	}
}
