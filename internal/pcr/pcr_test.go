package pcr

import (
	"testing"
	"testing/quick"

	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

func refSolve(t *testing.T, s *matrix.System[float64]) []float64 {
	t.Helper()
	x, err := cpu.Thomas(s)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// subsystems extracts the 2^k independent subsystems left by k PCR
// steps: subsystem r consists of rows r, r+2^k, r+2·2^k, ... in order.
// The s.Lower/Upper entries crossing subsystem ends are structurally
// zero after the reduction and are dropped.
func subsystems(s *matrix.System[float64], k int) []*matrix.System[float64] {
	n := s.N()
	p := 1 << k
	out := make([]*matrix.System[float64], 0, p)
	for r := 0; r < p && r < n; r++ {
		size := (n - r + p - 1) / p
		sub := matrix.NewSystem[float64](size)
		for j := 0; j < size; j++ {
			i := r + j*p
			sub.Lower[j] = s.Lower[i]
			sub.Diag[j] = s.Diag[i]
			sub.Upper[j] = s.Upper[i]
			sub.RHS[j] = s.RHS[i]
		}
		if size > 0 {
			sub.Lower[0] = 0
			sub.Upper[size-1] = 0
		}
		out = append(out, sub)
	}
	return out
}

// scatterSolution writes subsystem solutions produced from subsystems
// back into a length-n solution vector in original row order.
func scatterSolution(x []float64, subs [][]float64, k int) {
	p := 1 << k
	for r, xs := range subs {
		for j, v := range xs {
			x[r+j*p] = v
		}
	}
}

func TestPCRSolveMatchesThomas(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 100, 256, 1000} {
		s := workload.System[float64](workload.DiagDominant, n, uint64(n)*3+1)
		x := Solve(s)
		want := refSolve(t, s)
		if d := matrix.MaxRelDiff(x, want); d > 1e-9 {
			t.Errorf("n=%d: PCR vs Thomas max rel diff %g", n, d)
		}
		if err := matrix.CheckSolution(s, x); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestReduceZeroStepsIsClone(t *testing.T) {
	s := workload.System[float64](workload.DiagDominant, 32, 5)
	r := Reduce(s, 0)
	if matrix.MaxAbsDiff(r.Diag, s.Diag) != 0 || matrix.MaxAbsDiff(r.RHS, s.RHS) != 0 {
		t.Error("Reduce(0) changed the system")
	}
	r.Diag[0] = 999
	if s.Diag[0] == 999 {
		t.Error("Reduce(0) aliases input")
	}
}

func TestReduceDecouplesSubsystems(t *testing.T) {
	// After k steps, row i must couple only to i±2^k: solving the 2^k
	// interleaved subsystems independently must solve the original.
	for _, tc := range []struct{ n, k int }{
		{64, 1}, {64, 2}, {64, 3}, {64, 6}, {100, 2}, {17, 3}, {8, 3},
	} {
		s := workload.System[float64](workload.DiagDominant, tc.n, uint64(tc.n*10+tc.k))
		r := Reduce(s, tc.k)
		subs := subsystems(r, tc.k)
		x := make([]float64, tc.n)
		sols := make([][]float64, len(subs))
		for i, sub := range subs {
			xs, err := cpu.Thomas(sub)
			if err != nil {
				t.Fatalf("n=%d k=%d sub=%d: %v", tc.n, tc.k, i, err)
			}
			sols[i] = xs
		}
		scatterSolution(x, sols, tc.k)
		if err := matrix.CheckSolution(s, x); err != nil {
			t.Errorf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		want := refSolve(t, s)
		if d := matrix.MaxRelDiff(x, want); d > 1e-9 {
			t.Errorf("n=%d k=%d: subsystem solve differs from Thomas by %g", tc.n, tc.k, d)
		}
	}
}

func TestSubsystemCrossCouplingIsZero(t *testing.T) {
	n, k := 128, 4
	s := workload.System[float64](workload.DiagDominant, n, 77)
	r := Reduce(s, k)
	p := 1 << k
	// Boundary rows of each subsystem must have (near-)zero outward
	// coupling: rows i < p have a==0, rows i >= n-p have c==0.
	for i := 0; i < p; i++ {
		if r.Lower[i] != 0 {
			t.Errorf("row %d lower coupling %g, want 0", i, r.Lower[i])
		}
	}
	for i := n - p; i < n; i++ {
		if r.Upper[i] != 0 {
			t.Errorf("row %d upper coupling %g, want 0", i, r.Upper[i])
		}
	}
}

func TestStepMatchesReduceOneStep(t *testing.T) {
	s := workload.System[float64](workload.Toeplitz, 40, 3)
	dst := matrix.NewSystem[float64](40)
	Step(dst, s, 1)
	r := Reduce(s, 1)
	if matrix.MaxAbsDiff(dst.Diag, r.Diag) != 0 || matrix.MaxAbsDiff(dst.RHS, r.RHS) != 0 {
		t.Error("Step(stride=1) != Reduce(1)")
	}
}

func TestPCRPreservesSolution(t *testing.T) {
	// PCR row operations must not change the solution set: the reduced
	// system evaluated at the original solution must be consistent.
	// Note: after k steps the stored coefficients couple rows at
	// distance 2^k, so the rows are evaluated at that stride rather
	// than with System.Apply.
	n := 64
	s := workload.System[float64](workload.DiagDominant, n, 11)
	want := refSolve(t, s)
	for k := 1; k <= 6; k++ {
		r := Reduce(s, k)
		p := 1 << k
		for i := 0; i < n; i++ {
			ax := r.Diag[i] * want[i]
			if i-p >= 0 {
				ax += r.Lower[i] * want[i-p]
			}
			if i+p < n {
				ax += r.Upper[i] * want[i+p]
			}
			if num.Abs(ax-r.RHS[i]) > 1e-8*(1+num.Abs(r.RHS[i])) {
				t.Fatalf("k=%d row %d: reduced system inconsistent with solution (%g vs %g)",
					k, i, ax, r.RHS[i])
			}
		}
	}
}

func TestCRMatchesThomas(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 255, 256, 257, 1000} {
		s := workload.System[float64](workload.DiagDominant, n, uint64(n)*7+2)
		x := SolveCR(s)
		want := refSolve(t, s)
		if d := matrix.MaxRelDiff(x, want); d > 1e-9 {
			t.Errorf("n=%d: CR vs Thomas max rel diff %g", n, d)
		}
	}
}

func TestCROtherKinds(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Toeplitz, workload.Heat, workload.Spline} {
		s := workload.System[float64](kind, 129, 9)
		if err := matrix.CheckSolution(s, SolveCR(s)); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestRDMatchesThomas(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 17, 64, 100, 256, 500} {
		s := workload.System[float64](workload.DiagDominant, n, uint64(n)*13+5)
		x := SolveRD(s)
		want := refSolve(t, s)
		if d := matrix.MaxRelDiff(x, want); d > 1e-7 {
			t.Errorf("n=%d: RD vs Thomas max rel diff %g", n, d)
		}
	}
}

func TestRDNormalizationPreventsOverflow(t *testing.T) {
	// Without per-round normalization the minors P(i) overflow for
	// large diagonals; with it, RD must survive n=4096, |b| ~ 1e3.
	n := 4096
	s := matrix.NewSystem[float64](n)
	r := num.NewRNG(3)
	for i := 0; i < n; i++ {
		if i > 0 {
			s.Lower[i] = r.Range(-1, 1)
		}
		if i < n-1 {
			s.Upper[i] = r.Range(-1, 1)
		}
		s.Diag[i] = 1000 + r.Range(0, 10)
		s.RHS[i] = r.Range(-1, 1)
	}
	x := SolveRD(s)
	if err := matrix.CheckSolution(s, x); err != nil {
		t.Fatal(err)
	}
}

func TestAllSolversAgreeProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint16, kindRaw uint8) bool {
		n := int(nRaw)%300 + 1
		kind := workload.Kind(int(kindRaw) % 4)
		s := workload.System[float64](kind, n, uint64(seed))
		want, err := cpu.Thomas(s)
		if err != nil {
			return false
		}
		for _, x := range [][]float64{Solve(s), SolveCR(s), SolveRD(s)} {
			if matrix.MaxRelDiff(x, want) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFloat32Solvers(t *testing.T) {
	s := workload.System[float32](workload.DiagDominant, 128, 21)
	for name, x := range map[string][]float32{
		"pcr": Solve(s), "cr": SolveCR(s), "rd": SolveRD(s),
	} {
		if err := matrix.CheckSolution(s, x); err != nil {
			t.Errorf("%s float32: %v", name, err)
		}
	}
}

func TestEliminationStepCounts(t *testing.T) {
	if EliminationSteps(1024) != 10*1024+1 {
		t.Errorf("PCR steps for 1024 = %d", EliminationSteps(1024))
	}
	if EliminationSteps(0) != 0 {
		t.Error("PCR steps for 0")
	}
	if CREliminationSteps(1024) != 21 {
		t.Errorf("CR steps for 1024 = %d", CREliminationSteps(1024))
	}
	if RDEliminationSteps(1024) != 30 {
		t.Errorf("RD steps for 1024 = %d", RDEliminationSteps(1024))
	}
	if CREliminationSteps(-1) != 0 || RDEliminationSteps(0) != 0 {
		t.Error("degenerate step counts")
	}
}

func TestSubsystemsShapes(t *testing.T) {
	s := workload.System[float64](workload.DiagDominant, 10, 1)
	subs := subsystems(s, 2) // p=4: sizes 3,3,2,2
	sizes := []int{3, 3, 2, 2}
	if len(subs) != 4 {
		t.Fatalf("got %d subsystems", len(subs))
	}
	for i, sub := range subs {
		if sub.N() != sizes[i] {
			t.Errorf("sub %d size %d, want %d", i, sub.N(), sizes[i])
		}
	}
	// More subsystems than rows: only n singleton systems.
	subs = subsystems(workload.System[float64](workload.DiagDominant, 3, 2), 3)
	if len(subs) != 3 {
		t.Errorf("n=3 k=3: got %d subsystems, want 3", len(subs))
	}
}
