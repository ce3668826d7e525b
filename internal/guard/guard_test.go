package guard

import (
	"context"
	"errors"
	"math"
	"testing"

	"gputrid/internal/core"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// solve runs one guarded solve on a transient pipeline of b's shape.
func solve(t *testing.T, b *matrix.Batch[float64], pol Policy) (*Result[float64], error) {
	t.Helper()
	p, err := core.NewPipeline[float64](core.Config{Device: gpusim.GTX480()}, b.M, b.N)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return NewRunner(p, false).SolveCtx(context.Background(), b, pol)
}

func healthy(m, n int, seed uint64) *matrix.Batch[float64] {
	return workload.Batch[float64](workload.DiagDominant, m, n, seed)
}

func TestAllHealthyStaysOnFastPath(t *testing.T) {
	b := healthy(16, 128, 1)
	res, err := solve(t, b, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed systems on a healthy batch: %v", res.Failed)
	}
	tol := matrix.ResidualTolerance[float64](b.N)
	for _, rep := range res.Reports {
		if rep.Stage != StageFast {
			t.Errorf("system %d escalated to %s on a healthy batch", rep.System, rep.Stage)
		}
		if rep.ResidualAfter > tol {
			t.Errorf("system %d residual %g over tolerance", rep.System, rep.ResidualAfter)
		}
		if rep.CondEst != 0 {
			t.Errorf("system %d: condition estimated without rescue", rep.System)
		}
	}
}

// TestEscalationLadder drives each fault kind onto its intended stage.
func TestEscalationLadder(t *testing.T) {
	const m, n = 8, 96
	for _, tc := range []struct {
		name      string
		kind      FaultKind
		wantStage Stage
		wantErrIs error // nil: system must recover
	}{
		{"corrupt-solution", FaultCorruptSolution, StagePivot, nil},
		{"gtsv-rescue", FaultZeroDiagonal, StagePivot, nil},
		{"unrecoverable", FaultSingularMatrix, StageFailed, ErrUnrecoverable},
		{"garbage-in", FaultNaNCoefficient, StageFailed, ErrNonFiniteInput},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := healthy(m, n, 7)
			const victim = 3
			pol := Policy{Inject: &Injection{Seed: 42, Faults: []Fault{{System: victim, Kind: tc.kind}}}}
			res, err := solve(t, b, pol)
			if res == nil {
				t.Fatalf("no result: %v", err)
			}
			rep := res.Reports[victim]
			if rep.Stage != tc.wantStage {
				t.Errorf("victim stage = %s, want %s (report %+v)", rep.Stage, tc.wantStage, rep)
			}
			tol := matrix.ResidualTolerance[float64](n)
			if tc.wantErrIs == nil {
				if err != nil {
					t.Errorf("recoverable fault returned error: %v", err)
				}
				if rep.ResidualAfter > tol {
					t.Errorf("victim residual %g over tolerance after %s", rep.ResidualAfter, rep.Stage)
				}
				if rep.Err != nil {
					t.Errorf("recovered system carries error %v", rep.Err)
				}
				if rep.CondEst != 0 {
					t.Errorf("rescued system has a condition estimate %g, want none", rep.CondEst)
				}
			} else {
				if err == nil {
					t.Fatal("unrecoverable fault returned nil error")
				}
				if !errors.Is(err, tc.wantErrIs) {
					t.Errorf("errors.Is(%v, %v) = false", err, tc.wantErrIs)
				}
				var se *SolveError
				if !errors.As(err, &se) {
					t.Fatalf("errors.As found no *SolveError in %v", err)
				}
				if se.System != victim {
					t.Errorf("SolveError.System = %d, want %d", se.System, victim)
				}
				if len(res.Failed) != 1 || res.Failed[0] != rep.Err {
					t.Errorf("Failed list inconsistent with report: %v vs %v", res.Failed, rep.Err)
				}
				if tc.wantErrIs == ErrUnrecoverable && (!(rep.CondEst > 0) || se.CondEst != rep.CondEst) {
					t.Errorf("failed system CondEst %g (error's %g), want the same estimate > 0 or +Inf", rep.CondEst, se.CondEst)
				}
			}
			// The guarantee the fuzz target also asserts: X is always
			// fully finite, failures are typed instead of NaN-marked.
			for i, v := range res.X {
				if !num.IsFinite(v) {
					t.Fatalf("X[%d] = %v non-finite in guarded result", i, v)
				}
			}
			// Fault isolation: every non-victim stays on the fast path
			// and keeps a passing residual.
			for i, r := range res.Reports {
				if i == victim {
					continue
				}
				if r.Stage != StageFast || r.ResidualAfter > tol {
					t.Errorf("healthy system %d affected: stage %s residual %g", i, r.Stage, r.ResidualAfter)
				}
			}
		})
	}
}

// TestHealthyNeighboursBitwiseUnaffected: injecting faults into chosen
// systems must not change the other systems' solutions at all.
func TestHealthyNeighboursBitwiseUnaffected(t *testing.T) {
	const m, n = 12, 64
	b := healthy(m, n, 11)
	clean, err := solve(t, b, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{Inject: &Injection{Seed: 9, Faults: []Fault{
		{System: 2, Kind: FaultZeroDiagonal},
		{System: 5, Kind: FaultSingularMatrix},
		{System: 9, Kind: FaultNaNCoefficient},
	}}}
	dirty, err := solve(t, b, pol)
	if dirty == nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		if i == 2 || i == 5 || i == 9 {
			continue
		}
		for j := 0; j < n; j++ {
			if clean.X[i*n+j] != dirty.X[i*n+j] {
				t.Fatalf("system %d entry %d changed by faults in other systems", i, j)
			}
		}
	}
}

func TestInjectionLeavesCallerBatchUntouched(t *testing.T) {
	b := healthy(4, 32, 3)
	orig := b.Clone()
	pol := Policy{Inject: &Injection{Seed: 1, Faults: []Fault{
		{System: 0, Kind: FaultZeroDiagonal},
		{System: 1, Kind: FaultNaNCoefficient},
		{System: 2, Kind: FaultSingularMatrix},
	}}}
	if res, _ := solve(t, b, pol); res == nil {
		t.Fatal("no result")
	}
	if d := matrix.MaxAbsDiff(b.Diag, orig.Diag); d != 0 {
		t.Errorf("caller's Diag mutated by injection (max diff %g)", d)
	}
	if d := matrix.MaxAbsDiff(b.RHS, orig.RHS); d != 0 {
		t.Errorf("caller's RHS mutated by injection (max diff %g)", d)
	}
}

func TestInjectionIsDeterministic(t *testing.T) {
	pol := Policy{Inject: &Injection{Seed: 77, Faults: []Fault{
		{System: 1, Kind: FaultCorruptSolution},
		{System: 3, Kind: FaultZeroDiagonal},
	}}}
	a, errA := solve(t, healthy(6, 80, 5), pol)
	b, errB := solve(t, healthy(6, 80, 5), pol)
	if a == nil || b == nil {
		t.Fatal(errA, errB)
	}
	if d := matrix.MaxAbsDiff(a.X, b.X); d != 0 {
		t.Errorf("same seed produced different guarded results (max diff %g)", d)
	}
	for i := range a.Reports {
		if a.Reports[i].Stage != b.Reports[i].Stage {
			t.Errorf("system %d: stages differ between identical runs", i)
		}
	}
}

// judgeFast runs Judge, as the pool routes do, over b's solution by the
// non-pivoting fast path, corrupted by inj first.
func judgeFast(t *testing.T, b *matrix.Batch[float64], inj *Injection) []SystemReport {
	t.Helper()
	injectBatch(inj, b)
	p, err := core.NewPipeline[float64](core.Config{Device: gpusim.GTX480()}, b.M, b.N)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	x := make([]float64, b.M*b.N)
	if err := p.SolveIntoCtx(context.Background(), x, b); err != nil {
		t.Fatal(err)
	}
	injectSolution(inj, x, b.M, b.N)
	reps := make([]SystemReport, b.M)
	Judge(b.Strided(x), b.M, nil, false, func(rep SystemReport) { reps[rep.System] = rep })
	return reps
}

// TestJudgeRescuesCorruptSolution: a finite but corrupted solution
// goes straight to the pivot rescue.
func TestJudgeRescuesCorruptSolution(t *testing.T) {
	reps := judgeFast(t, healthy(2, 64, 13), &Injection{Seed: 4, Faults: []Fault{{System: 0, Kind: FaultCorruptSolution}}})
	if got := reps[0].Stage; got != StagePivot || reps[0].Err != nil {
		t.Errorf("corrupted system used %s (err %v), want %s", got, reps[0].Err, StagePivot)
	}
	if reps[1].Stage != StageFast {
		t.Errorf("healthy neighbour reported %s", reps[1].Stage)
	}
}

// TestSkipConditionEstimate: the verdict rescues a vanishing leading
// pivot without estimating the system's condition.
func TestSkipConditionEstimate(t *testing.T) {
	reps := judgeFast(t, healthy(2, 48, 23), &Injection{Seed: 2, Faults: []Fault{{System: 0, Kind: FaultZeroDiagonal}}})
	if reps[0].Stage != StagePivot || reps[0].Err != nil {
		t.Fatalf("zero leading pivot: %+v, want a pivot rescue", reps[0])
	}
	if reps[0].CondEst != 0 {
		t.Errorf("condition estimated by the verdict: %g", reps[0].CondEst)
	}
}

func TestStagesSummary(t *testing.T) {
	pol := Policy{Inject: &Injection{Seed: 3, Faults: []Fault{
		{System: 0, Kind: FaultCorruptSolution},
		{System: 1, Kind: FaultZeroDiagonal},
		{System: 2, Kind: FaultSingularMatrix},
	}}}
	res, _ := solve(t, healthy(8, 64, 29), pol)
	if res == nil {
		t.Fatal("no result")
	}
	got := res.Stages()
	if got[StageFast] != 5 || got[StagePivot] != 2 || got[StageFailed] != 1 {
		t.Errorf("stage summary = %v, want 5 fast / 2 pivot / 1 failed", got)
	}
}

// TestSingularReportsInfiniteCondition: the typed error of a singular
// system carries the +Inf condition estimate that diagnoses it.
func TestSingularReportsInfiniteCondition(t *testing.T) {
	pol := Policy{Inject: &Injection{Seed: 6, Faults: []Fault{{System: 0, Kind: FaultSingularMatrix}}}}
	res, err := solve(t, healthy(2, 32, 31), pol)
	if res == nil {
		t.Fatal(err)
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("no SolveError in %v", err)
	}
	if !math.IsInf(se.CondEst, 1) {
		t.Errorf("singular system CondEst = %g, want +Inf", se.CondEst)
	}
	for j := 0; j < 32; j++ {
		if res.X[j] != 0 {
			t.Fatal("failed system's solution slot not zeroed")
		}
	}
}
