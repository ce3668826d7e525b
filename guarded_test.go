package gputrid

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// TestGuardedIsolatesBadSystems is the acceptance scenario for the
// guarded pipeline: a batch of 64 systems with 3 degenerate ones must
// yield finite, tolerance-passing solutions for the 61 healthy systems,
// rescued solutions or typed SolveErrors for the bad ones, and a
// per-system report naming the stage used.
func TestGuardedIsolatesBadSystems(t *testing.T) {
	const m, n = 64, 128
	b := workload.Batch[float64](workload.DiagDominant, m, n, 99)
	// Two near-singular-for-the-fast-path systems (leading pivot
	// vanishes; pivoting rescues them) and one genuinely singular one.
	rescuable := []int{7, 23}
	const singular = 41
	for _, i := range rescuable {
		b.Diag[i*n] = 0
	}
	for j := 0; j < n; j++ {
		b.Lower[singular*n+j] = 0
		b.Diag[singular*n+j] = 0
		b.Upper[singular*n+j] = 0
		b.RHS[singular*n+j] = 1
	}

	res, err := SolveGuarded(b)
	if res == nil {
		t.Fatalf("guarded solve returned no result: %v", err)
	}
	if err == nil {
		t.Fatal("guarded solve of a batch with a singular system must report it")
	}

	// The 61 healthy systems: finite, tolerance-passing, fast path.
	tol := matrix.ResidualTolerance[float64](n)
	bad := map[int]bool{7: true, 23: true, singular: true}
	for i := 0; i < m; i++ {
		rep := res.Reports[i]
		if rep.System != i {
			t.Fatalf("report %d names system %d", i, rep.System)
		}
		if bad[i] {
			continue
		}
		if rep.Stage != StageFast {
			t.Errorf("healthy system %d escalated to %s", i, rep.Stage)
		}
		if rep.ResidualAfter > tol {
			t.Errorf("healthy system %d residual %g exceeds %g", i, rep.ResidualAfter, tol)
		}
	}
	// The rescuable systems: pivoting rescue, tolerance-passing.
	for _, i := range rescuable {
		rep := res.Reports[i]
		if rep.Stage != StagePivot {
			t.Errorf("system %d stage %s, want %s", i, rep.Stage, StagePivot)
		}
		if rep.ResidualAfter > tol {
			t.Errorf("rescued system %d residual %g exceeds %g", i, rep.ResidualAfter, tol)
		}
		if !math.IsInf(rep.ResidualBefore, 1) {
			t.Errorf("system %d fast-path residual %g, want +Inf (non-finite fast solution)", i, rep.ResidualBefore)
		}
	}
	// The singular system: typed, errors.Is/As-able failure.
	rep := res.Reports[singular]
	if rep.Stage != StageFailed || rep.Err == nil {
		t.Fatalf("singular system report %+v, want StageFailed with error", rep)
	}
	if len(res.Failed) != 1 || res.Failed[0].System != singular {
		t.Errorf("Failed = %v, want exactly system %d", res.Failed, singular)
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As found no *SolveError in %v", err)
	}
	if se.System != singular {
		t.Errorf("SolveError.System = %d, want %d", se.System, singular)
	}
	if !errors.Is(err, ErrUnrecoverable) {
		t.Error("guarded error does not match ErrUnrecoverable")
	}
	// And the merged X never carries Inf/NaN.
	for i, v := range res.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("X[%d] = %v: guarded result must stay finite", i, v)
		}
	}
}

// TestGuardedHealthyBatchMatchesUnguarded: with nothing to rescue, the
// guard is a pass-through around the fast path.
func TestGuardedHealthyBatchMatchesUnguarded(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 16, 200, 5)
	plain, err := SolveBatch(b, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := SolveGuarded(b, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(plain.X, guarded.X); d != 0 {
		t.Errorf("guarded pass-through differs from fast path by %g", d)
	}
	if guarded.K != plain.K || guarded.BlocksPerSystem != plain.BlocksPerSystem {
		t.Error("guarded result does not carry the fast path's execution report")
	}
	if s := guarded.Stages(); s[StageFast] != 16 {
		t.Errorf("stage summary %v, want all fast", s)
	}
}

// TestGuardedWithGuardPolicy: WithGuard threads the policy through the
// public API (here: deterministic injection driving the pivot rescue).
func TestGuardedWithGuardPolicy(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 8, 96, 12)
	res, err := SolveGuarded(b, WithGuard(GuardPolicy{
		Inject: &GuardInjection{Seed: 5, Faults: []GuardFault{{System: 2, Kind: FaultCorruptSolution}}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Reports[2].Stage; got != StagePivot {
		t.Errorf("injected system recovered via %s, want %s", got, StagePivot)
	}
	if res.Reports[2].CondEst != 0 {
		t.Errorf("rescued system has a condition estimate %g, want none", res.Reports[2].CondEst)
	}
}

// TestGuardedRescueMatchesPool: SolveGuarded and the serving pool
// rescue an over-tolerance system the same way, so one batch gets the
// same bits from both. System 2's diagonal is random in [-1, 1), which
// the non-pivoting fast path solves finitely but inaccurately.
func TestGuardedRescueMatchesPool(t *testing.T) {
	const m, n = 8, 96
	b := workload.Batch[float64](workload.DiagDominant, m, n, 187)
	rng := num.NewRNG(187)
	for j := 0; j < n; j++ {
		b.Diag[2*n+j] = rng.Range(-1, 1)
	}
	guarded, err := SolveGuarded(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := guarded.Reports[2].Stage; got != StagePivot {
		t.Fatalf("system 2 stage %s, want %s (report %+v)", got, StagePivot, guarded.Reports[2])
	}
	p := NewPool[float64](PoolConfig{Capacity: 1})
	defer p.Close(context.Background())
	pooled, err := p.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Rescued != 1 {
		t.Errorf("pool rescued %d systems, want 1", pooled.Rescued)
	}
	for i := range guarded.X {
		if guarded.X[i] != pooled.X[i] {
			t.Fatalf("X[%d]: guarded %v, pool %v; want the same bits", i, guarded.X[i], pooled.X[i])
		}
	}
}

// TestConditionEstBatch: the lazy batch estimator matches per-system
// estimates and flags the singular system.
func TestConditionEstBatch(t *testing.T) {
	const m, n = 4, 48
	b := workload.Batch[float64](workload.DiagDominant, m, n, 21)
	for j := 0; j < n; j++ { // make system 2 singular
		b.Lower[2*n+j], b.Diag[2*n+j], b.Upper[2*n+j] = 0, 0, 0
	}
	got := ConditionEstBatch(b, []int{0, 2})
	if len(got) != 2 {
		t.Fatalf("estimates for %d systems, want 2", len(got))
	}
	if want := ConditionEst(b.System(0)); got[0] != want {
		t.Errorf("batch estimate %g differs from single-system %g", got[0], want)
	}
	if !math.IsInf(got[1], 1) {
		t.Errorf("singular system estimate %g, want +Inf", got[1])
	}
}

// TestBatchValidateNamesOffendingEntry: NaN/Inf input is rejected up
// front with the system, array, and row of the bad coefficient.
func TestBatchValidateNamesOffendingEntry(t *testing.T) {
	b := NewBatch[float64](3, 4)
	for i := range b.Diag {
		b.Diag[i] = 1
	}
	b.Upper[1*4+2] = math.NaN()
	err := b.Validate()
	if err == nil {
		t.Fatal("NaN coefficient accepted")
	}
	msg := err.Error()
	for _, want := range []string{"system 1", "Upper[2]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("validation error %q does not contain %q", msg, want)
		}
	}
}
