package fleet_test

import (
	"context"
	"testing"

	"gputrid/internal/batcher"
	"gputrid/internal/fleet"
	"gputrid/internal/workload"
)

// TestSolveAllocCeilings pins the warm allocation counts of both
// request kinds through a fleet of real pools: the shared re-route
// loop and lease protocol must add nothing per request. A 1×511
// direct solve allocates its caller-owned result (solution, result
// structs, stats and fault-report copies) and the solver lease; a
// 32×511 coalesced flight allocates only its lease, since the
// megabatch owns every plane.
func TestSolveAllocCeilings(t *testing.T) {
	const n = 511
	f, err := fleet.New(fleet.Config{Devices: 2, WarmShapes: [][2]int{{1, n}}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(context.Background())
	ctx := context.Background()

	b := workload.Batch[float64](workload.DiagDominant, 1, n, 1)
	solve := func() {
		if _, err := f.Solve(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	const m = 32
	mb := &batcher.Megabatch[float64]{
		V:        workload.Interleaved[float64](workload.DiagDominant, m, n, 2),
		Count:    m,
		Xi:       make([]float64, m*n),
		Verdicts: make([]batcher.Verdict, m),
		Scratch:  make([]float64, 4*m),
	}
	flight := func() {
		if err := f.SolveMegabatch(ctx, mb); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both devices' stations of both kinds.
	for i := 0; i < 4; i++ {
		solve()
		flight()
	}
	if got := testing.AllocsPerRun(50, solve); got > 9 {
		t.Errorf("warm 1×%d Fleet.Solve: %v allocs, want ≤ 9", n, got)
	}
	if got := testing.AllocsPerRun(50, flight); got > 4 {
		t.Errorf("warm %d×%d Fleet.SolveMegabatch: %v allocs, want ≤ 4", m, n, got)
	}
}
