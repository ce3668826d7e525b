package core

import (
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

func TestMultiplexedMatchesUnmultiplexed(t *testing.T) {
	m, n, k := 7, 512, 5
	b := workload.Batch[float64](workload.DiagDominant, m, n, 31)
	x1, _, err := Solve(Config{Device: dev(), K: k, BlocksPerSystem: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{2, 3, 7, 10} {
		xq, rep, err := SolveMultiplexed(Config{Device: dev(), K: k}, q, b)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if d := matrix.MaxAbsDiff(x1, xq); d != 0 {
			t.Errorf("q=%d: multiplexed differs by %g", q, d)
		}
		if rep.BlocksPerSystem != 1 {
			t.Errorf("q=%d: BlocksPerSystem = %d", q, rep.BlocksPerSystem)
		}
	}
}

func TestMultiplexedSharedScalesWithQ(t *testing.T) {
	m, n, k := 4, 256, 4
	b := workload.Batch[float64](workload.DiagDominant, m, n, 5)
	_, r1, err := Solve(Config{Device: dev(), K: k, BlocksPerSystem: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := SolveMultiplexed(Config{Device: dev(), K: k}, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Kernels[0].SharedPerBlock != 2*r1.Kernels[0].SharedPerBlock {
		t.Errorf("shared per block %d, want 2x %d",
			r2.Kernels[0].SharedPerBlock, r1.Kernels[0].SharedPerBlock)
	}
	if r2.Kernels[0].Blocks != 2 { // ceil(4/2)
		t.Errorf("blocks = %d, want 2", r2.Kernels[0].Blocks)
	}
}

func TestMultiplexedRejectsOverflowAndConflicts(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 8, 4096, 1)
	// k=8 window is ~33KB; q=2 exceeds 48KB.
	if _, _, err := SolveMultiplexed(Config{Device: dev(), K: 8}, 2, b); err == nil {
		t.Error("shared overflow accepted")
	}
	if _, _, err := SolveMultiplexed(Config{Device: dev(), K: 4, BlocksPerSystem: 2}, 2, b); err == nil {
		t.Error("mux + multi-block accepted")
	}
}
