package core

import (
	"context"
	"errors"
	"testing"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// TestSolveInterleavedMatchesContiguous feeds the same batches through
// the contiguous entry and the interleaved-native entry (converting
// layouts on the host for comparison) and requires bitwise identity on
// every configuration — native k = 0 and shimmed hybrid alike. The
// batching front-end's correctness story rests on this: a coalesced
// interleaved solve is the same arithmetic as a contiguous one.
func TestSolveInterleavedMatchesContiguous(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		m, n int
	}{
		{"k0-native", Config{K: 0}, 32, 64},
		{"k0-native-odd", Config{K: 0}, 7, 129},
		{"hybrid-shim", Config{K: KAuto}, 16, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPipeline[float64](tc.cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			dst := make([]float64, tc.m*tc.n)
			xi := make([]float64, tc.m*tc.n)
			xic := make([]float64, tc.m*tc.n)
			for iter := 0; iter < 4; iter++ {
				b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, uint64(77+iter))
				v := b.ToInterleaved()
				if err := p.SolveInterleavedInto(xi, v); err != nil {
					t.Fatal(err)
				}
				if err := p.SolveInto(dst, b); err != nil {
					t.Fatal(err)
				}
				matrix.InterleaveVectorInto(xic, dst, tc.m, tc.n)
				for i := range xi {
					if xi[i] != xic[i] {
						t.Fatalf("iter %d: interleaved solve differs from contiguous at %d: %v vs %v",
							iter, i, xi[i], xic[i])
					}
				}
			}
			ls := p.LayoutStats()
			if ls.InterleavedSolves != 4 {
				t.Fatalf("InterleavedSolves = %d, want 4", ls.InterleavedSolves)
			}
			if p.K() == 0 {
				if ls.InterleavedShim != 0 {
					t.Fatalf("k=0 native path used the shim %d times", ls.InterleavedShim)
				}
			} else if ls.InterleavedShim != 4 {
				t.Fatalf("InterleavedShim = %d, want 4", ls.InterleavedShim)
			}
		})
	}
}

// TestSolveInterleavedShapeChecks pins the typed misuse errors of the
// interleaved entry.
func TestSolveInterleavedShapeChecks(t *testing.T) {
	p, err := NewPipeline[float64](Config{K: 0}, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	v := matrix.NewInterleaved[float64](8, 32)
	if err := p.SolveInterleavedInto(make([]float64, 8*32), matrix.NewInterleaved[float64](4, 32)); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("wrong-shape batch: %v", err)
	}
	if err := p.SolveInterleavedInto(make([]float64, 7), v); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("short xi: %v", err)
	}
}

// TestSolveInterleavedFaultRecovery runs the native k = 0 path against
// an injector that exhausts the retry budget, forcing the degraded
// GTSV re-solve through the interleaved write-back; the recovered
// solution must still verify per system.
func TestSolveInterleavedFaultRecovery(t *testing.T) {
	m, n := 16, 64
	cfg := Config{K: 0, Workers: 2}
	d := gpusim.GTX480()
	d.Faults = &gpusim.Injector{
		Seed: 5, Rate: 1, Kinds: []gpusim.FaultKind{gpusim.FaultAbort}, Repeat: 100,
	}
	cfg.Device = d
	p, err := NewPipeline[float64](cfg, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := workload.Batch[float64](workload.DiagDominant, m, n, 9)
	v := b.ToInterleaved()
	xi := make([]float64, m*n)
	if err := p.SolveInterleavedIntoCtx(context.Background(), xi, v); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Report().Faults.Degraded); got == 0 {
		t.Fatal("injector with Repeat=100 did not degrade any system")
	}
	x := make([]float64, m*n)
	matrix.DeinterleaveVectorInto(x, xi, m, n)
	if r, tol := matrix.MaxResidual(b, x), matrix.ResidualTolerance[float64](n); r > tol {
		t.Fatalf("degraded-resolved batch residual %.3e exceeds %.3e", r, tol)
	}
}
