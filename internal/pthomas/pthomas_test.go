package pthomas

import (
	"testing"
	"testing/quick"

	"gputrid/internal/cpu"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pcr"
	"gputrid/internal/workload"
)

func dev() *gpusim.Device { return gpusim.GTX480() }

// kernelInterleaved launches ThreadInterleaved over the M systems of v,
// blockSize threads per block, one thread per system, and returns the
// interleaved solution with the recorded Stats.
func kernelInterleaved[T num.Real](v *matrix.Interleaved[T], blockSize int) ([]T, *gpusim.Stats, error) {
	m, n := v.M, v.N
	x, cp, dp := make([]T, m*n), make([]T, m*n), make([]T, m*n)
	g := NewBufs(v.Lower, v.Diag, v.Upper, v.RHS, cp, dp, x)
	st, err := dev().Launch("pThomas", gpusim.LaunchConfig{Grid: num.CeilDiv(m, blockSize), Block: blockSize},
		func(b *gpusim.Block) {
			b.PhaseNoSync(func(t *gpusim.Thread) {
				if sys := b.ID*blockSize + t.ID; sys < m {
					ThreadInterleaved(t, &g, sys, m, n)
				}
			})
		})
	return x, st, err
}

func TestKernelInterleavedMatchesThomas(t *testing.T) {
	for _, tc := range []struct{ m, n int }{
		{1, 16}, {3, 7}, {32, 64}, {100, 33}, {257, 16},
	} {
		b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, uint64(tc.m*tc.n))
		v := b.ToInterleaved()
		xi, _, err := kernelInterleaved(v, 64)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		x := matrix.DeinterleaveVector(xi, tc.m, tc.n)
		want, err := cpu.SolveBatchSeq(b)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxRelDiff(x, want); d > 1e-12 {
			t.Errorf("%+v: kernel differs from CPU Thomas by %g", tc, d)
		}
	}
}

func TestKernelInterleavedMatchesRef(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 50, 40, 5)
	v := b.ToInterleaved()
	xi, _, err := kernelInterleaved(v, 32)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, len(xi))
	SolveInterleavedRangeInto(v, ref, make([]float64, v.M*v.N), 0, v.M)
	for i := range ref {
		if num.Bits(xi[i]) != num.Bits(ref[i]) {
			t.Fatalf("kernel and host twin differ at %d: %v vs %v (must be exact: same recurrence)", i, xi[i], ref[i])
		}
	}
}

func TestKernelInterleavedCoalescing(t *testing.T) {
	// With M a multiple of the warp size, every access of every warp is
	// unit-stride: load efficiency must be 1.
	b := workload.Batch[float64](workload.DiagDominant, 256, 64, 7)
	v := b.ToInterleaved()
	_, st, err := kernelInterleaved(v, 128)
	if err != nil {
		t.Fatal(err)
	}
	if eff := st.LoadEfficiency(dev().TransactionBytes); eff < 0.999 {
		t.Errorf("interleaved load efficiency = %g, want 1", eff)
	}
}

func TestKernelInterleavedEliminationCount(t *testing.T) {
	// 2n-1 elimination steps per system (paper §II.A.1).
	m, n := 10, 37
	b := workload.Batch[float64](workload.DiagDominant, m, n, 9)
	_, st, err := kernelInterleaved(b.ToInterleaved(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(m) * (2*int64(n) - 1); st.Eliminations != want {
		t.Errorf("eliminations = %d, want %d", st.Eliminations, want)
	}
}

func TestKernelStridedSolvesReducedSystems(t *testing.T) {
	// End-to-end check of the hybrid's data flow: k-step PCR (naive
	// reference) followed by the strided kernel must solve the batch.
	for _, tc := range []struct{ m, n, k int }{
		{1, 64, 2}, {4, 64, 3}, {3, 100, 2}, {2, 257, 4}, {1, 31, 5},
	} {
		b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, uint64(tc.n*3+tc.k))
		// Reduce every system by k steps.
		ra := make([]float64, tc.m*tc.n)
		rb := make([]float64, tc.m*tc.n)
		rc := make([]float64, tc.m*tc.n)
		rd := make([]float64, tc.m*tc.n)
		for i := 0; i < tc.m; i++ {
			r := pcr.Reduce(b.System(i), tc.k)
			copy(ra[i*tc.n:], r.Lower)
			copy(rb[i*tc.n:], r.Diag)
			copy(rc[i*tc.n:], r.Upper)
			copy(rd[i*tc.n:], r.RHS)
		}
		x, _, err := KernelStrided(dev(), ra, rb, rc, rd, tc.m, tc.n, tc.k)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](tc.n) {
			t.Errorf("%+v: residual %g", tc, r)
		}
		// And against the host twin, bit for bit.
		ref := make([]float64, tc.m*tc.n)
		SolveStridedRefInto(ra, rb, rc, rd, tc.m, tc.n, tc.k, ref, make([]float64, tc.n))
		for i := range ref {
			if num.Bits(x[i]) != num.Bits(ref[i]) {
				t.Fatalf("%+v: kernel and host twin differ at %d: %v vs %v", tc, i, x[i], ref[i])
			}
		}
	}
}

func TestKernelStridedCoalescing(t *testing.T) {
	m, n, k := 4, 1024, 5
	b := workload.Batch[float64](workload.DiagDominant, m, n, 3)
	// Coefficients need not be PCR-reduced for an access-pattern check.
	x, st, err := KernelStrided(dev(), b.Lower, b.Diag, b.Upper, b.RHS, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	_ = x
	if eff := st.LoadEfficiency(dev().TransactionBytes); eff < 0.999 {
		t.Errorf("strided kernel load efficiency = %g, want 1", eff)
	}
	if st.Blocks != m || st.ThreadsPerBlock != 1<<k {
		t.Errorf("launch shape %d blocks × %d threads", st.Blocks, st.ThreadsPerBlock)
	}
}

func TestKernelStridedRejectsBadConfig(t *testing.T) {
	if _, _, err := KernelStrided[float64](dev(), nil, nil, nil, nil, 1, 8, -1); err == nil {
		t.Error("negative k accepted")
	}
	if _, _, err := KernelStrided[float64](dev(), nil, nil, nil, nil, 1, 8, 11); err == nil {
		t.Error("2^k > block limit accepted")
	}
	s := make([]float64, 8)
	if _, _, err := KernelStrided(dev(), s, s, s, s, 2, 8, 2); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestKernelStridedKZero(t *testing.T) {
	// k = 0 degenerates to one thread per system solving it whole.
	m, n := 3, 50
	b := workload.Batch[float64](workload.DiagDominant, m, n, 8)
	x, _, err := KernelStrided(dev(), b.Lower, b.Diag, b.Upper, b.RHS, m, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](n) {
		t.Errorf("residual %g", r)
	}
}

func TestKernelsFloat32(t *testing.T) {
	m, n := 16, 64
	b := workload.Batch[float32](workload.DiagDominant, m, n, 2)
	xi, _, err := kernelInterleaved(b.ToInterleaved(), 32)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.DeinterleaveVector(xi, m, n)
	if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float32](n) {
		t.Errorf("float32 residual %g", r)
	}
}

func TestInterleavedProperty(t *testing.T) {
	f := func(seed uint32, mRaw, nRaw uint8) bool {
		m := int(mRaw)%60 + 1
		n := int(nRaw)%80 + 1
		b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(seed))
		xi, _, err := kernelInterleaved(b.ToInterleaved(), 32)
		if err != nil {
			return false
		}
		x := matrix.DeinterleaveVector(xi, m, n)
		return matrix.MaxResidual(b, x) <= matrix.ResidualTolerance[float64](n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
