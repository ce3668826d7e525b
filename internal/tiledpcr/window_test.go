package tiledpcr

import (
	"fmt"
	"testing"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pcr"
	"gputrid/internal/workload"
)

func dev() *gpusim.Device { return gpusim.GTX480() }

// reduceKernel launches the Window on a GTX480 over one n-row system split across
// `blocks` thread blocks (Fig. 11(a) for one block, Fig. 11(b)
// otherwise), storing each block's level-k rows to out, and returns
// the recorded Stats.
func reduceKernel[T num.Real](s, out *matrix.System[T], k, c, blocks int) (*gpusim.Stats, error) {
	n := s.N()
	if out.N() != n {
		return nil, fmt.Errorf("output size %d != input size %d", out.N(), n)
	}
	blocks = min(max(blocks, 1), n)
	in := NewArrays(s.Lower, s.Diag, s.Upper, s.RHS)
	dst := NewArrays(out.Lower, out.Diag, out.Upper, out.RHS)
	per := num.CeilDiv(n, blocks)
	return dev().Launch("tiledPCR", gpusim.LaunchConfig{Grid: blocks, Block: 1 << k},
		func(b *gpusim.Block) {
			w := NewWindow(b, k, c, n, 0, in)
			outStart, outEnd := b.ID*per, min((b.ID+1)*per, n)
			if outStart >= outEnd {
				return
			}
			w.Run(outStart, outEnd, func(outBase int) {
				lo, hi := w.OutRange(outBase, outStart, outEnd)
				b.PhaseNoSync(func(t *gpusim.Thread) {
					for p := t.ID; p < w.S; p += w.threads {
						if p < lo || p >= hi {
							continue
						}
						i, r := outBase+p, w.Out[p]
						dst.A.Store(t, i, r.A)
						dst.B.Store(t, i, r.B)
						dst.C.Store(t, i, r.C)
						dst.D.Store(t, i, r.D)
					}
				})
			})
		})
}

func runKernel(t *testing.T, n, k, c, blocks int, seed uint64) (*matrix.System[float64], *matrix.System[float64], *gpusim.Stats) {
	t.Helper()
	s := workload.System[float64](workload.DiagDominant, n, seed)
	out := matrix.NewSystem[float64](n)
	st, err := reduceKernel(s, out, k, c, blocks)
	if err != nil {
		t.Fatalf("n=%d k=%d c=%d blocks=%d: %v", n, k, c, blocks, err)
	}
	return s, out, st
}

func TestReduceKernelMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ n, k, c, blocks int }{
		{64, 2, 1, 1},
		{64, 3, 1, 1},
		{128, 4, 2, 1},
		{100, 3, 1, 1},  // n not multiple of sub-tile
		{256, 5, 1, 2},  // multi-block
		{256, 4, 2, 4},  // multi-block, c=2
		{1000, 6, 1, 3}, // odd split
		{31, 3, 1, 1},   // tiny
		{8, 1, 1, 1},    // minimal k
		{512, 8, 1, 1},  // Table III largest k
		{300, 5, 3, 2},  // c=3
	} {
		s, out, _ := runKernel(t, tc.n, tc.k, tc.c, tc.blocks, uint64(tc.n*131+tc.k*7+tc.c))
		samePlanes(t, fmt.Sprintf("%+v: kernel", tc), out, pcr.Reduce(s, tc.k))
	}
}

func TestReduceKernelLoadCount(t *testing.T) {
	// Single block: every element of the 4 input arrays is loaded
	// exactly once — the window's zero-redundancy guarantee. The only
	// extra useful-byte traffic is identity padding, which issues no
	// loads at all.
	n, k, c := 512, 4, 1
	_, _, st := runKernel(t, n, k, c, 1, 9)
	elemBytes := 8
	wantLoaded := int64(4 * n * elemBytes)
	if st.LoadedBytes != wantLoaded {
		t.Errorf("loaded bytes = %d, want %d (each element exactly once)",
			st.LoadedBytes, wantLoaded)
	}
	if st.StoredBytes != wantLoaded {
		t.Errorf("stored bytes = %d, want %d", st.StoredBytes, wantLoaded)
	}
}

func TestReduceKernelHaloRedundancy(t *testing.T) {
	// With two blocks, the second block re-reads its left halo and the
	// first block reads past its end: at least f(k) extra element loads
	// per side (Eq. 8), at most f(k)+S due to sub-tile alignment of the
	// load phases.
	n, k := 512, 4
	S := 1 << k
	_, _, one := runKernel(t, n, k, 1, 1, 10)
	_, _, two := runKernel(t, n, k, 1, 2, 10)
	extra := two.LoadedBytes - one.LoadedBytes
	lo := int64(2*F(k)) * 4 * 8
	hi := int64(2*(F(k)+S)) * 4 * 8
	if extra < lo || extra > hi {
		t.Errorf("halo bytes = %d, want in [%d, %d]", extra, lo, hi)
	}
}

func TestReduceKernelEliminationCount(t *testing.T) {
	// Eliminations = k levels × S per level × phases per block. For a
	// single block covering [0,n) with c=1: the first raw load starts
	// one sub-tile before row 0 and the pipeline lag is 2^k, so
	// phases = n/S + 2, total k·S·phases — the pipeline's exact work,
	// warm-up included.
	n, k, c := 512, 4, 1
	_, _, st := runKernel(t, n, k, c, 1, 11)
	S := c << k
	phases := n/S + 2
	want := int64(k) * int64(S) * int64(phases)
	if st.Eliminations != want {
		t.Errorf("eliminations = %d, want %d", st.Eliminations, want)
	}
}

func TestReduceKernelSharedFootprintMatchesTableI(t *testing.T) {
	for _, k := range []int{2, 5, 8} {
		c := 1
		_, _, st := runKernel(t, 600, k, c, 1, uint64(k))
		want := SharedBytes[float64](k, c)
		if st.SharedPerBlock != want {
			t.Errorf("k=%d: shared bytes %d, want %d", k, st.SharedPerBlock, want)
		}
		if st.ThreadsPerBlock != 1<<k {
			t.Errorf("k=%d: threads per block %d, want %d", k, st.ThreadsPerBlock, 1<<k)
		}
	}
}

func TestReduceKernelCoalescedLoads(t *testing.T) {
	// The load phase is unit-stride across threads, so load efficiency
	// must be high (loads of halo regions and partial warps allowed).
	_, _, st := runKernel(t, 4096, 5, 1, 1, 13)
	if eff := st.LoadEfficiency(dev().TransactionBytes); eff < 0.9 {
		t.Errorf("load efficiency %.3f, want >= 0.9", eff)
	}
}

func TestReduceKernelRejectsBadOutput(t *testing.T) {
	s := workload.System[float64](workload.DiagDominant, 64, 1)
	out := matrix.NewSystem[float64](32)
	if _, err := reduceKernel(s, out, 3, 1, 1); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestNewWindowPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(k=0) did not panic")
		}
	}()
	_, err := dev().Launch("bad", gpusim.LaunchConfig{Grid: 1, Block: 1}, func(b *gpusim.Block) {
		NewWindow(b, 0, 1, 8, 0, Arrays[float64]{})
	})
	_ = err
}

func TestWindowOutRange(t *testing.T) {
	var w Window[float64]
	w.S = 8
	w.n = 100
	// Fully inside.
	if lo, hi := w.OutRange(16, 0, 100); lo != 0 || hi != 8 {
		t.Errorf("interior: %d %d", lo, hi)
	}
	// Warm-up clip at the front.
	if lo, hi := w.OutRange(-3, 0, 100); lo != 3 || hi != 8 {
		t.Errorf("front clip: %d %d", lo, hi)
	}
	// Clip at the end of the range and system.
	if lo, hi := w.OutRange(96, 0, 100); lo != 0 || hi != 4 {
		t.Errorf("end clip: %d %d", lo, hi)
	}
	// Fully outside.
	if lo, hi := w.OutRange(200, 0, 100); lo != hi {
		t.Errorf("outside: %d %d", lo, hi)
	}
}

func TestReduceKernelFloat32(t *testing.T) {
	n, k := 128, 3
	s := workload.System[float32](workload.DiagDominant, n, 5)
	out := matrix.NewSystem[float32](n)
	if _, err := reduceKernel(s, out, k, 1, 1); err != nil {
		t.Fatal(err)
	}
	samePlanes(t, "float32 kernel", out, pcr.Reduce(s, k))
}
