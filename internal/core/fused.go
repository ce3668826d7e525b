package core

import (
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/tiledpcr"
)

// SolveFused solves the batch with the §III.C fused kernel instead of
// the two-kernel hybrid, for the fusion ablation: same arithmetic, so
// the same solution bits, and per-kernel Stats in Report.Kernels. k is
// resolved as Solve resolves it; at k = 0 this is Solve. The fused
// kernel needs one block per system (Config.BlocksPerSystem <= 1).
func SolveFused[T num.Real](cfg Config, b *matrix.Batch[T]) ([]T, *Report, error) {
	return solveAblation(cfg, b, func(dev *gpusim.Device, k int, rep *Report) ([]T, error) {
		return solveFused(dev, cfg.c(), b, k, rep)
	})
}

// solveFused is the §III.C kernel-fusion path: one kernel per launch
// runs the tiled-PCR window and, as each sub-tile of fully reduced rows
// appears in the register tile, immediately applies the p-Thomas
// forward recurrence. Only the forward results c' and d' are written to
// global memory; the reduced coefficients a, b never leave the chip. A
// second lightweight kernel then performs back-substitution.
//
// The fused kernel inherits tiled PCR's shared-memory footprint for its
// whole lifetime, so its occupancy is the window's — the tradeoff the
// paper warns about for large parallel workloads.
func solveFused[T num.Real](dev *gpusim.Device, c int, b *matrix.Batch[T], k int, rep *Report) ([]T, error) {
	m, n := b.M, b.N
	p := 1 << k

	cp := make([]T, m*n)
	dp := make([]T, m*n)
	x := make([]T, m*n)
	in := tiledpcr.NewArrays(b.Lower, b.Diag, b.Upper, b.RHS)
	gcp := gpusim.NewGlobal(cp)
	gdp := gpusim.NewGlobal(dp)
	gx := gpusim.NewGlobal(x)

	st1, err := dev.Launch("tiledPCR+pThomasFwd", gpusim.LaunchConfig{Grid: m, Block: p},
		func(blk *gpusim.Block) {
			sys := blk.ID
			w := tiledpcr.NewWindow(blk, k, c, n, sys*n, in)
			// Per-thread forward state, kept in registers across the
			// whole stream (the paper's register tiling).
			cpPrev := make([]T, p)
			dpPrev := make([]T, p)
			started := make([]bool, p)
			w.Run(0, n, func(outBase int) {
				lo, hi := w.OutRange(outBase, 0, n)
				blk.PhaseNoSync(func(t *gpusim.Thread) {
					r := t.ID
					for e := 0; e < c; e++ {
						pos := r + e*p
						if pos < lo || pos >= hi {
							continue
						}
						i := outBase + pos // row index within the system
						row := w.Out[pos]
						var cv, dv T
						if !started[r] {
							cv = row.C / row.B
							dv = row.D / row.B
							started[r] = true
						} else {
							den := row.B - cpPrev[r]*row.A
							inv := 1 / den
							cv = row.C * inv
							dv = (row.D - dpPrev[r]*row.A) * inv
						}
						cpPrev[r], dpPrev[r] = cv, dv
						gi := sys*n + i
						gcp.Store(t, gi, cv)
						gdp.Store(t, gi, dv)
						t.ThomasSteps(1)
					}
				})
			})
		})
	if err != nil {
		return nil, err
	}
	rep.Kernels = append(rep.Kernels, st1)
	rep.Stats.Add(st1)

	// Back-substitution kernel: thread r of block sys walks subsystem r
	// backwards through the stored c', d'.
	st2, err := dev.Launch("pThomasBwd", gpusim.LaunchConfig{Grid: m, Block: p},
		func(blk *gpusim.Block) {
			base := blk.ID * n
			blk.PhaseNoSync(func(t *gpusim.Thread) {
				r := t.ID
				if r >= n {
					return
				}
				L := (n - r + p - 1) / p
				idx := base + r + (L-1)*p
				xNext := gdp.Load(t, idx)
				gx.Store(t, idx, xNext)
				for l := L - 2; l >= 0; l-- {
					idx = base + r + l*p
					xNext = gdp.Load(t, idx) - gcp.Load(t, idx)*xNext
					gx.Store(t, idx, xNext)
					t.ThomasSteps(1)
				}
			})
		})
	if err != nil {
		return nil, err
	}
	rep.Kernels = append(rep.Kernels, st2)
	rep.Stats.Add(st2)
	return x, nil
}
