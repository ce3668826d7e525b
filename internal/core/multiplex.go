package core

import (
	"fmt"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pthomas"
	"gputrid/internal/tiledpcr"
)

// SolveMultiplexed solves the batch with q systems multiplexed onto
// each tiled-PCR thread block, for the Fig. 11(c) ablation: same
// arithmetic, so the same solution bits, and per-kernel Stats in
// Report.Kernels. k is resolved as Solve resolves it; at k = 0, or for
// q <= 1, this is Solve. It needs one block per system
// (Config.BlocksPerSystem <= 1).
func SolveMultiplexed[T num.Real](cfg Config, q int, b *matrix.Batch[T]) ([]T, *Report, error) {
	if q <= 1 {
		return Solve(cfg, b)
	}
	return solveAblation(cfg, b, func(dev *gpusim.Device, k int, rep *Report) ([]T, error) {
		return solveMultiplexed(dev, cfg.c(), q, b, k, rep)
	})
}

// solveMultiplexed is the Fig. 11(c) configuration: each thread block
// hosts q sliding windows (one per system) and
// advances them round-robin, one sub-tile phase each. The windows'
// global loads are independent, so a real GPU overlaps their latencies;
// the cost is q times the shared-memory footprint, which lowers
// occupancy — the tradeoff the harness's ablation quantifies.
func solveMultiplexed[T num.Real](dev *gpusim.Device, c, q int, b *matrix.Batch[T], k int, rep *Report) ([]T, error) {
	m, n := b.M, b.N
	if fit := tiledpcr.SharedBytes[T](k, c) * q; fit > dev.SharedMemPerSM {
		return nil, fmt.Errorf("core: %d multiplexed windows need %d bytes shared, device SM has %d",
			q, fit, dev.SharedMemPerSM)
	}

	ra := make([]T, m*n)
	rb := make([]T, m*n)
	rc := make([]T, m*n)
	rd := make([]T, m*n)
	in := tiledpcr.NewArrays(b.Lower, b.Diag, b.Upper, b.RHS)
	out := tiledpcr.NewArrays(ra, rb, rc, rd)

	grid := num.CeilDiv(m, q)
	st1, err := dev.Launch("tiledPCRmux", gpusim.LaunchConfig{Grid: grid, Block: 1 << k},
		func(blk *gpusim.Block) {
			first := blk.ID * q
			count := q
			if first+count > m {
				count = m - first
			}
			if count <= 0 {
				return
			}
			windows := make([]*tiledpcr.Window[T], count)
			phases := 0
			for i := range windows {
				windows[i] = tiledpcr.NewWindow(blk, k, c, n, (first+i)*n, in)
				if p := windows[i].InitRun(0, n); p > phases {
					phases = p
				}
			}
			for t := 0; t < phases; t++ {
				for i, w := range windows {
					sys := first + i
					w.Advance(t, func(outBase int) {
						lo, hi := w.OutRange(outBase, 0, n)
						blk.PhaseNoSync(func(th *gpusim.Thread) {
							for e := 0; e < c; e++ {
								p := th.ID + e*w.Threads()
								if p < lo || p >= hi {
									continue
								}
								gi := sys*n + outBase + p
								r := w.Out[p]
								out.A.Store(th, gi, r.A)
								out.B.Store(th, gi, r.B)
								out.C.Store(th, gi, r.C)
								out.D.Store(th, gi, r.D)
							}
						})
					})
				}
			}
		})
	if err != nil {
		return nil, err
	}
	rep.Kernels = append(rep.Kernels, st1)
	rep.Stats.Add(st1)

	x, st2, err := pthomas.KernelStrided(dev, ra, rb, rc, rd, m, n, k)
	if err != nil {
		return nil, err
	}
	rep.Kernels = append(rep.Kernels, st2)
	rep.Stats.Add(st2)
	return x, nil
}
