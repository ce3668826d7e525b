package core

import (
	"gputrid/internal/gpusim"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// HeuristicK returns the paper's Table III empirical transition point
// for the GTX480: the number of tiled-PCR steps as a function of the
// number of independent systems M.
//
//	M < 16:          k = 8  (tile 256)
//	16 <= M < 32:    k = 7  (tile 128)
//	32 <= M < 512:   k = 6  (tile 64)
//	512 <= M < 1024: k = 5  (tile 32)
//	M >= 1024:       k = 0  (straight to p-Thomas)
func HeuristicK(m int) int {
	switch {
	case m < 16:
		return 8
	case m < 32:
		return 7
	case m < 512:
		return 6
	case m < 1024:
		return 5
	default:
		return 0
	}
}

// HeuristicTable reproduces Table III: each row's M range, k, and tile
// size 2^k.
type HeuristicRow struct {
	MLo, MHi int // [MLo, MHi); MHi = 0 means unbounded
	K        int
	TileSize int
}

// TableIII returns the paper's heuristic table.
func TableIII() []HeuristicRow {
	return []HeuristicRow{
		{0, 16, 8, 256},
		{16, 32, 7, 128},
		{32, 512, 6, 64},
		{512, 1024, 5, 32},
		{1024, 0, 0, 1},
	}
}

// TuneK empirically selects k for a batch shape (m systems × n rows in
// precision T) by solving a synthetic diagonally dominant batch at every
// feasible k and picking the smallest modeled execution time — the
// auto-tuning pass the paper says "can be done only once" per
// hardware/shape. It returns the winning k and the modeled time per k
// (indexed by k; entries for infeasible k are +Inf).
func TuneK[T num.Real](dev *gpusim.Device, m, n int) (int, []float64) {
	const maxK = 8
	times := make([]float64, maxK+1)
	b := workload.Batch[T](workload.DiagDominant, m, n, 42)
	best, bestT := 0, 0.0
	for k := 0; k <= maxK; k++ {
		times[k] = inf()
		if 1<<k > n || 1<<k > dev.MaxThreadsPerBlock {
			continue
		}
		cfg := Config{Device: dev, K: k}
		if _, rep, err := Solve(cfg, b.Clone()); err == nil {
			times[k] = ModeledTime[T](dev, rep)
			if bestT == 0 || times[k] < bestT {
				best, bestT = k, times[k]
			}
		}
	}
	return best, times
}

// ModeledTime converts a solve report into the device cost model's
// execution-time estimate, summing the per-kernel estimates (kernels
// run back to back, exactly like the paper's timed region).
func ModeledTime[T num.Real](dev *gpusim.Device, rep *Report) float64 {
	elem := num.SizeOf[T]()
	var t float64
	for _, st := range rep.Kernels {
		t += dev.EstimateTime(st, elem)
	}
	return t
}

func inf() float64 { return 1e300 }
