// Package costmodel implements the paper's Table II: closed-form
// elimination-step costs of the Thomas algorithm, full PCR, and the
// k-step tiled-PCR + p-Thomas hybrid on a P-way parallel machine
// solving M independent systems of N rows each. These formulas drive
// the algorithm-transition analysis of §III.D; the empirical Table III
// heuristic lives in internal/core. Products that feed a sum are
// rounded explicitly (float64(x*y)), so no compiler fuses a
// multiply-add and the costs are the same bits on every architecture.
package costmodel

import "gputrid/internal/num"

// ThomasCost returns the Table II cost of solving M N-row systems with
// the Thomas algorithm on P workers: parallelism comes only from
// having multiple systems, so the time is (2N−1) scaled by the queue
// factor M/P when M exceeds P.
func ThomasCost(n, m, p int) float64 {
	steps := 2*float64(n) - 1
	if m > p {
		return float64(m) / float64(p) * steps
	}
	return steps
}

// PCRCost returns the Table II cost of full PCR: n·2^n+1 steps of work
// per system (log2(N)·N+1 for general N), which parallelizes freely and
// is therefore divided by P in both regimes; the critical path of
// log2(N)+1 steps is the floor.
func PCRCost(n, m, p int) float64 {
	lg := float64(num.CeilLog2(n))
	work := float64(m) * (float64(lg*float64(n)) + 1) / float64(p)
	if cp := lg + 1; work < cp {
		return cp
	}
	return work
}

// HybridCost returns the Table II cost of the k-step tiled PCR +
// p-Thomas hybrid. The PCR front-end contributes k·N work per system
// (freely parallel); the back-end runs Thomas on M·2^k subsystems of
// N/2^k rows. Three regimes, exactly as the table states:
//
//	M > P:            (M/P)·(kN + 2N − 2^k)        — all work queued on P
//	M ≤ P < 2^k·M:    (M/P)·kN + (M/P)·(2N − 2^k)  — back-end saturates P
//	2^k·M ≤ P:        (M/P)·kN + (2·N/2^k − 1)     — back-end underutilizes:
//	                  each of the 2^k·M busy workers runs one subsystem,
//	                  so the Thomas term is the per-subsystem span
//	                  2·2^(n−k) − 1 (§III.D inline text), not divided
//	                  further.
//
// The third branch is what drives the paper's transition rule: raising
// k by one costs (M/P)·N more PCR work but halves the Thomas span, a
// win exactly while 2^k < P/M — hence "the minimum is at the maximum k
// such that 2^k·M ≤ P".
func HybridCost(n, m, p, k int) float64 {
	if k < 0 {
		k = 0
	}
	for k > 0 && 1<<k > n {
		k--
	}
	pk := 1 << k
	mOverP := float64(m) / float64(p)
	pcrPart := float64(mOverP * float64(k) * float64(n))
	thomasWork := float64(2*float64(n)) - float64(pk) // per system, all subsystems
	switch {
	case m > p:
		return mOverP * (float64(float64(k)*float64(n)) + thomasWork)
	case pk*m > p:
		return pcrPart + float64(mOverP*thomasWork)
	default:
		return pcrPart + 2*float64(n)/float64(pk) - 1
	}
}

// OptimalK returns the k minimizing HybridCost for (N, M, P), searching
// k in [0, log2 N]. Ties resolve to the smaller k (less PCR overhead).
func OptimalK(n, m, p int) int {
	best, bestCost := 0, HybridCost(n, m, p, 0)
	for k := 1; 1<<k <= n; k++ {
		if c := HybridCost(n, m, p, k); c < bestCost {
			best, bestCost = k, c
		}
	}
	return best
}
