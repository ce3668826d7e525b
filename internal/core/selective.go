package core

import (
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// SystemView wraps system i of the batch as a 1-system batch sharing
// the same storage (no copy). It is the per-system entry point for
// selective re-factorization: FactorHybrid(SystemView(b, i), k) caches
// exactly the elimination the full solve performed for that system.
func SystemView[T num.Real](b *matrix.Batch[T], i int) *matrix.Batch[T] {
	s := b.System(i)
	return &matrix.Batch[T]{
		M: 1, N: b.N,
		Lower: s.Lower,
		Diag:  s.Diag,
		Upper: s.Upper,
		RHS:   s.RHS,
	}
}
