package gputrid

import (
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/pcr"
	"gputrid/internal/tiledpcr"
)

// checkReduceEquivalence asserts that every scheduling of the k-step
// reduction — naive, streamed, blocked, and the host twin production
// solves run — produces identical coefficients for the given system.
func checkReduceEquivalence(t *testing.T, s *System[float64], k, tile int) {
	t.Helper()
	want := pcr.Reduce(s, k)
	streamed := tiledpcr.StreamReduce(s, k)
	blocked, _ := tiledpcr.ReduceBlocked(s, k, tile)
	host := matrix.NewSystem[float64](s.N())
	tiledpcr.NewHostReducer[float64](k).Reduce(s.Lower, s.Diag, s.Upper, s.RHS,
		host.Lower, host.Diag, host.Upper, host.RHS)
	for name, got := range map[string]*matrix.System[float64]{
		"streamed": streamed, "blocked": blocked, "host": host,
	} {
		if d := matrix.MaxAbsDiff(got.Diag, want.Diag); d != 0 {
			t.Errorf("%s diag differs by %g (n=%d k=%d tile=%d)", name, d, s.N(), k, tile)
		}
		if d := matrix.MaxAbsDiff(got.RHS, want.RHS); d != 0 {
			t.Errorf("%s rhs differs by %g (n=%d k=%d tile=%d)", name, d, s.N(), k, tile)
		}
	}
}
