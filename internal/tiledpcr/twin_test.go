package tiledpcr

import (
	"math"
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// checkTwin reduces s with the simulated kernel and with HostReducer
// and requires every output coefficient to match bit for bit.
func checkTwin[T num.Real](t *testing.T, label string, s *matrix.System[T], k, c, blocks int) {
	t.Helper()
	n := s.N()
	want := matrix.NewSystem[T](n)
	if _, err := reduceKernel(s, want, k, c, blocks); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := matrix.NewSystem[T](n)
	NewHostReducer[T](k).Reduce(s.Lower, s.Diag, s.Upper, s.RHS, got.Lower, got.Diag, got.Upper, got.RHS)
	planes := [][2][]T{{got.Lower, want.Lower}, {got.Diag, want.Diag}, {got.Upper, want.Upper}, {got.RHS, want.RHS}}
	for pl, pair := range planes {
		for i := range pair[0] {
			if num.Bits(pair[0][i]) != num.Bits(pair[1][i]) {
				t.Fatalf("%s: plane %d row %d: twin %v, kernel %v", label, pl, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestHostReducerMatchesKernelBitwise pins the twin to the simulated
// window on one and several blocks per system, every sub-tile scale,
// tiny and ragged systems, both precisions, and the RHS shapes whose
// zeros make the sign of zero visible: all-zero, all-negative-zero and
// a single nonzero entry (the distributed coupling planes).
func TestHostReducerMatchesKernelBitwise(t *testing.T) {
	shapes := []struct{ n, k, c, blocks int }{
		{64, 2, 1, 1}, {100, 3, 1, 1}, {256, 5, 1, 2}, {256, 4, 2, 4},
		{1000, 6, 1, 3}, {31, 3, 1, 1}, {8, 1, 1, 1}, {512, 8, 1, 1},
		{300, 5, 3, 2}, {1, 2, 1, 1}, {3, 4, 1, 1}, {192, 6, 1, 1},
	}
	for _, sh := range shapes {
		seed := uint64(sh.n*31 + sh.k)
		s := workload.System[float64](workload.DiagDominant, sh.n, seed)
		checkTwin(t, "random", s, sh.k, sh.c, sh.blocks)
		checkTwin(t, "float32", workload.System[float32](workload.Toeplitz, sh.n, seed), sh.k, sh.c, sh.blocks)

		z := s.Clone()
		clear(z.RHS)
		checkTwin(t, "zero rhs", z, sh.k, sh.c, sh.blocks)
		for i := range z.RHS {
			z.RHS[i] = math.Copysign(0, -1)
		}
		checkTwin(t, "negative-zero rhs", z, sh.k, sh.c, sh.blocks)
		clear(z.RHS)
		z.RHS[0] = -z.Lower[0] - 1
		checkTwin(t, "first-row rhs", z, sh.k, sh.c, sh.blocks)
		clear(z.RHS)
		z.RHS[sh.n-1] = 0.5
		checkTwin(t, "last-row rhs", z, sh.k, sh.c, sh.blocks)
	}
}
