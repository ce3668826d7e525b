package tiledpcr

import (
	"math"
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pcr"
	"gputrid/internal/workload"
)

// checkTwin reduces s with the simulated kernel and with HostReducer
// and requires every output coefficient to match bit for bit.
func checkTwin[T num.Real](t *testing.T, label string, s *matrix.System[T], k, c, blocks int) {
	t.Helper()
	compareTwin(t, label, s, k, c, blocks, false)
}

// compareTwin is checkTwin, except that with anyNaN a NaN matches any
// NaN, the rule core's audit applies: the compiler may order the
// operands of a commutative product differently in the twin's and the
// kernel's inlined copies of pcr.Combine, and IEEE 754 lets an
// operation on two NaNs return either, so their signs can differ.
func compareTwin[T num.Real](t *testing.T, label string, s *matrix.System[T], k, c, blocks int, anyNaN bool) {
	t.Helper()
	n := s.N()
	want := matrix.NewSystem[T](n)
	if _, err := reduceKernel(s, want, k, c, blocks); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := matrix.NewSystem[T](n)
	NewHostReducer[T](k).Reduce(s.Lower, s.Diag, s.Upper, s.RHS, got.Lower, got.Diag, got.Upper, got.RHS, nil)
	planes := [][2][]T{{got.Lower, want.Lower}, {got.Diag, want.Diag}, {got.Upper, want.Upper}, {got.RHS, want.RHS}}
	for pl, pair := range planes {
		for i := range pair[0] {
			g, w := pair[0][i], pair[1][i]
			if num.Bits(g) != num.Bits(w) && !(anyNaN && g != g && w != w) {
				t.Fatalf("%s: plane %d row %d: twin %v (%#x), kernel %v (%#x)", label, pl, i, g, num.Bits(g), w, num.Bits(w))
			}
		}
	}
}

// TestHostReducerMatchesKernelBitwise pins the twin to the simulated
// window on one and several blocks per system, every sub-tile scale,
// tiny and ragged systems, both precisions, and the RHS shapes whose
// zeros make the sign of zero visible: all-zero, all-negative-zero and
// a single nonzero entry (the distributed coupling planes). The short
// systems under deep k ({2, 8}, {5, 7}, {17, 6}, {64, 6}) put both
// constant halos against the data, and a near-singular system whose
// first and last pivots vanish sends Inf and NaN into the rows between
// them and the halos.
func TestHostReducerMatchesKernelBitwise(t *testing.T) {
	shapes := []struct{ n, k, c, blocks int }{
		{64, 2, 1, 1}, {100, 3, 1, 1}, {256, 5, 1, 2}, {256, 4, 2, 4},
		{1000, 6, 1, 3}, {31, 3, 1, 1}, {8, 1, 1, 1}, {512, 8, 1, 1},
		{300, 5, 3, 2}, {1, 2, 1, 1}, {3, 4, 1, 1}, {192, 6, 1, 1},
		{2, 8, 1, 1}, {5, 7, 1, 1}, {17, 6, 1, 1}, {64, 6, 1, 1},
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

		ns := workload.System[float64](workload.NearSingular, sh.n, seed)
		ns.Diag[0], ns.Diag[sh.n-1] = 0, 0
		compareTwin(t, "zero end pivots", ns, sh.k, sh.c, sh.blocks, true)
	}
}

// TestPlanReplayMatchesReduce pins Replay to Reduce: on every shape
// of TestHostReducerMatchesKernelBitwise, in both precisions and on
// the right-hand sides whose signed zeros expose the halo constants'
// D (all-zero, all-negative-zero, a single nonzero entry), a plan
// recorded on one right-hand side and replayed for another yields the
// reduced d that Reduce stores for that other one, bit for bit. The
// reducer replays each plan twice, so stale buffers from a previous
// replay show too.
func TestPlanReplayMatchesReduce(t *testing.T) {
	for _, sh := range []struct{ n, k int }{
		{64, 2}, {100, 3}, {256, 5}, {256, 4}, {1000, 6}, {31, 3}, {8, 1}, {512, 8},
		{300, 5}, {1, 2}, {3, 4}, {192, 6}, {2, 8}, {5, 7}, {17, 6}, {64, 6},
	} {
		seed := uint64(sh.n*31 + sh.k)
		replayCases(t, workload.System[float64](workload.DiagDominant, sh.n, seed), sh.k)
		replayCases(t, workload.System[float32](workload.Toeplitz, sh.n, seed), sh.k)
		ns := workload.System[float64](workload.NearSingular, sh.n, seed)
		ns.Diag[0], ns.Diag[sh.n-1] = 0, 0
		replayCases(t, ns, sh.k)
	}
}

// replayCases records s's operator with its own right-hand side and
// replays it for each right-hand-side shape in turn.
func replayCases[T num.Real](t *testing.T, s *matrix.System[T], k int) {
	t.Helper()
	n := s.N()
	h := NewHostReducer[T](k)
	pl := h.NewPlan(n)
	rec := matrix.NewSystem[T](n)
	h.Reduce(s.Lower, s.Diag, s.Upper, s.RHS, rec.Lower, rec.Diag, rec.Upper, rec.RHS, pl)
	shapes := map[string]func(d []T){
		"recorded": func(d []T) { copy(d, s.RHS) },
		"zero":     func(d []T) { clear(d) },
		"negative-zero": func(d []T) {
			for i := range d {
				d[i] = T(math.Copysign(0, -1))
			}
		},
		"first-row": func(d []T) { clear(d); d[0] = -1.5 },
		"last-row":  func(d []T) { clear(d); d[n-1] = 0.5 },
		"random": func(d []T) {
			r := num.NewRNG(uint64(n))
			for i := range d {
				d[i] = T(r.Range(-4, 4))
			}
		},
	}
	want, got, d := matrix.NewSystem[T](n), make([]T, n), make([]T, n)
	for name, fill := range shapes {
		fill(d)
		NewHostReducer[T](k).Reduce(s.Lower, s.Diag, s.Upper, d, want.Lower, want.Diag, want.Upper, want.RHS, nil)
		for pass := range 2 {
			h.Replay(pl, d, got)
			for i := range got {
				g, w := got[i], want.RHS[i]
				if num.Bits(g) != num.Bits(w) && !(g != g && w != w) {
					t.Fatalf("n=%d k=%d %s rhs, replay %d: d[%d] = %v (%#x), Reduce %v (%#x)", n, k, name, pass, i, g, num.Bits(g), w, num.Bits(w))
				}
			}
		}
	}
}

// TestHostReducerHaloConstants pins the halo constants: c_j is
// pcr.Combine applied j times to the identity row, bit for bit, and
// for every j >= 1 that is (-0, 1, -0, +0), the signed zeros the
// window's combined padding carries.
func TestHostReducerHaloConstants(t *testing.T) {
	haloConstants[float64](t, "float64")
	haloConstants[float32](t, "float32")
}

func haloConstants[T num.Real](t *testing.T, prec string) {
	const k = 9
	h := NewHostReducer[T](k)
	negZero := T(math.Copysign(0, -1))
	want := pcr.Identity[T]()
	for j := 0; j <= k; j++ {
		if j > 0 {
			want = pcr.Combine(want, want, want)
			lit := pcr.Row[T]{A: negZero, B: 1, C: negZero, D: 0}
			if !sameRow(want, lit) {
				t.Fatalf("%s: Combine^%d(identity) = %+v, want (-0, 1, -0, +0)", prec, j, want)
			}
		}
		if !sameRow(h.halo[j], want) {
			t.Fatalf("%s: c_%d = %+v (bits %#x %#x %#x %#x), want %+v", prec, j, h.halo[j],
				num.Bits(h.halo[j].A), num.Bits(h.halo[j].B), num.Bits(h.halo[j].C), num.Bits(h.halo[j].D), want)
		}
	}
}

// sameRow reports whether two rows agree in every bit.
func sameRow[T num.Real](x, y pcr.Row[T]) bool {
	return num.Bits(x.A) == num.Bits(y.A) && num.Bits(x.B) == num.Bits(y.B) &&
		num.Bits(x.C) == num.Bits(y.C) && num.Bits(x.D) == num.Bits(y.D)
}
