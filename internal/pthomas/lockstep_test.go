package pthomas

import (
	"fmt"
	"testing"
	"time"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// perLaneStrided is the per-lane form of SolveStridedRefInto that the
// lockstep sweep replaced: each of the 2^k subsystems of each system is
// solved to the end before the next one starts. It is the oracle the
// lockstep twins are held to.
func perLaneStrided[T num.Real](a, b, c, d []T, m, n, k int, x []T) {
	p := 1 << k
	cp, dp := make([]T, num.CeilDiv(n, p)), make([]T, num.CeilDiv(n, p))
	for i := 0; i < m; i++ {
		base := i * n
		for r := 0; r < p && r < n; r++ {
			thomasLane(a[base:], b[base:], c[base:], d[base:], x[base:], cp, dp, r, p, (n-r+p-1)/p)
		}
	}
}

// perLaneInterleaved is the per-lane form of SolveInterleavedRangeInto:
// systems [lo, hi) of v, one after another.
func perLaneInterleaved[T num.Real](v *matrix.Interleaved[T], x []T, lo, hi int) {
	cp, dp := make([]T, v.N), make([]T, v.N)
	for i := lo; i < hi; i++ {
		thomasLane(v.Lower, v.Diag, v.Upper, v.RHS, x, cp, dp, i, v.M, v.N)
	}
}

// thomasLane solves the system whose row l lives at flat index
// start + l*stride, writing x at the same indices, with c'/d' at the
// row's position l of the scratch.
func thomasLane[T num.Real](a, b, c, d, x, cp, dp []T, start, stride, rows int) {
	if rows <= 0 {
		return
	}
	idx := start
	cp[0] = c[idx] / b[idx]
	dp[0] = d[idx] / b[idx]
	for l := 1; l < rows; l++ {
		idx = start + l*stride
		den := b[idx] - cp[l-1]*a[idx]
		inv := 1 / den
		cp[l] = c[idx] * inv
		dp[l] = (d[idx] - dp[l-1]*a[idx]) * inv
	}
	xn := dp[rows-1]
	x[start+(rows-1)*stride] = xn
	for l := rows - 2; l >= 0; l-- {
		xn = dp[l] - cp[l]*xn
		x[start+l*stride] = xn
	}
}

// lockstepInputs returns the batches TestLockstepMatchesPerLane solves:
// diagonally dominant, near-singular, and near-singular with zero
// pivots so that Inf and NaN run through the sweeps. System 0 loses
// its first pivot; every system loses the pivot of its middle row,
// whose lower coefficient is zeroed too, so the eliminated diagonal
// there is exactly 0 - c'·0.
func lockstepInputs[T num.Real](m, n int) map[string]*matrix.Batch[T] {
	seed := uint64(m*7919 + n)
	zp := workload.Batch[T](workload.NearSingular, m, n, seed+1)
	zp.Diag[0] = 0
	for i := 0; i < m; i++ {
		mid := i*n + n/2
		zp.Lower[mid], zp.Diag[mid] = 0, 0
	}
	return map[string]*matrix.Batch[T]{
		"diag-dominant": workload.Batch[T](workload.DiagDominant, m, n, seed),
		"near-singular": workload.Batch[T](workload.NearSingular, m, n, seed),
		"zero-pivot":    zp,
	}
}

// sameBits reports the first index where got and want differ in any
// bit, NaN payloads and signs included, or -1.
func sameBits[T num.Real](want, got []T) int {
	for i := range want {
		if num.Bits(want[i]) != num.Bits(got[i]) {
			return i
		}
	}
	return -1
}

// TestLockstepMatchesPerLane holds both lockstep twins to the per-lane
// loops bit for bit, NaN payloads included: the strided entry over
// k from 0 to past N (2^k > N leaves lanes with no rows), the
// interleaved entry over every sub-range [lo, hi), each in both
// precisions on diagonally dominant, near-singular and zero-pivot
// input.
func TestLockstepMatchesPerLane(t *testing.T) {
	lockstepMatches[float64](t, "float64")
	lockstepMatches[float32](t, "float32")
}

func lockstepMatches[T num.Real](t *testing.T, prec string) {
	const sentinel = -7
	for _, m := range []int{1, 3} {
		for _, n := range []int{1, 2, 3, 17, 192, 1001} {
			cp := make([]T, m*n)
			for kind, b := range lockstepInputs[T](m, n) {
				for _, k := range []int{0, 1, 2, 6, 7, 9} {
					want, got := make([]T, m*n), make([]T, m*n)
					perLaneStrided(b.Lower, b.Diag, b.Upper, b.RHS, m, n, k, want)
					SolveStridedRefInto(b.Lower, b.Diag, b.Upper, b.RHS, m, n, k, got, cp)
					if i := sameBits(want, got); i >= 0 {
						t.Fatalf("%s %s %dx%d k=%d: strided x[%d] = %#x, per-lane %#x",
							prec, kind, m, n, k, i, num.Bits(got[i]), num.Bits(want[i]))
					}
				}
				v := b.ToInterleaved()
				for lo := 0; lo < m; lo++ {
					for hi := lo + 1; hi <= m; hi++ {
						want, got := make([]T, m*n), make([]T, m*n)
						for i := range want {
							want[i], got[i] = sentinel, sentinel
						}
						perLaneInterleaved(v, want, lo, hi)
						SolveInterleavedRangeInto(v, got, cp, lo, hi)
						if i := sameBits(want, got); i >= 0 {
							t.Fatalf("%s %s %dx%d [%d,%d): interleaved x[%d] = %#x, per-lane %#x",
								prec, kind, m, n, lo, hi, i, num.Bits(got[i]), num.Bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestReplayMatchesPerLane holds the record/replay form to the
// per-lane loops: RecordStridedInto solves what it records, and
// ReplayStridedInto then solves the recorded system for another
// right-hand side, in place too, bit for bit, NaN payloads included,
// over the inputs and k of TestLockstepMatchesPerLane.
func TestReplayMatchesPerLane(t *testing.T) {
	replayMatches[float64](t, "float64")
	replayMatches[float32](t, "float32")
}

func replayMatches[T num.Real](t *testing.T, prec string) {
	for _, n := range []int{1, 2, 3, 17, 192, 1001} {
		for kind, b := range lockstepInputs[T](1, n) {
			d := workload.System[T](workload.DiagDominant, n, uint64(n)).RHS
			for _, k := range []int{0, 1, 2, 6, 7, 9} {
				want, got, cp, piv := make([]T, n), make([]T, n), make([]T, n), make([]T, n)
				perLaneStrided(b.Lower, b.Diag, b.Upper, b.RHS, 1, n, k, want)
				RecordStridedInto(b.Lower, b.Diag, b.Upper, b.RHS, got, cp, piv, k)
				if i := sameBits(want, got); i >= 0 {
					t.Fatalf("%s %s n=%d k=%d: recorded x[%d] = %#x, per-lane %#x", prec, kind, n, k, i, num.Bits(got[i]), num.Bits(want[i]))
				}
				perLaneStrided(b.Lower, b.Diag, b.Upper, d, 1, n, k, want)
				ReplayStridedInto(b.Lower, cp, piv, d, got, k)
				if i := sameBits(want, got); i >= 0 {
					t.Fatalf("%s %s n=%d k=%d: replayed x[%d] = %#x, per-lane %#x", prec, kind, n, k, i, num.Bits(got[i]), num.Bits(want[i]))
				}
				copy(got, d)
				ReplayStridedInto(b.Lower, cp, piv, got, got, k)
				if i := sameBits(want, got); i >= 0 {
					t.Fatalf("%s %s n=%d k=%d: in-place x[%d] = %#x, per-lane %#x", prec, kind, n, k, i, num.Bits(got[i]), num.Bits(want[i]))
				}
			}
		}
	}
}

// TestRowsMatchPerLane holds the contiguous k = 0 twin to thomasLane
// per system, bit for bit, NaN payloads included, at every remainder of
// its grouping into Lanes systems (M from 1 to 7), in both precisions
// on diagonally dominant, near-singular and zero-pivot input. Both ways
// in are checked. SolveRowsInto runs over systems placed inside larger
// x and c' planes, whose entries outside those systems must keep their
// sentinel. SolveStridedRefInto at k = 0 runs with Lanes systems' c'.
func TestRowsMatchPerLane(t *testing.T) {
	rowsMatch[float64](t, "float64")
	rowsMatch[float32](t, "float32")
}

func rowsMatch[T num.Real](t *testing.T, prec string) {
	const sentinel, pad = -7, 5
	filled := func(size int) []T {
		s := make([]T, size)
		for i := range s {
			s[i] = sentinel
		}
		return s
	}
	untouched := func(s []T) int {
		for i, v := range s {
			if v != sentinel {
				return i
			}
		}
		return -1
	}
	for m := 1; m <= 7; m++ {
		for _, n := range []int{1, 2, 3, 17, 1001} {
			for kind, b := range lockstepInputs[T](m, n) {
				size := m * n
				want := make([]T, size)
				perLaneStrided(b.Lower, b.Diag, b.Upper, b.RHS, m, n, 0, want)

				x, cp := filled(size+2*pad), filled(size+2*pad)
				SolveRowsInto(b.Lower, b.Diag, b.Upper, b.RHS, x[pad:pad+size], cp[pad:pad+size], n)
				if i := sameBits(want, x[pad:pad+size]); i >= 0 {
					t.Fatalf("%s %s %dx%d: rows x[%d] = %#x, per-lane %#x",
						prec, kind, m, n, i, num.Bits(x[pad+i]), num.Bits(want[i]))
				}
				for name, s := range map[string][]T{"x": x, "c'": cp} {
					if i := untouched(s[:pad]); i >= 0 {
						t.Fatalf("%s %s %dx%d: rows wrote %s %d entries before its systems", prec, kind, m, n, name, pad-i)
					}
					if i := untouched(s[pad+size:]); i >= 0 {
						t.Fatalf("%s %s %dx%d: rows wrote %s %d entries past its systems", prec, kind, m, n, name, i+1)
					}
				}

				got := make([]T, size)
				SolveStridedRefInto(b.Lower, b.Diag, b.Upper, b.RHS, m, n, 0, got, make([]T, Lanes*n))
				if i := sameBits(want, got); i >= 0 {
					t.Fatalf("%s %s %dx%d: strided k=0 x[%d] = %#x, per-lane %#x",
						prec, kind, m, n, i, num.Bits(got[i]), num.Bits(want[i]))
				}
			}
		}
	}
}

// TestCoupledMatchesPerLane holds the coupled twin to thomasLane per
// right-hand side, bit for bit, NaN payloads included, in both
// precisions on diagonally dominant, near-singular and zero-pivot
// input. Each system is the L interior rows of an (L+2)-row system, as
// a slab is of the whole, so its couplings v = -a[0] and w = -c[L-1]
// are the ones a middle slab carries; the first slab has v = 0 and the
// last w = 0. The oracle solves the explicit right-hand sides, cleared
// to +0 but for that one entry. The twin's four outputs sit inside
// larger planes whose entries outside the slab's rows must keep their
// sentinel.
func TestCoupledMatchesPerLane(t *testing.T) {
	coupledMatches[float64](t, "float64")
	coupledMatches[float32](t, "float32")
}

func coupledMatches[T num.Real](t *testing.T, prec string) {
	const sentinel, pad = -7, 5
	for _, L := range []int{1, 2, 3, 17, 1001} {
		for kind, whole := range lockstepInputs[T](1, L+2) {
			a, b, c, d := whole.Lower[1:L+1], whole.Diag[1:L+1], whole.Upper[1:L+1], whole.RHS[1:L+1]
			for _, slab := range []string{"first", "middle", "last"} {
				v, w := -a[0], -c[L-1]
				switch slab {
				case "first":
					v = 0
				case "last":
					w = 0
				}
				ev, ew := make([]T, L), make([]T, L)
				ev[0], ew[L-1] = v, w
				want := make([][]T, 3)
				cpw, dpw := make([]T, L), make([]T, L)
				for j, rhs := range [][]T{d, ev, ew} {
					want[j] = make([]T, L)
					thomasLane(a, b, c, rhs, want[j], cpw, dpw, 0, 1, L)
				}

				planes := make([][]T, 4) // xu, xv, xw, c'
				for j := range planes {
					planes[j] = make([]T, L+2*pad)
					for i := range planes[j] {
						planes[j][i] = sentinel
					}
				}
				in := func(j int) []T { return planes[j][pad : pad+L] }
				SolveCoupledInto(a, b, c, d, v, w, in(0), in(1), in(2), in(3))
				for j, name := range []string{"u", "v", "w"} {
					if i := sameBits(want[j], in(j)); i >= 0 {
						t.Fatalf("%s %s L=%d %s slab: coupled %s[%d] = %#x, per-lane %#x",
							prec, kind, L, slab, name, i, num.Bits(in(j)[i]), num.Bits(want[j][i]))
					}
				}
				for j, name := range []string{"u", "v", "w", "c'"} {
					for i, x := range planes[j] {
						if (i < pad || i >= pad+L) && x != sentinel {
							t.Fatalf("%s %s L=%d %s slab: coupled wrote %s outside its rows at %d", prec, kind, L, slab, name, i-pad)
						}
					}
				}
			}
		}
	}
}

// BenchmarkLockstepThomas times the lockstep twins against the
// per-lane loops they replaced, in the same run: the strided entry at
// 16x65536 with k = 7 and at adi-step's 192x192 with k = 6, the
// interleaved entry over a whole 1024x512 batch (k = 0), and the
// contiguous k = 0 form, Lanes systems at a time, over the same
// 1024x512 batch and on the 3x32768 slab shape of a 4-device
// distributed solve, where one group covers the whole slab. ns/op is
// the lockstep sweep; perlane/lockstep is the per-lane time over the
// lockstep time, above 1 when the lockstep form is faster. The
// 3x32768,coupled row times the coupled twin on that slab, one system
// of 32768 rows with its two couplings, against the three-lane form
// (thomas3) over the slab's three systems, the coefficients replicated
// as a distributed solve once built them; it reports thomas3/coupled.
func BenchmarkLockstepThomas(b *testing.B) {
	for _, sh := range []struct {
		m, n, k     int
		interleaved bool
		coupled     bool
	}{
		{16, 65536, 7, false, false},
		{192, 192, 6, false, false},
		{1024, 512, 0, true, false},
		{1024, 512, 0, false, false},
		{3, 32768, 0, false, false},
		{3, 32768, 0, false, true},
	} {
		name := fmt.Sprintf("%dx%d,k=%d", sh.m, sh.n, sh.k)
		switch {
		case sh.interleaved:
			name = fmt.Sprintf("%dx%d,interleaved", sh.m, sh.n)
		case sh.coupled:
			name = fmt.Sprintf("%dx%d,coupled", sh.m, sh.n)
		}
		b.Run(name, func(b *testing.B) {
			batch := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 3)
			v := batch.ToInterleaved()
			x := make([]float64, sh.m*sh.n)
			cp := make([]float64, sh.m*sh.n) // the interleaved entry's c' plane
			if !sh.interleaved {
				cp = cp[:min(sh.m, Lanes)*sh.n] // SolveReference's scratch
			}
			n := sh.n
			if sh.coupled {
				// The replicated slab: system 0's coefficients in all three,
				// its RHS, then its two couplings alone.
				a, d := batch.Lower[:n], batch.Diag[:n]
				for q := 1; q < sh.m; q++ {
					copy(batch.Lower[q*n:], a)
					copy(batch.Diag[q*n:], d)
					copy(batch.Upper[q*n:], batch.Upper[:n])
					clear(batch.RHS[q*n : (q+1)*n])
				}
				batch.RHS[n], batch.RHS[3*n-1] = -a[n/2], -batch.Upper[n/2]
			}
			lockstep := func() {
				switch {
				case sh.coupled:
					SolveCoupledInto(batch.Lower[:n], batch.Diag[:n], batch.Upper[:n], batch.RHS[:n],
						batch.RHS[n], batch.RHS[3*n-1], x[:n], x[n:2*n], x[2*n:], cp[:n])
				case sh.interleaved:
					SolveInterleavedRangeInto(v, x, cp, 0, sh.m)
				default:
					SolveStridedRefInto(batch.Lower, batch.Diag, batch.Upper, batch.RHS, sh.m, sh.n, sh.k, x, cp)
				}
			}
			perLane := func() {
				switch {
				case sh.coupled:
					SolveRowsInto(batch.Lower, batch.Diag, batch.Upper, batch.RHS, x, cp, n)
				case sh.interleaved:
					perLaneInterleaved(v, x, 0, sh.m)
				default:
					perLaneStrided(batch.Lower, batch.Diag, batch.Upper, batch.RHS, sh.m, sh.n, sh.k, x)
				}
			}
			lockstep() // warm the caches outside the timer
			var ls, pl time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				lockstep()
				ls += time.Since(start)
				b.StopTimer()
				start = time.Now()
				perLane()
				pl += time.Since(start)
				b.StartTimer()
			}
			unit := "perlane/lockstep"
			if sh.coupled {
				unit = "thomas3/coupled"
			}
			b.ReportMetric(float64(pl)/float64(ls), unit)
		})
	}
}
