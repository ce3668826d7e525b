package core

import (
	"math"
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// FuzzTwinAudit draws a pipeline geometry (M, N, k, c, blocks per
// system, workers), a precision, an entry, an input kind, a
// right-hand-side shape and, with brk8 > 0, one operator shared by
// every system but one (shareOperator), empties the recording memo and
// solves twice on one pipeline. The first solve records and the second
// takes the memo's Stats; both run the host twins under the audit,
// which panics if the re-recorded Stats or any output bit of the
// simulated kernels differ, and both must equal SolveReference bit for
// bit. Every case thus checks the twins against the simulated kernels
// the solve's Stats come from, and a shared operator checks the
// replay of a recorded one against both. Toeplitz input shares one
// operator across the whole batch already.
func FuzzTwinAudit(f *testing.F) {
	f.Add(uint8(7), uint16(200), int8(5), uint8(1), uint8(0), uint8(3), false, false, uint8(0), uint8(0))
	f.Add(uint8(40), uint16(64), int8(0), uint8(1), uint8(0), uint8(3), true, true, uint8(1), uint8(0))
	f.Add(uint8(5), uint16(301), int8(3), uint8(2), uint8(3), uint8(2), false, true, uint8(2), uint8(0))
	f.Add(uint8(16), uint16(513), int8(-1), uint8(1), uint8(0), uint8(2), true, false, uint8(3), uint8(0))
	f.Add(uint8(1), uint16(2), int8(8), uint8(4), uint8(4), uint8(1), false, false, uint8(1), uint8(0))
	f.Add(uint8(3), uint16(190), int8(6), uint8(1), uint8(0), uint8(2), false, false, uint8(6), uint8(0))
	f.Add(uint8(33), uint16(97), int8(0), uint8(1), uint8(0), uint8(3), true, true, uint8(11), uint8(0))
	// k8 = 1 pins k = 0, which KAuto never resolves to at the seeds
	// above. These seeds run both k = 0 entries at M = 1, 2, 3, 4, 5
	// and 7, every remainder of the contiguous twin's grouping of
	// systems, with one near-singular and one float32 case.
	for _, e := range []struct {
		m8   uint8
		n16  uint16
		f32  bool
		rhs8 uint8
	}{{0, 5, false, 0}, {1, 64, false, 2}, {2, 131, false, 3}, {3, 38, false, 1}, {4, 257, false, 8}, {6, 95, true, 0}} {
		for _, interleaved := range []bool{false, true} {
			f.Add(e.m8, e.n16, int8(1), uint8(1), uint8(0), uint8(1), e.f32, interleaved, e.rhs8, uint8(0))
		}
	}
	// One operator in every system but system brk8-1, at k = 1, 4 and
	// 6 (k8 = 2, 5, 7) and M = 2, 3 and 40, and on two short systems at
	// k = 2 and 3: the run breaks at the
	// first, a middle and the last system and at the shard boundaries
	// of 2 and 3 workers (40 systems split 20/20 and 14/13/13), in both
	// precisions, on near-singular input too (rhs8 = 8, 10).
	for _, e := range []struct {
		m8, k8, w8, brk8, rhs8 uint8
		n16                    uint16
		f32                    bool
	}{
		{39, 7, 3, 1, 0, 192, false},  // first
		{39, 5, 2, 21, 0, 300, true},  // first of worker 1's shard
		{39, 2, 3, 15, 8, 77, false},  // first of worker 1's shard
		{39, 7, 3, 14, 10, 64, true},  // last of worker 0's shard
		{39, 5, 3, 28, 8, 130, false}, // first of worker 2's shard
		{39, 7, 2, 40, 8, 96, false},  // last
		{2, 5, 1, 2, 0, 33, true},     // middle
		{2, 7, 1, 3, 10, 200, false},  // last
		{1, 2, 1, 2, 0, 17, false},    // last
		{1, 5, 1, 1, 8, 50, true},     // first
		{39, 2, 1, 20, 10, 9, true},   // middle, one worker
		{8, 3, 2, 6, 8, 3, false},     // 9×5 at k = 2, the second shard's first
		{6, 4, 3, 3, 0, 15, true},     // 7×17 at k = 3, the first shard's last
	} {
		f.Add(e.m8, e.n16, int8(e.k8), uint8(1), uint8(0), e.w8, e.f32, false, e.rhs8, e.brk8)
	}
	f.Fuzz(func(t *testing.T, m8 uint8, n16 uint16, k8 int8, c8, g8, w8 uint8, f32, interleaved bool, rhs8, brk8 uint8) {
		m := int(m8%40) + 1
		n := int(n16%600) + 2 // first-row needs a second row
		k := int(k8%10+10)%10 - 1
		cfg := Config{K: k, C: int(c8 % 5), BlocksPerSystem: int(g8 % 5), Workers: int(w8 % 4)}
		rhs := [...]string{"random", "zero", "first-row", "last-row"}[rhs8%4]
		// rhs8 < 4 keeps the diagonally dominant input the first seeds
		// were written for; higher values cycle through the kinds.
		kind := [...]workload.Kind{workload.DiagDominant, workload.Toeplitz, workload.NearSingular}[(rhs8>>2)%3]
		brk := int(brk8) - 1
		if f32 {
			auditFirstSolves[float32](t, cfg, m, n, interleaved, kind, rhs, brk)
		} else {
			auditFirstSolves[float64](t, cfg, m, n, interleaved, kind, rhs, brk)
		}
	})
}

// auditFirstSolves is one FuzzTwinAudit case; brk >= 0 shares an
// operator (shareOperator).
func auditFirstSolves[T num.Real](t *testing.T, cfg Config, m, n int, interleaved bool, kind workload.Kind, rhs string, brk int) {
	t.Helper()
	b := workload.Batch[T](kind, m, n, uint64(m*n))
	rhsShape(b, rhs)
	if brk >= 0 {
		shareOperator(b, brk%m)
	}
	v := b.ToInterleaved()
	ResetRecordMemo()
	p, err := NewPipeline[T](cfg, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := SolveReference(b, p.K())
	for solve := range 2 {
		p.drv.sim = p.drv.sim[:0]
		got := make([]T, m*n)
		if interleaved {
			xi := make([]T, m*n)
			err = p.SolveInterleavedInto(xi, v)
			matrix.DeinterleaveVectorInto(got, xi, m, n)
		} else {
			err = p.SolveInto(got, b)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(p.drv.sim) == 0 {
			t.Fatalf("%+v %dx%d solve %d: the audited host twins did not run", cfg, m, n, solve)
		}
		if i := firstDiff(want, got); i >= 0 {
			t.Fatalf("%+v %dx%d brk %d solve %d: x[%d] = %#x, SolveReference %#x", cfg, m, n, brk, solve, i, num.Bits(got[i]), num.Bits(want[i]))
		}
	}
}

// shareOperator gives every system of b but system brk one operator
// (a, b, c), system 0's, or for brk = 0 the last system's, so that a
// run of equal operators breaks at brk. Every odd system's right-hand
// side becomes all negative zeros and the others keep theirs, so
// replays alternate between data and signed zeros, which they must
// reproduce bit for bit too.
func shareOperator[T num.Real](b *matrix.Batch[T], brk int) {
	n, src := b.N, 0
	if brk == 0 {
		src = b.M - 1
	}
	negZero := T(math.Copysign(0, -1))
	for i := range b.M {
		if i%2 == 1 {
			for j := range n {
				b.RHS[i*n+j] = negZero
			}
		}
		if i == brk || i == src {
			continue
		}
		copy(b.Lower[i*n:(i+1)*n], b.Lower[src*n:(src+1)*n])
		copy(b.Diag[i*n:(i+1)*n], b.Diag[src*n:(src+1)*n])
		copy(b.Upper[i*n:(i+1)*n], b.Upper[src*n:(src+1)*n])
	}
}
