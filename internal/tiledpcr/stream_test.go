package tiledpcr

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pcr"
	"gputrid/internal/workload"
)

// ring retains the most recent values of one streamer level, indexed
// by absolute row index. Reads outside [0, n) return the boundary
// identity row; a read of an index no longer retained panics.
type ring struct {
	buf []pcr.Row[float64]
	n   int // system size, for identity clamping
	hi  int // highest index stored so far
}

func (r *ring) put(i int, v pcr.Row[float64]) {
	r.buf[mod(i, len(r.buf))] = v
	r.hi = max(r.hi, i)
}

func (r *ring) get(i int) pcr.Row[float64] {
	if i < 0 || i >= r.n {
		return pcr.Identity[float64]()
	}
	if i > r.hi || i <= r.hi-len(r.buf) {
		panic(fmt.Sprintf("ring read of index %d outside retained window (hi=%d cap=%d)", i, r.hi, len(r.buf)))
	}
	return r.buf[mod(i, len(r.buf))]
}

func mod(i, m int) int {
	i %= m
	if i < 0 {
		i += m
	}
	return i
}

// streamer is the row-at-a-time sliding window of §III.A, the oracle
// for the Eq. 8-9 redundancy counts: push raw rows in order and it
// emits fully k-step-reduced rows, each exactly once, with the minimal
// dependency cache (level j keeps its newest 2^(j+1)+2 values).
//
// rawStart is the index of the first raw row pushed. For a whole
// system it is -f(k), rows before 0 being pushed as identity rows; for
// an interior tile it is tileStart - f(k), making the first f(k)
// pushed rows the halo whose reduction is the g(k) warm-up redundancy.
type streamer struct {
	k, n     int
	rawStart int
	next     int // raw index of the next Push
	levels   []*ring
	emit     func(i int, row pcr.Row[float64])

	eliminations int64 // pcr.Combine calls, the paper's cost unit
	// warmupElims counts the eliminations of values below warmupBefore,
	// the start of this streamer's useful output range.
	warmupBefore int
	warmupElims  int64
}

func newStreamer(n, k, rawStart int, emit func(i int, row pcr.Row[float64])) *streamer {
	st := &streamer{k: k, n: n, rawStart: rawStart, next: rawStart, emit: emit, warmupBefore: -1 << 30}
	for l := 0; l < k; l++ {
		st.levels = append(st.levels, &ring{buf: make([]pcr.Row[float64], (2<<l)+2), n: n, hi: -1 << 30})
	}
	return st
}

// push feeds raw row st.next; rows outside [0, n) must be identity rows.
func (st *streamer) push(row pcr.Row[float64]) {
	r := st.next
	st.next++
	if st.k == 0 {
		if r >= 0 && r < st.n {
			st.emit(r, row)
		}
		return
	}
	if r >= 0 && r < st.n {
		st.levels[0].put(r, row)
	}
	for j := 1; j <= st.k; j++ {
		i := r - F(j)
		if i < 0 || i >= st.n {
			continue
		}
		// Values whose dependency cone dips below rawStart would be
		// garbage; they are exactly the ones no valid output needs.
		if st.rawStart > -F(st.k) && i < st.rawStart+F(j) {
			continue
		}
		h := 1 << (j - 1)
		lv := st.levels[j-1]
		v := pcr.Combine(lv.get(i-h), lv.get(i), lv.get(i+h))
		st.eliminations++
		if i < st.warmupBefore {
			st.warmupElims++
		}
		if j == st.k {
			st.emit(i, v)
		} else {
			st.levels[j].put(i, v)
		}
	}
}

// streamWhole pushes all of s (normalized), then the f(k) trailing
// identity rows that flush the pipeline.
func streamWhole(s *matrix.System[float64], st *streamer) {
	src := s.Clone()
	pcr.Normalize(src)
	for r := -F(st.k); r < s.N()+F(st.k); r++ {
		st.push(pcr.RowAt(src, r))
	}
}

// streamReduce is the k-step reduction of s in one streaming pass.
func streamReduce(s *matrix.System[float64], k int) *matrix.System[float64] {
	out := matrix.NewSystem[float64](s.N())
	streamWhole(s, newStreamer(s.N(), k, -F(k), func(i int, row pcr.Row[float64]) {
		pcr.SetRow(out, i, row)
	}))
	return out
}

// reduceBlocked reduces s in independent tiles of tileRows output rows
// (Fig. 11(b)), one streamer per tile, and returns the reduced system
// with the work the streamers did: the measurement NaiveTiling's
// closed form must reproduce.
func reduceBlocked(s *matrix.System[float64], k, tileRows int) (*matrix.System[float64], BlockedStats) {
	n := s.N()
	if tileRows <= 0 {
		tileRows = n
	}
	src := s.Clone()
	pcr.Normalize(src)
	out := matrix.NewSystem[float64](n)
	bs := BlockedStats{MinimalLoads: int64(n), MinimalElims: int64(k) * int64(n)}
	for start := 0; start < n; start += tileRows {
		end := min(start+tileRows, n)
		bs.Tiles++
		rawStart := start - F(k)
		st := newStreamer(n, k, rawStart, func(i int, row pcr.Row[float64]) {
			if i >= start && i < end {
				pcr.SetRow(out, i, row)
			}
		})
		st.warmupBefore = start
		for r := rawStart; r < end+F(k); r++ {
			st.push(pcr.RowAt(src, r))
			if r >= 0 && r < n {
				bs.RawLoads++
				if r < start || r >= end {
					bs.RedundantLoads++
				}
			}
		}
		bs.Eliminations += st.eliminations
		bs.WarmupElims += st.warmupElims
	}
	return out, bs
}

// samePlanes requires all four coefficient planes of got and want to
// be equal (MaxAbsDiff, so signs of zero are not compared).
func samePlanes[T num.Real](t *testing.T, label string, got, want *matrix.System[T]) {
	t.Helper()
	for _, pl := range []struct {
		name string
		g, w []T
	}{
		{"lower", got.Lower, want.Lower}, {"diag", got.Diag, want.Diag},
		{"upper", got.Upper, want.Upper}, {"rhs", got.RHS, want.RHS},
	} {
		if d := matrix.MaxAbsDiff(pl.g, pl.w); d != 0 {
			t.Errorf("%s: %s differs from naive PCR by %g", label, pl.name, d)
		}
	}
}

// checkReduceEquivalence requires every schedule of the k-step
// reduction of s (naive, streamed, tiled by tile rows, and the host
// twin production solves run) to produce the same coefficients, and
// NaiveTiling to equal the work the tiled streamers measured.
func checkReduceEquivalence(t *testing.T, s *matrix.System[float64], k, tile int) {
	t.Helper()
	n := s.N()
	want := pcr.Reduce(s, k)
	blocked, measured := reduceBlocked(s, k, tile)
	host := matrix.NewSystem[float64](n)
	NewHostReducer[float64](k).Reduce(s.Lower, s.Diag, s.Upper, s.RHS,
		host.Lower, host.Diag, host.Upper, host.RHS, nil)
	for name, got := range map[string]*matrix.System[float64]{
		"streamed": streamReduce(s, k), "blocked": blocked, "host": host,
	} {
		samePlanes(t, fmt.Sprintf("%s n=%d k=%d tile=%d", name, n, k, tile), got, want)
	}
	if naive := NaiveTiling(n, k, tile); naive != measured {
		t.Errorf("n=%d k=%d tile=%d: NaiveTiling %+v, streamers measured %+v", n, k, tile, naive, measured)
	}
}

func TestF(t *testing.T) {
	want := map[int]int{0: 0, 1: 1, 2: 3, 3: 7, 4: 15, 8: 255}
	for k, w := range want {
		if got := F(k); got != w {
			t.Errorf("F(%d) = %d, want %d", k, got, w)
		}
	}
	if F(-1) != 0 {
		t.Error("F(-1) != 0")
	}
}

func TestG(t *testing.T) {
	// g(k) = k·f(k) − sum_{i=0}^{k} f(i); hand-computed values:
	// g(1) = 1·1 − (0+1) = 0
	// g(2) = 2·3 − (0+1+3) = 2
	// g(3) = 3·7 − (0+1+3+7) = 10
	// g(4) = 4·15 − (0+1+3+7+15) = 34
	want := map[int]int{0: 0, 1: 0, 2: 2, 3: 10, 4: 34}
	for k, w := range want {
		if got := G(k); got != w {
			t.Errorf("G(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestGEqualsWarmupSum(t *testing.T) {
	// g(k) must equal sum_{j=1}^{k} (f(k) − f(j)), the warm-up work of
	// one boundary — the identity that connects Eq. 9 to the pipeline.
	for k := 0; k <= 12; k++ {
		sum := 0
		for j := 1; j <= k; j++ {
			sum += F(k) - F(j)
		}
		if G(k) != sum {
			t.Errorf("k=%d: G=%d, warm-up sum=%d", k, G(k), sum)
		}
	}
}

func TestPropertiesTableI(t *testing.T) {
	// Table I for k=2, c=1: sub tile 4, cache <= 3·2^k, threads 4,
	// elims per thread 2, per sub tile 8.
	p := Properties(2, 1)
	if p.SubTileSize != 4 || p.ThreadsPerBlock != 4 ||
		p.ElimsPerThread != 2 || p.ElimsPerSubTile != 8 {
		t.Errorf("Properties(2,1) = %+v", p)
	}
	if p.CacheSize != 3*F(2) {
		t.Errorf("cache = %d, want %d", p.CacheSize, 3*F(2))
	}
	// Scaling in c.
	p = Properties(3, 4)
	if p.SubTileSize != 32 || p.ElimsPerThread != 12 || p.ElimsPerSubTile != 96 {
		t.Errorf("Properties(3,4) = %+v", p)
	}
	// Cache bound of Table I: 3·sum 2^i <= 3·2^k.
	for k := 1; k <= 10; k++ {
		if Properties(k, 1).CacheSize > 3*(1<<k) {
			t.Errorf("k=%d: cache exceeds 3·2^k", k)
		}
	}
}

func TestSharedBytesFitsGTX480ForTableIII(t *testing.T) {
	// The paper's Table III configurations must fit in 48KB of shared
	// memory in double precision — that is the point of the window.
	for _, k := range []int{5, 6, 7, 8} {
		if got := SharedBytes[float64](k, 1); got > 48*1024 {
			t.Errorf("k=%d: window needs %d bytes shared, exceeds 48KB", k, got)
		}
	}
}

func TestPropertiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Properties(-1, 0) did not panic")
		}
	}()
	Properties(-1, 0)
}

func TestStreamReduceMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {2, 1}, {8, 2}, {16, 3}, {17, 3}, {64, 4}, {100, 3},
		{256, 8}, {300, 5}, {5, 4}, {1000, 6}, {64, 0},
	} {
		s := workload.System[float64](workload.DiagDominant, tc.n, uint64(tc.n*31+tc.k))
		samePlanes(t, fmt.Sprintf("n=%d k=%d: streamed", tc.n, tc.k), streamReduce(s, tc.k), pcr.Reduce(s, tc.k))
	}
}

func TestStreamReduceEliminationCount(t *testing.T) {
	// Whole-system streaming computes every in-range value exactly
	// once: k·n eliminations.
	n, k := 128, 4
	st := newStreamer(n, k, -F(k), func(int, pcr.Row[float64]) {})
	streamWhole(workload.System[float64](workload.DiagDominant, n, 1), st)
	if st.eliminations != int64(k*n) {
		t.Errorf("eliminations = %d, want %d", st.eliminations, k*n)
	}
}

func TestStreamerEmitsEachRowOnceInOrder(t *testing.T) {
	n, k := 75, 3
	seen := make([]int, n)
	last := -1
	st := newStreamer(n, k, -F(k), func(i int, _ pcr.Row[float64]) {
		if i <= last {
			t.Fatalf("emit out of order: %d after %d", i, last)
		}
		last = i
		seen[i]++
	})
	streamWhole(workload.System[float64](workload.DiagDominant, n, 2), st)
	for i, c := range seen {
		if c != 1 {
			t.Errorf("row %d emitted %d times", i, c)
		}
	}
}

func TestReduceBlockedMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ n, k, tile int }{
		{64, 2, 16}, {64, 3, 8}, {128, 4, 32}, {100, 3, 33}, {256, 5, 64},
		{50, 2, 50}, {31, 3, 10},
	} {
		s := workload.System[float64](workload.DiagDominant, tc.n, uint64(tc.n*7+tc.k))
		checkReduceEquivalence(t, s, tc.k, tc.tile)
	}
}

func TestReduceBlockedRedundancyMatchesEq89(t *testing.T) {
	// Interior boundaries must cost exactly f(k) halo loads per side
	// and g(k) warm-up eliminations, the quantities of Eq. 8 and Eq. 9,
	// both as the streamers measure them and in NaiveTiling's closed
	// form.
	for _, k := range []int{1, 2, 3, 4} {
		n, tile := 1024, 128
		_, bs := reduceBlocked(workload.System[float64](workload.DiagDominant, n, uint64(k)), k, tile)
		if naive := NaiveTiling(n, k, tile); naive != bs {
			t.Errorf("k=%d: NaiveTiling %+v, measured %+v", k, naive, bs)
		}
		if bs.Tiles != n/tile {
			t.Fatalf("k=%d: tiles = %d", k, bs.Tiles)
		}
		// All tiles interior except the first: (tiles-1)·g(k).
		if want := int64(bs.Tiles-1) * int64(G(k)); bs.WarmupElims != want {
			t.Errorf("k=%d: warm-up elims %d, want %d", k, bs.WarmupElims, want)
		}
		// Each side of an interior boundary re-reads f(k) rows of its
		// neighbour.
		if want := int64(bs.Tiles-1) * 2 * int64(F(k)); bs.RedundantLoads != want {
			t.Errorf("k=%d: redundant loads %d, want %d", k, bs.RedundantLoads, want)
		}
	}
}

func TestReduceBlockedSingleTileNoRedundancy(t *testing.T) {
	_, bs := reduceBlocked(workload.System[float64](workload.DiagDominant, 200, 4), 3, 0) // tileRows <= 0: one tile
	want := BlockedStats{Tiles: 1, RawLoads: 200, Eliminations: 600, MinimalLoads: 200, MinimalElims: 600}
	if bs != want || NaiveTiling(200, 3, 0) != want {
		t.Errorf("single tile: measured %+v, NaiveTiling %+v, want %+v", bs, NaiveTiling(200, 3, 0), want)
	}
}

func TestStreamReduceProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint16, kRaw, tileRaw uint8) bool {
		n := int(nRaw)%400 + 1
		k := int(kRaw)%6 + 1
		tile := int(tileRaw)%n + 1
		checkReduceEquivalence(t, workload.System[float64](workload.DiagDominant, n, uint64(seed)), k, tile)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzStreamedEqualsNaive runs checkReduceEquivalence over random
// diagonally dominant systems, depths and tile sizes.
func FuzzStreamedEqualsNaive(f *testing.F) {
	f.Add(uint32(5), uint8(33), uint8(3), uint8(10))
	f.Add(uint32(11), uint8(255), uint8(6), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint32, nRaw, kRaw, tileRaw uint8) {
		n := int(nRaw)%300 + 1
		k := int(kRaw)%7 + 1
		tile := int(tileRaw)%n + 1
		r := num.NewRNG(uint64(seed) + 2)
		s := matrix.NewSystem[float64](n)
		for j := 0; j < n; j++ {
			var a, c float64
			if j > 0 {
				a = r.Range(-1, 1)
			}
			if j < n-1 {
				c = r.Range(-1, 1)
			}
			s.Lower[j], s.Upper[j] = a, c
			s.Diag[j] = math.Abs(a) + math.Abs(c) + r.Range(0.5, 1.5)
			s.RHS[j] = r.Range(-10, 10)
		}
		checkReduceEquivalence(t, s, k, tile)
	})
}
