// Package tiledpcr implements the paper's central contribution: tiled
// parallel cyclic reduction with the buffered sliding window (§III.A).
//
// k-step PCR transforms a system of N rows into 2^k independent
// interleaved subsystems. Done naively over tiles, every tile boundary
// costs f(k) redundant halo loads and g(k) redundant elimination steps
// (paper Eq. 8-9, Fig. 7). The buffered sliding window instead streams
// the system through shared memory once, caching exactly the
// intermediate values that later rows depend on, so no load and no
// elimination is ever repeated (Figs. 8-10, Table I).
//
// The production form is Window, the gpusim kernel building block with
// the shared-memory layout of Figs. 9-10 (history caches + staging +
// register tile), together with HostReducer, its plain-Go twin that
// computes bit for bit the same rows and can record a system's
// multipliers in a Plan to replay them for a new right-hand side. NaiveTiling counts, in closed
// form, the work the window avoids: the Fig. 11(b) split of a system
// into independent tiles that each pay the halo redundancy.
package tiledpcr

import "gputrid/internal/num"

// F returns f(k) = sum_{i=0}^{k-1} 2^i = 2^k - 1, the number of
// redundant memory accesses per tile boundary of naively tiled k-step
// PCR (paper Eq. 8). It is also the pipeline lag of the sliding
// window: level-k output i becomes computable once raw row i + f(k)
// has been loaded.
func F(k int) int {
	if k <= 0 {
		return 0
	}
	return (1 << k) - 1
}

// G returns g(k) = k·f(k) − sum_{i=0}^{k} f(i), the number of redundant
// elimination steps per tile boundary of naive tiling (paper Eq. 9).
func G(k int) int {
	if k <= 0 {
		return 0
	}
	sum := 0
	for i := 0; i <= k; i++ {
		sum += F(i)
	}
	return k*F(k) - sum
}

// BlockedStats is the work of naively tiled k-step PCR (Fig. 7): a
// system split into independent tiles that each re-read a halo of
// neighbouring rows and re-run the eliminations those rows feed.
type BlockedStats struct {
	Tiles          int
	RawLoads       int64 // raw rows read, halo re-reads included
	RedundantLoads int64 // halo rows, outside the reading tile's own output range
	Eliminations   int64 // pcr.Combine calls
	WarmupElims    int64 // eliminations of values below each tile's start
	MinimalLoads   int64 // n: the sliding window's load count
	MinimalElims   int64 // k·n: the sliding window's elimination count
}

// NaiveTiling returns the work of reducing an n-row system by k PCR
// steps in independent tiles of tileRows output rows (tileRows <= 0
// means one tile). A tile [s, e) loads its own rows plus a halo of
// min(f(k), s) rows below and min(f(k), n-e) above (Eq. 8). It computes
// level j on its own rows plus the min(room, f(k)-f(j)) rows on either
// side that its level-k rows depend on; summed over the levels, a
// margin with room for all of them costs g(k) (Eq. 9). One tile is the
// sliding window's schedule: n loads and k·n eliminations.
func NaiveTiling(n, k, tileRows int) BlockedStats {
	if tileRows <= 0 {
		tileRows = n
	}
	fk := F(k)
	margin := func(room int) int64 {
		g := 0
		for j := 1; j <= k; j++ {
			g += min(room, fk-F(j))
		}
		return int64(g)
	}
	bs := BlockedStats{MinimalLoads: int64(n), MinimalElims: int64(k) * int64(n)}
	for start := 0; start < n; start += tileRows {
		end := min(start+tileRows, n)
		bs.Tiles++
		bs.RedundantLoads += int64(min(fk, start) + min(fk, n-end))
		bs.WarmupElims += margin(start)
		bs.Eliminations += margin(start) + margin(n-end)
	}
	bs.RawLoads = bs.MinimalLoads + bs.RedundantLoads
	bs.Eliminations += bs.MinimalElims
	return bs
}

// WindowProperties are the derived quantities of paper Table I for a
// k-step window with sub-tile scale factor c >= 1.
type WindowProperties struct {
	K                     int // PCR steps
	C                     int // sub-tile scale factor
	SubTileSize           int // c·2^k rows processed per pipeline advance
	CacheSize             int // intermediate-results cache capacity, <= 3·2^k
	ThreadsPerBlock       int // 2^k
	ElimsPerThread        int // c·k per sub-tile
	ElimsPerSubTile       int // c·k·2^k
	SharedElemsPerCoeff   int // staging + caches, elements per coefficient array
	SharedBytesPerElement int // multiply by elem size and 4 coefficients for bytes
}

// Properties returns the Table I quantities for (k, c).
func Properties(k, c int) WindowProperties {
	if k < 0 || c < 1 {
		panic("tiledpcr: Properties requires k >= 0 and c >= 1")
	}
	sub := c << k
	p := WindowProperties{
		K:               k,
		C:               c,
		SubTileSize:     sub,
		CacheSize:       3 * F(k),
		ThreadsPerBlock: 1 << k,
		ElimsPerThread:  c * k,
		ElimsPerSubTile: c * k << k,
	}
	// Our window's concrete layout: one staging buffer of 2^k + sub + 1
	// elements plus per-level history caches totalling 2·f(k) + k
	// elements (level j keeps its newest 2^(j+1)+1 values — the extra
	// element per level is the paper's alignment margin), per
	// coefficient array. See Window for the derivation.
	p.SharedElemsPerCoeff = (1 << k) + sub + 1 + histTotal(k)
	p.SharedBytesPerElement = 4 * p.SharedElemsPerCoeff
	return p
}

// histTotal returns the summed capacity of the per-level history
// caches: sum_{j=0}^{k-1} (2^(j+1) + 1) = 2·f(k) + k.
func histTotal(k int) int {
	return 2*F(k) + k
}

// SharedBytes returns the shared-memory footprint of one window block
// for element type T.
func SharedBytes[T num.Real](k, c int) int {
	return Properties(k, c).SharedBytesPerElement * num.SizeOf[T]()
}
