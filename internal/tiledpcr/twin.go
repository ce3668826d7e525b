package tiledpcr

import (
	"fmt"

	"gputrid/internal/num"
	"gputrid/internal/pcr"
)

// HostReducer is the host twin of the tiled-PCR kernel: it reduces one
// system by k PCR levels straight from and into plain slices, with no
// simulated block, computing bit for bit the rows the Window stores.
//
// Bitwise identity needs the window's exact schedule, not just its
// result. The window pads the system with identity rows and combines
// every position of every level its sliding tile covers, the virtual
// rows beyond either end included. So the rows just outside the system
// hold combined values, not exact identities, and they can differ from
// an identity row in the sign of a zero coefficient (pcr.Reduce reads
// true identity rows there). HostReducer computes level j at every
// position that a level-k row of the system depends on,
// [-(f(k)-f(j)), n-1+f(k)-f(j)], from the same padding through the same
// pcr.Combine calls. Each output row therefore sees the operands the
// kernel gave it, whatever the block split. The dependency-cone
// argument of §III.A is what makes the split irrelevant.
//
// Rows stream through in tiles of hostTile raw rows. Within a tile
// every level runs over all its fresh positions before the next level
// starts, so consecutive eliminations are independent and their
// divisions overlap; position by position, each level would wait on
// the one below. Level l keeps its newest values in a power-of-two
// ring large enough for one tile plus the 2^(l+1) older values the
// next level reads, O(2^k) rows in all, so a system of any length
// reduces in cache.
type HostReducer[T num.Real] struct {
	k    int
	ring []pcr.Row[T]
	off  []int // level l's ring is ring[off[l]:off[l+1]]
}

// hostTile is the number of raw rows HostReducer takes per tile.
const hostTile = 64

// NewHostReducer allocates the rings for depth k >= 1.
func NewHostReducer[T num.Real](k int) *HostReducer[T] {
	if k < 1 {
		panic(fmt.Sprintf("tiledpcr: NewHostReducer requires k >= 1, got %d", k))
	}
	off := make([]int, k+1)
	for l := 0; l < k; l++ {
		off[l+1] = off[l] + num.NextPow2(hostTile+2<<l)
	}
	return &HostReducer[T]{k: k, ring: make([]pcr.Row[T], off[k]), off: off}
}

// Reduce writes the k-level reduction of the system (a, b, c, d) to
// (oa, ob, oc, od). All eight slices hold n = len(b) rows, and the
// outputs must not alias the inputs. Lower[0] and Upper[n-1] are read
// as zero, as the kernel's loads normalize them.
//
//tridlint:hotpath
func (h *HostReducer[T]) Reduce(a, b, c, d, oa, ob, oc, od []T) {
	k, n, fk := h.k, len(b), F(h.k)
	a, c, d = a[:n], c[:n], d[:n]
	oa, ob, oc, od = oa[:n], ob[:n], oc[:n], od[:n]
	for r0 := -fk; r0 < n+fk; r0 += hostTile {
		lv := h.ring[:h.off[1]]
		m := len(lv) - 1
		for r := r0; r < r0+hostTile; r++ {
			row := pcr.Identity[T]()
			if r >= 0 && r < n {
				row.A, row.B, row.C, row.D = a[r], b[r], c[r], d[r]
				if r == 0 {
					row.A = 0
				}
				if r == n-1 {
					row.C = 0
				}
			}
			lv[r&m] = row
		}
		// Level j lags the raw rows by f(j): this tile's level-j rows
		// are [r0-f(j), r0+hostTile-f(j)), each reading level j-1 at
		// i-s, i, i+s (s = 2^(j-1)), all written by now. Rows below
		// f(j)-f(k) feed no level-k row of the system.
		for j, s := 1, 1; j <= k; j, s = j+1, s<<1 {
			src, sm := lv, m
			lo, hi := max(r0-F(j), F(j)-fk), r0+hostTile-F(j)
			if j == k {
				for i := lo; i < min(hi, n); i++ {
					v := pcr.Combine(src[(i-s)&sm], src[i&sm], src[(i+s)&sm])
					oa[i], ob[i], oc[i], od[i] = v.A, v.B, v.C, v.D
				}
				break
			}
			lv = h.ring[h.off[j]:h.off[j+1]]
			m = len(lv) - 1
			for i := lo; i < hi; i++ {
				lv[i&m] = pcr.Combine(src[(i-s)&sm], src[i&sm], src[(i+s)&sm])
			}
		}
	}
}
