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
// Only the combines that read data run. Level j's row at i reads raw
// rows [i-f(j), i+f(j)]; when all of them are padding (i < -f(j) or
// i > n-1+f(j)) the row is the same constant c_j everywhere, with
// c_0 the identity and c_j = Combine(c_{j-1}, c_{j-1}, c_{j-1}), since
// its three operands are such rows of level j-1. Those are the values
// the window computes there, signed zeros included, so Reduce stores
// c_j instead of recomputing it per position and per system.
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
	off  []int        // level l's ring is ring[off[l]:off[l+1]]
	halo []pcr.Row[T] // halo[j] is c_j, level j's row beyond the system
}

// hostTile is the number of raw rows HostReducer takes per tile.
const hostTile = 64

// NewHostReducer allocates the rings for depth k >= 1 and computes the
// halo constants c_1..c_k.
func NewHostReducer[T num.Real](k int) *HostReducer[T] {
	if k < 1 {
		panic(fmt.Sprintf("tiledpcr: NewHostReducer requires k >= 1, got %d", k))
	}
	off := make([]int, k+1)
	for l := 0; l < k; l++ {
		off[l+1] = off[l] + num.NextPow2(hostTile+2<<l)
	}
	halo := make([]pcr.Row[T], k+1)
	halo[0] = pcr.Identity[T]()
	for j := 1; j <= k; j++ {
		halo[j] = pcr.Combine(halo[j-1], halo[j-1], halo[j-1])
	}
	return &HostReducer[T]{k: k, ring: make([]pcr.Row[T], off[k]), off: off, halo: halo}
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
		for r := r0; r < min(r0+hostTile, n+fk); r++ {
			row := h.halo[0]
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
		// i-s, i, i+s (s = 2^(j-1)), all written by now. Only rows in
		// [f(j)-f(k), n+f(k)-f(j)) feed a level-k row of the system.
		// Outside [-f(j), n+f(j)) a row reads padding alone and is the
		// constant c_j.
		for j, s := 1, 1; j <= k; j, s = j+1, s<<1 {
			src, sm := lv, m
			fj := F(j)
			lo, hi := max(r0-fj, fj-fk), min(r0+hostTile-fj, n+fk-fj)
			if j == k {
				for i := lo; i < hi; i++ {
					v := pcr.Combine(src[(i-s)&sm], src[i&sm], src[(i+s)&sm])
					oa[i], ob[i], oc[i], od[i] = v.A, v.B, v.C, v.D
				}
				break
			}
			lv = h.ring[h.off[j]:h.off[j+1]]
			m = len(lv) - 1
			cj := h.halo[j]
			dlo, dhi := max(lo, min(hi, -fj)), min(hi, n+fj)
			for i := lo; i < dlo; i++ {
				lv[i&m] = cj
			}
			for i := dlo; i < dhi; i++ {
				lv[i&m] = pcr.Combine(src[(i-s)&sm], src[i&sm], src[(i+s)&sm])
			}
			for i := max(dlo, dhi); i < hi; i++ {
				lv[i&m] = cj
			}
		}
	}
}
