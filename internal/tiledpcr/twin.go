package tiledpcr

import (
	"fmt"
	"math"

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
	pad  []T          // Replay's two level buffers, sized by NewPlan
}

// Plan records the operator half of one system's reduction: the
// multipliers k1 and k2 (pcr.Multipliers) of every combine Reduce runs,
// per level and position, the rows past the system's ends included.
// They depend on (a, b, c) alone, so Replay recomputes the reduced d
// of any right-hand side from them, bit for bit what Reduce would
// store, without a division.
//
// Level j's positions [f(j)-f(k), n+f(k)-f(j)) are stored in order,
// one level after another; the constant rows among them (see
// HostReducer) have no multipliers and their slots stay unused.
type Plan[T num.Real] struct {
	n      int
	off    []int // level j's span is [off[j-1], off[j])
	k1, k2 []T
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

// NewPlan allocates a plan for systems of n rows, 2k(n + 2^(k+1))
// elements at most, and sizes h's Replay buffers for them. New buffers
// start as NaN, so a slot Replay read before writing would poison its
// output rather than pass for a constant row's zero.
func (h *HostReducer[T]) NewPlan(n int) *Plan[T] {
	fk, off := F(h.k), make([]int, h.k+1)
	for j := 1; j <= h.k; j++ {
		off[j] = off[j-1] + n + 2*(fk-F(j))
	}
	if w := 2 * (n + 2*fk); len(h.pad) < w {
		h.pad = make([]T, w)
		for i := range h.pad {
			h.pad[i] = T(math.NaN())
		}
	}
	return &Plan[T]{n: n, off: off, k1: make([]T, off[h.k]), k2: make([]T, off[h.k])}
}

// record stores the multipliers of level j's combines at positions
// [lo, hi), which read the ring src (mask sm) at i-s, i, i+s: position
// i at i+rel of the level's span. They are the quotients those combines
// divided by, recomputed from the same rows, so Reduce's combine loops
// are the same whether it records or not.
func (pl *Plan[T]) record(j, rel int, src []pcr.Row[T], sm, s, lo, hi int) {
	k1, k2 := pl.k1[pl.off[j-1]:pl.off[j]], pl.k2[pl.off[j-1]:pl.off[j]]
	for i := lo; i < hi; i++ {
		k1[i+rel], k2[i+rel] = pcr.Multipliers(src[(i-s)&sm], src[i&sm], src[(i+s)&sm])
	}
}

// Reduce writes the k-level reduction of the system (a, b, c, d) to
// (oa, ob, oc, od). All eight slices hold n = len(b) rows, and the
// outputs must not alias the inputs. Lower[0] and Upper[n-1] are read
// as zero, as the kernel's loads normalize them. A non-nil pl, made by
// NewPlan for n rows, records the multipliers of every combine.
//
//tridlint:hotpath
func (h *HostReducer[T]) Reduce(a, b, c, d, oa, ob, oc, od []T, pl *Plan[T]) {
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
		// constant c_j. The plan stores level j's row i at i+f(k)-f(j)
		// of its level's span.
		for j, s := 1, 1; j <= k; j, s = j+1, s<<1 {
			src, sm := lv, m
			fj := F(j)
			lo, hi := max(r0-fj, fj-fk), min(r0+hostTile-fj, n+fk-fj)
			if j == k {
				for i := lo; i < hi; i++ {
					v := pcr.Combine(src[(i-s)&sm], src[i&sm], src[(i+s)&sm])
					oa[i], ob[i], oc[i], od[i] = v.A, v.B, v.C, v.D
				}
				if pl != nil {
					pl.record(j, fk-fj, src, sm, s, lo, hi)
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
			if pl != nil {
				pl.record(j, fk-fj, src, sm, s, dlo, dhi)
			}
			for i := max(dlo, dhi); i < hi; i++ {
				lv[i&m] = cj
			}
		}
	}
}

// Replay writes to od the reduced right-hand side that Reduce, given
// the system pl recorded with the right-hand side d, would store in its
// od, bit for bit: each combine's D from the recorded multipliers, in
// the same operations, each product rounded as pcr.Combine rounds it.
// It runs level by level over the plan's spans, the constant rows
// taking c_j's D, in h's buffers; d and od hold pl's n rows and must
// not alias.
//
//tridlint:hotpath
func (h *HostReducer[T]) Replay(pl *Plan[T], d, od []T) {
	k, n, fk := h.k, pl.n, F(h.k)
	w := n + 2*fk
	in, out := h.pad[:w], h.pad[w:2*w]
	// Level 0 spans [-f(k), n+f(k)): d padded with the identity's D.
	for t := range fk {
		in[t], in[fk+n+t] = h.halo[0].D, h.halo[0].D
	}
	copy(in[fk:fk+n], d[:n])
	// Level j's row at slot t of its span reads level j-1's slots t,
	// t+s and t+2s; it is constant below slot f(k)-2f(j) and from slot
	// n+f(k) on.
	for j, s := 1, 1; j <= k; j, s = j+1, s<<1 {
		fj := F(j)
		span := n + 2*(fk-fj)
		o := out[:span]
		if j == k {
			o = od[:n]
		}
		k1, k2 := pl.k1[pl.off[j-1]:pl.off[j]], pl.k2[pl.off[j-1]:pl.off[j]]
		src := in[:span+2*s]
		dlo, dhi := min(max(fk-2*fj, 0), span), min(n+fk, span)
		cj := h.halo[j].D
		for t := 0; t < dlo; t++ {
			o[t] = cj
		}
		run := o[dlo:dhi]
		up, mid, dn := src[dlo:][:len(run)], src[dlo+s:][:len(run)], src[dlo+2*s:][:len(run)]
		m1, m2 := k1[dlo:][:len(run)], k2[dlo:][:len(run)]
		for t := range run {
			run[t] = mid[t] - T(up[t]*m1[t]) - T(dn[t]*m2[t])
		}
		for t := dhi; t < span; t++ {
			o[t] = cj
		}
		in, out = o, in
	}
}
