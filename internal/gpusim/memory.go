package gpusim

import (
	"sync/atomic"

	"gputrid/internal/num"
)

// slotState tracks coalescing for one instruction slot within the
// current phase: the group of accesses the slot has seen since its
// warp or direction last changed. Threads execute in ascending tid
// order, so the warp index at a given slot is non-decreasing; when it
// changes, or a load follows a store, the group's distinct segments
// are flushed as transactions into the block's Stats.
//
// The state holds no pointers, so a slot table is memory the garbage
// collector never scans. The first two distinct segments of a group
// live inline, which covers every aligned unit-stride warp access of
// 4- or 8-byte elements at 128-byte transactions; further ones spill
// to the block's shared spill list, newest first.
type slotState struct {
	seg   [2]int64 // the group's first two distinct segments
	warp  int32    // warp of the group
	n     int32    // distinct segments in the group
	spill int32    // head of the group's spill chain (segments 3..n) in Block.spill
	store bool     // direction of the group
}

// spillSeg is one spilled segment: an element of a slot's chain, or of
// the block's free list.
type spillSeg struct {
	seg  int64
	next int32
}

// Slots live in fixed-size chunks, so growing the table never copies
// it: a run allocates one chunk per slotChunk dynamic accesses of its
// longest thread.
const (
	slotChunkShift = 12
	slotChunk      = 1 << slotChunkShift
)

// record registers one global-memory access by thread t of element i
// of the array at base with the given element size, running the
// coalescing analysis.
func (b *Block) record(t *Thread, base, elem int64, i int, store bool) {
	if store {
		b.stats.StoredBytes += elem
	} else {
		b.stats.LoadedBytes += elem
	}
	idx := t.slot
	t.slot++
	if idx >= b.nslots {
		b.growSlots(idx + 1)
	}
	s := &b.chunks[idx>>slotChunkShift][idx&(slotChunk-1)]
	if t.warp != s.warp || store != s.store {
		b.flushSlot(s)
		s.warp, s.store = t.warp, store
	}
	addr := base + int64(i)*elem
	for seg, hi := addr/b.tx, (addr+elem-1)/b.tx; seg <= hi; seg++ {
		b.addSeg(s, seg)
	}
}

// growSlots makes n slots live in the current phase, adding a chunk
// when n passes the table's capacity. Slots past the previous count
// were reset when their phase ended, or are fresh zero ones: either
// holds an empty group, so the first access starts its warp without
// flushing anything.
func (b *Block) growSlots(n int) {
	if n > len(b.chunks)*slotChunk {
		b.chunks = append(b.chunks, new([slotChunk]slotState))
	}
	b.nslots = n
}

// addSeg adds segment seg to s's group unless the group holds it. The
// newest segment is checked first: the threads of a warp walk an
// aligned access in order, so a thread usually hits the segment the
// previous one just added.
func (b *Block) addSeg(s *slotState, seg int64) {
	switch n := s.n; {
	case n == 0:
		s.seg[0], s.n = seg, 1
		return
	case n == 1:
		if s.seg[0] != seg {
			s.seg[1], s.n = seg, 2
		}
		return
	case n == 2:
		if s.seg[1] == seg || s.seg[0] == seg {
			return
		}
	default:
		at := s.spill
		if b.spill[at].seg == seg || s.seg[1] == seg || s.seg[0] == seg {
			return
		}
		for j := int32(3); j < n; j++ {
			at = b.spill[at].next
			if b.spill[at].seg == seg {
				return
			}
		}
	}
	e := spillSeg{seg: seg, next: s.spill}
	if b.nfree > 0 {
		at := b.free
		b.free = b.spill[at].next
		b.nfree--
		b.spill[at] = e
		s.spill = at
	} else {
		b.spill = append(b.spill, e)
		s.spill = int32(len(b.spill) - 1)
	}
	s.n++
}

// flushSlot counts s's group as transactions in the block's Stats,
// returns its spill chain to the free list, and empties it.
func (b *Block) flushSlot(s *slotState) {
	n := s.n
	if n == 0 {
		return
	}
	if s.store {
		b.stats.StoreTransactions += int64(n)
	} else {
		b.stats.LoadTransactions += int64(n)
	}
	if n > 2 {
		tail := s.spill
		for j := int32(3); j < n; j++ {
			tail = b.spill[tail].next
		}
		b.spill[tail].next = b.free
		b.free = s.spill
		b.nfree += n - 2
	}
	s.n = 0
}

// endPhaseSlots flushes every slot the phase used into the block stats,
// leaving each one empty for the next phase.
func (b *Block) endPhaseSlots() {
	for c, left := 0, b.nslots; left > 0; c, left = c+1, left-slotChunk {
		chunk := b.chunks[c][:min(left, slotChunk)]
		for i := range chunk {
			b.flushSlot(&chunk[i])
		}
	}
	b.nslots = 0
}

// releaseSlots drops the block's slot and spill scratch.
func (b *Block) releaseSlots() {
	b.chunks, b.nslots = nil, 0
	b.spill, b.free, b.nfree = nil, 0, 0
	b.bankSlots = nil
}

// Global is a device-global array of T. Loads and stores through it are
// recorded and coalesced; plain Go indexing of the underlying slice is
// not, so kernels must use Load/Store for all global traffic they want
// accounted (host-side setup code may touch Data freely).
//
// Distinct Global arrays are given disjoint simulated address ranges so
// accesses to different arrays never falsely share a transaction.
type Global[T num.Real] struct {
	Data []T
	base int64
	elem int64
}

// globalArena hands out disjoint simulated base addresses.
var globalArena atomic.Int64

// NewGlobal wraps data as a simulated device-global array.
func NewGlobal[T num.Real](data []T) Global[T] {
	elem := int64(num.SizeOf[T]())
	// Keep arrays aligned to 512 bytes and disjoint.
	size := (int64(len(data))*elem+511)&^511 + 512
	base := globalArena.Add(size) - size
	return Global[T]{Data: data, base: base, elem: elem}
}

// Load reads element i, recording a coalesced global load.
func (g Global[T]) Load(t *Thread, i int) T {
	t.blk.record(t, g.base, g.elem, i, false)
	return g.Data[i]
}

// Store writes element i, recording a coalesced global store.
func (g Global[T]) Store(t *Thread, i int, v T) {
	t.blk.record(t, g.base, g.elem, i, true)
	g.Data[i] = v
}

// Len returns the number of elements.
func (g Global[T]) Len() int { return len(g.Data) }

// Shared is block-private scratch memory of element type T, the
// simulated equivalent of CUDA __shared__ arrays. Allocation size is
// charged against the device's per-SM capacity for occupancy.
//
// Two access styles exist. Load/Store (and direct Data indexing with
// Block.CountShared) record traffic only. LoadT/StoreT additionally run
// bank-conflict analysis: accesses issued by the threads of one warp at
// the same instruction slot that map distinct addresses to the same
// bank serialize, and the extra cycles are recorded in
// Stats.SharedBankConflicts — the effect Göddeke & Strzodka's
// conflict-free CR (paper ref. [10]) is designed to eliminate.
type Shared[T num.Real] struct {
	Data []T
	blk  *Block
	id   int32
}

// NewShared allocates an n-element shared array in block b.
func NewShared[T num.Real](b *Block, n int) Shared[T] {
	b.stats.SharedPerBlock += n * num.SizeOf[T]()
	b.sharedSeq++
	return Shared[T]{Data: make([]T, n), blk: b, id: b.sharedSeq}
}

// Load reads element i of the shared array.
func (s Shared[T]) Load(i int) T {
	s.blk.stats.SharedLoads++
	return s.Data[i]
}

// Store writes element i of the shared array.
func (s Shared[T]) Store(i int, v T) {
	s.blk.stats.SharedStores++
	s.Data[i] = v
}

// LoadT reads element i with bank-conflict tracking for thread t.
func (s Shared[T]) LoadT(t *Thread, i int) T {
	s.blk.stats.SharedLoads++
	s.blk.bankAccess(t, s.id, i)
	return s.Data[i]
}

// StoreT writes element i with bank-conflict tracking for thread t.
func (s Shared[T]) StoreT(t *Thread, i int, v T) {
	s.blk.stats.SharedStores++
	s.blk.bankAccess(t, s.id, i)
	s.Data[i] = v
}

// Len returns the number of elements.
func (s Shared[T]) Len() int { return len(s.Data) }

// CountShared records shared-memory traffic in bulk. Kernels with hot
// inner loops may index Shared.Data directly and account for the
// accesses with one call per phase instead of per element; the recorded
// totals are identical.
func (b *Block) CountShared(loads, stores int64) {
	b.stats.SharedLoads += loads
	b.stats.SharedStores += stores
}

// ChargeSharedAlloc charges a shared-memory allocation of the given
// byte size against the block, exactly as NewShared does for the array
// it creates. Kernels that keep their shared buffers in reusable host
// slices (re-bound to a new block each launch, instead of allocated
// fresh via NewShared) use it to keep the occupancy accounting
// identical to the allocate-per-block form.
func (b *Block) ChargeSharedAlloc(bytes int) {
	b.stats.SharedPerBlock += bytes
}
