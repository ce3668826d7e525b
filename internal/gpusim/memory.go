package gpusim

import (
	"sync/atomic"

	"gputrid/internal/num"
)

// slotState tracks coalescing for one instruction slot within the
// current phase. Threads execute in ascending tid order, so the warp
// index at a given slot is non-decreasing; when it changes, the
// segments touched by the previous warp are flushed as transactions.
type slotState struct {
	warp  int
	store bool
	segs  []int64 // distinct TransactionBytes-aligned segments, current warp
	ldTx  int64
	stTx  int64
}

func (s *slotState) flush() {
	n := int64(len(s.segs))
	if n == 0 {
		return
	}
	if s.store {
		s.stTx += n
	} else {
		s.ldTx += n
	}
	s.segs = s.segs[:0]
}

// record registers one global-memory access by thread t of element i
// of the array at base with the given element size, running the
// coalescing analysis.
func (b *Block) record(t *Thread, base, elem int64, i int, store bool) {
	addr := base + int64(i)*elem
	bytes := int(elem)
	slotIdx := t.slot
	t.slot++
	if slotIdx >= len(b.slots) {
		b.slots = extendSlots(b.slots, slotIdx+1)
	}
	s := &b.slots[slotIdx]
	warp := t.ID / b.dev.WarpSize
	if warp != s.warp || store != s.store {
		s.flush()
		s.warp = warp
		s.store = store
	}
	tx := int64(b.dev.TransactionBytes)
	for seg := addr / tx; seg <= (addr+int64(bytes)-1)/tx; seg++ {
		found := false
		for _, have := range s.segs {
			if have == seg {
				found = true
				break
			}
		}
		if !found {
			s.segs = append(s.segs, seg)
		}
	}
	if store {
		b.stats.StoredBytes += int64(bytes)
	} else {
		b.stats.LoadedBytes += int64(bytes)
	}
}

// extendSlots lengthens a slot list to n entries. Entries past its
// length were reset when their phase ended, segment or address buffer
// kept, so they are reused before new ones are allocated: a run
// allocates per slot only while its longest thread grows the list. A
// zero entry and a reset one behave the same: either holds no pending
// accesses, so the first access starts its warp without flushing
// anything.
func extendSlots[S any](s []S, n int) []S {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]S, n-cap(s))...)
}

// endPhaseSlots flushes all pending per-slot coalescing state into the
// block stats and resets the slots for the next phase.
func (b *Block) endPhaseSlots() {
	for i := range b.slots {
		s := &b.slots[i]
		s.flush()
		b.stats.LoadTransactions += s.ldTx
		b.stats.StoreTransactions += s.stTx
		s.ldTx, s.stTx = 0, 0
		s.warp = -1
	}
	b.slots = b.slots[:0]
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
