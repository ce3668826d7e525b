package gpusim

import "testing"

// accessOp is one global-memory instruction of a fuzzed access
// program. Every thread of the block for which it is active issues it
// at its next instruction slot, at element index
// off + tid*stride (or a scattered permutation of tid), of the array
// at byte address base.
type accessOp struct {
	newPhase bool // a barrier precedes the instruction
	store    bool
	scatter  bool // index by a scrambled tid, revisiting segments out of order
	when     byte // which threads issue it: all, even tids, the lower half, tid%3 != 0
	base     int64
	stride   int
	off      int
}

func (op *accessOp) active(tid, threads int) bool {
	switch op.when {
	case 1:
		return tid%2 == 0
	case 2:
		return tid < threads/2
	case 3:
		return tid%3 != 0
	}
	return true
}

func (op *accessOp) index(blk, tid int) int {
	if op.scatter {
		tid = (tid*7919 + blk*31) % 97
	}
	return op.off + blk*3 + tid*op.stride
}

// decodeAccessProgram turns fuzz bytes into at most 48 instructions of
// four bytes each over four arrays with misaligned bases, split into
// phases.
func decodeAccessProgram(raw []byte, misalign uint8) [][]accessOp {
	phases := [][]accessOp{nil}
	for i := 0; i+4 <= len(raw) && i < 4*48; i += 4 {
		c := raw[i]
		op := accessOp{
			newPhase: c&8 != 0,
			store:    c&1 != 0,
			scatter:  c&64 != 0,
			when:     (c >> 4) & 3,
			base:     int64((c>>1)&3)<<20 + int64(misalign)*int64(1+(c>>1)&3),
			stride:   int(raw[i+1] % 40),
			off:      int(raw[i+2]) | int(raw[i+3])<<8,
		}
		if op.newPhase && len(phases[len(phases)-1]) > 0 {
			phases = append(phases, nil)
		}
		phases[len(phases)-1] = append(phases[len(phases)-1], op)
	}
	return phases
}

// referenceCoalescing is the coalescing rule written out naively, with
// maps: per phase and instruction slot, the accesses of consecutive
// threads form one group while their warp and direction stay the same,
// and each group costs one transaction per distinct segment its
// accesses touch.
func referenceCoalescing(phases [][]accessOp, blocks, threads, warp int, tx, elem int64) Stats {
	var st Stats
	type group struct {
		warp  int
		store bool
		segs  map[int64]bool
	}
	flush := func(g *group) {
		if g.store {
			st.StoreTransactions += int64(len(g.segs))
		} else {
			st.LoadTransactions += int64(len(g.segs))
		}
	}
	for blk := 0; blk < blocks; blk++ {
		for _, phase := range phases {
			groups := map[int]*group{}
			for tid := 0; tid < threads; tid++ {
				slot := 0
				for i := range phase {
					op := &phase[i]
					if !op.active(tid, threads) {
						continue
					}
					g := groups[slot]
					if g == nil || g.warp != tid/warp || g.store != op.store {
						if g != nil {
							flush(g)
						}
						g = &group{warp: tid / warp, store: op.store, segs: map[int64]bool{}}
						groups[slot] = g
					}
					addr := op.base + int64(op.index(blk, tid))*elem
					for a := addr; a < addr+elem; a++ {
						g.segs[a/tx] = true
					}
					if op.store {
						st.StoredBytes += elem
					} else {
						st.LoadedBytes += elem
					}
					slot++
				}
			}
			for _, g := range groups {
				flush(g)
			}
			st.Phases++
			st.Barriers++
		}
	}
	return st
}

// FuzzCoalescing runs random access programs through the executor's
// coalescing analyzer and checks the recorded Stats field for field
// against referenceCoalescing: any block size, warp size and
// transaction size (powers of two or not), 4- or 8-byte elements,
// strided, scattered and broadcast accesses at misaligned bases,
// loads and stores mixed at one slot, threads that skip instructions,
// and groups of many segments that spill past the inline pair.
func FuzzCoalescing(f *testing.F) {
	unit := []byte{0, 1, 0, 0, 1, 1, 0, 0}                       // unit-stride load, then store
	strided := []byte{0, 17, 5, 0, 8 | 1, 33, 0, 1, 64, 2, 9, 0} // spills, a phase break, scatter
	mixed := []byte{0, 1, 0, 0, 16 | 1, 1, 0, 0, 32, 39, 3, 0, 48 | 1, 0, 7, 0}
	f.Add(uint8(63), uint8(31), uint16(127), true, uint8(0), unit)
	f.Add(uint8(127), uint8(31), uint16(127), false, uint8(3), strided)
	f.Add(uint8(200), uint8(15), uint16(95), true, uint8(13), mixed)
	f.Add(uint8(40), uint8(7), uint16(2), true, uint8(5), strided)
	f.Fuzz(func(t *testing.T, threads, warp uint8, tx uint16, wide bool, misalign uint8, raw []byte) {
		d := GTX480()
		d.WarpSize = int(warp)%64 + 1
		d.TransactionBytes = int(tx)%512 + 1
		elem := int64(4)
		if wide {
			elem = 8
		}
		nThreads := int(threads) + 1
		const blocks = 2
		phases := decodeAccessProgram(raw, misalign)
		kern := func(b *Block) {
			for _, phase := range phases {
				b.Phase(func(th *Thread) {
					for i := range phase {
						if op := &phase[i]; op.active(th.ID, nThreads) {
							b.record(th, op.base, elem, op.index(b.ID, th.ID), op.store)
						}
					}
				})
			}
		}
		var got Stats
		e := NewExecutor(d)
		if err := e.RunBlocksCtx(nil, &got, nThreads, 0, blocks, kern, "fuzz"); err != nil {
			t.Fatal(err)
		}
		want := referenceCoalescing(phases, blocks, nThreads, d.WarpSize, int64(d.TransactionBytes), elem)
		if got != want {
			t.Fatalf("warp %d, %d-byte transactions, %d-byte elements, %d threads:\nanalyzer  %+v\nreference %+v",
				d.WarpSize, d.TransactionBytes, elem, nThreads, got, want)
		}
	})
}
