package gpusim

// NumBanks is the number of shared-memory banks (Fermi has 32,
// element-granularity in this model: bank = element index mod 32).
const NumBanks = 32

// bankSlotState tracks one shared-memory instruction slot within the
// current phase: for the warp currently issuing, how many *distinct*
// addresses map to each bank. Identical addresses broadcast and do not
// conflict; distinct addresses in one bank serialize, adding
// (degree − 1) extra cycles for the warp.
type bankSlotState struct {
	warp  int
	seen  []bankAddr // distinct (array, index) pairs this warp-slot
	extra int64      // accumulated conflict cycles
}

type bankAddr struct {
	array int32
	index int32
}

func (s *bankSlotState) flush() {
	if len(s.seen) == 0 {
		return
	}
	var perBank [NumBanks]int32
	maxDeg := int32(0)
	for _, a := range s.seen {
		b := a.index % NumBanks
		perBank[b]++
		if perBank[b] > maxDeg {
			maxDeg = perBank[b]
		}
	}
	if maxDeg > 1 {
		s.extra += int64(maxDeg - 1)
	}
	s.seen = s.seen[:0]
}

// bankAccess records a tracked shared-memory access for conflict
// analysis. It mirrors the global-memory coalescing machinery: threads
// run in ascending tid order within a phase, so warp changes are
// monotone and flush the per-warp state.
func (b *Block) bankAccess(t *Thread, array int32, index int) {
	slotIdx := t.bankSlot
	t.bankSlot++
	if slotIdx >= len(b.bankSlots) {
		b.bankSlots = extendSlots(b.bankSlots, slotIdx+1)
	}
	s := &b.bankSlots[slotIdx]
	warp := t.ID / b.dev.WarpSize
	if warp != s.warp {
		s.flush()
		s.warp = warp
	}
	a := bankAddr{array: array, index: int32(index)}
	for _, have := range s.seen {
		if have == a {
			return // broadcast: same address, no conflict contribution
		}
	}
	s.seen = append(s.seen, a)
}

// endPhaseBankSlots flushes pending bank analysis into the stats.
func (b *Block) endPhaseBankSlots() {
	for i := range b.bankSlots {
		s := &b.bankSlots[i]
		s.flush()
		b.stats.SharedBankConflicts += s.extra
		s.extra = 0
		s.warp = -1
	}
	b.bankSlots = b.bankSlots[:0]
}
