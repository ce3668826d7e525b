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
	warp  int32
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
	if t.warp != s.warp {
		s.flush()
		s.warp = t.warp
	}
	a := bankAddr{array: array, index: int32(index)}
	for _, have := range s.seen {
		if have == a {
			return // broadcast: same address, no conflict contribution
		}
	}
	s.seen = append(s.seen, a)
}

// extendSlots lengthens a slot list to n entries. Entries past its
// length were reset when their phase ended, address buffer kept, so
// they are reused before new ones are allocated. A zero entry and a
// reset one behave the same: either holds no pending accesses.
func extendSlots[S any](s []S, n int) []S {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]S, n-cap(s))...)
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
