package gpusim

import "testing"

// TestRunBlocksRecordingReleasesScratch pins the executor's memory
// contract: a recording run grows one coalescing slot per dynamic
// global access and one bank slot per tracked shared access, and
// releases both, with the spill list, when it ends, so a cached
// executor holds no slot capacity between recordings.
// Re-recording on the same executor regrows them and yields identical
// Stats.
func TestRunBlocksRecordingReleasesScratch(t *testing.T) {
	const threads, blocks, perThread = 64, 3, 40
	d := GTX480()
	data := make([]float64, blocks*threads*perThread)
	g := NewGlobal(data)
	peakSlots, peakBanks := 0, 0
	body := func(b *Block, peak *int) {
		sh := NewShared[float64](b, 2*threads)
		b.Phase(func(th *Thread) {
			base := (b.ID*threads + th.ID) * perThread
			for i := 0; i < perThread; i++ {
				g.Store(th, base+i, g.Load(th, base+i)+1)
			}
			sh.StoreT(th, 2*th.ID, 1)
			*peak = max(*peak, b.nslots)
		})
	}
	// The executor runs blocks on the caller's goroutine, so kern may
	// track the live slots each thread reached (the phase end empties
	// them) and the bank-slot capacity; Launch runs body concurrently.
	kern := func(b *Block) {
		body(b, &peakSlots)
		peakBanks = max(peakBanks, cap(b.bankSlots))
	}
	e := NewExecutor(d)
	held := func(label string) {
		t.Helper()
		if c, cs, cb := len(e.blk.chunks)*slotChunk, cap(e.blk.spill), cap(e.blk.bankSlots); c != 0 || cs != 0 || cb != 0 {
			t.Fatalf("%s: executor holds %d slot, %d spill and %d bank-slot capacity, want 0", label, c, cs, cb)
		}
	}
	record := func() Stats {
		t.Helper()
		st := Stats{Kernel: "k", Launches: 1, Blocks: blocks, ThreadsPerBlock: threads}
		if err := e.RunBlocksCtx(nil, &st, threads, 0, blocks, kern, "k"); err != nil {
			t.Fatal(err)
		}
		return st
	}

	first := record()
	if peakSlots < 2*perThread || peakBanks < 1 {
		t.Fatalf("recording grew %d slots and %d bank slots, want >= %d and >= 1", peakSlots, peakBanks, 2*perThread)
	}
	held("after recording")
	if second := record(); second != first {
		t.Fatalf("re-recording on a released executor changed Stats:\n%+v\n%+v", second, first)
	}
	held("after re-recording")
	launched, err := d.Launch("k", LaunchConfig{Grid: blocks, Block: threads}, func(b *Block) {
		var peak int
		body(b, &peak)
	})
	if err != nil {
		t.Fatal(err)
	}
	if *launched != first {
		t.Fatalf("recorded Stats differ from Launch:\n%+v\n%+v", first, *launched)
	}
}
