package gpusim

import (
	"fmt"
	"runtime"
	"sync"
)

// LaunchConfig shapes a kernel launch: a 1-D grid of Grid blocks, each
// with Block threads.
type LaunchConfig struct {
	Grid  int
	Block int
}

// Kernel is the body executed by every thread block of a launch. It
// receives the block context, from which it runs lockstep phases and
// allocates shared memory.
type Kernel func(b *Block)

// Launch executes the kernel over the grid, functionally, and returns
// the recorded Stats. It is a parallel driver over Executors: the grid
// is cut into one contiguous, ascending shard per worker (up to
// GOMAXPROCS), each worker records its shard into its own Stats, and
// the shards merge through Stats.Accumulate. The returned stats are
// deterministic.
//
// With an injector attached, Launch first asks FaultSite.First about
// the whole grid at attempt 0. A faulted launch runs no block and
// returns the lowest faulted block's *LaunchError, so its output
// buffers are exactly as the caller left them.
//
// name tags the Stats. The launch itself counts as one kernel launch.
func (d *Device) Launch(name string, cfg LaunchConfig, k Kernel) (*Stats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if cfg.Grid <= 0 || cfg.Block <= 0 {
		return nil, fmt.Errorf("gpusim: launch %q: invalid config %+v", name, cfg)
	}
	if cfg.Block > d.MaxThreadsPerBlock {
		return nil, fmt.Errorf("gpusim: launch %q: %d threads/block exceeds device limit %d",
			name, cfg.Block, d.MaxThreadsPerBlock)
	}
	if le := (FaultSite{Inj: d.Faults, Kernel: name}).First(0, cfg.Grid); le != nil {
		return nil, le
	}
	workers := min(runtime.GOMAXPROCS(0), cfg.Grid)
	parts := make([]Stats, workers)
	errs := make([]error, workers)
	shard := func(w int) {
		lo, hi := w*cfg.Grid/workers, (w+1)*cfg.Grid/workers
		errs[w] = NewExecutor(d).RunBlocksCtx(nil, &parts[w], cfg.Block, lo, hi-lo, k, name)
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			shard(w)
		}()
	}
	shard(0)
	wg.Wait()

	total := &Stats{Kernel: name, Launches: 1, Blocks: cfg.Grid, ThreadsPerBlock: cfg.Block}
	for w := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		total.Accumulate(&parts[w])
	}
	return total, nil
}

// Block is the per-thread-block execution context handed to kernels.
type Block struct {
	ID      int
	Threads int

	dev   *Device
	stats *Stats
	tx    int64 // the device's TransactionBytes

	// The coalescing analyzer's scratch (memory.go): the slot table,
	// nslots of it live in the current phase, and the spill list with
	// its free list of nfree entries headed at free.
	chunks      []*[slotChunk]slotState
	nslots      int
	spill       []spillSeg
	free, nfree int32

	bankSlots []bankSlotState
	sharedSeq int32
	// thread is the Thread context Phase/PhaseNoSync hand to every
	// tid in turn. It lives in the Block (rather than on the Phase
	// stack frame) because &thread is passed to an opaque func value,
	// which would otherwise force a heap allocation per phase.
	thread Thread
}

// Thread identifies one thread within a phase. It carries its warp
// index and the instruction-slot cursors used for coalescing and
// bank-conflict analysis.
type Thread struct {
	ID       int // tid within the block
	blk      *Block
	warp     int32
	slot     int
	bankSlot int
}

// Phase runs body for every thread of the block in lockstep-equivalent
// order (tid 0..Threads-1) and then executes a block-wide barrier,
// mirroring the "compute; __syncthreads()" structure of the CUDA
// kernels in the paper. Global accesses issued at the same instruction
// slot by threads of one warp are coalesced.
func (b *Block) Phase(body func(t *Thread)) {
	t := &b.thread
	t.blk = b
	for tid := 0; tid < b.Threads; tid++ {
		t.ID = tid
		t.warp = int32(tid / b.dev.WarpSize)
		t.slot = 0
		t.bankSlot = 0
		body(t)
	}
	b.endPhaseSlots()
	b.endPhaseBankSlots()
	b.stats.Phases++
	b.stats.Barriers++
}

// PhaseNoSync is Phase without the trailing barrier, for the final
// phase of a kernel (CUDA kernels need no __syncthreads before exit).
func (b *Block) PhaseNoSync(body func(t *Thread)) {
	t := &b.thread
	t.blk = b
	for tid := 0; tid < b.Threads; tid++ {
		t.ID = tid
		t.warp = int32(tid / b.dev.WarpSize)
		t.slot = 0
		t.bankSlot = 0
		body(t)
	}
	b.endPhaseSlots()
	b.endPhaseBankSlots()
	b.stats.Phases++
}

// Eliminations records n PCR elimination steps (the paper's unit of
// computational cost) performed by the calling thread, charging the
// PCR per-step flop count.
func (t *Thread) Eliminations(n int) {
	t.blk.stats.Eliminations += int64(n)
	t.blk.stats.Flops += int64(n) * FlopsPerElimination
}

// ThomasSteps records n Thomas-recurrence steps (forward or backward
// rows), which are elimination steps in the paper's accounting but
// carry a much lighter flop cost than a PCR row update.
func (t *Thread) ThomasSteps(n int) {
	t.blk.stats.Eliminations += int64(n)
	t.blk.stats.Flops += int64(n) * FlopsPerThomasStep
}

// Flops records n raw floating-point operations not tied to an
// elimination step.
func (t *Thread) Flops(n int) {
	t.blk.stats.Flops += int64(n)
}

// FlopsPerElimination is the flop cost charged per PCR elimination
// step: one row update (Eqs. 5-6) is 2 divisions, 8 multiplications and
// 6 subtractions ≈ 16 flops with division weighted.
const FlopsPerElimination = 16

// FlopsPerThomasStep is the flop cost of one Thomas forward or backward
// row: about 1 division plus 2 multiply-adds ≈ 6 weighted flops.
const FlopsPerThomasStep = 6
