package gpusim

// EstimateTime converts recorded Stats into an estimated kernel
// execution time on the device, in seconds. elemBytes selects the
// arithmetic throughput: 4 uses the single-precision rate, 8 the
// double-precision rate.
//
// The model is deliberately simple and is documented term by term; the
// goal is to reproduce the *structure* the paper argues from, not cycle
// accuracy:
//
//   - Occupancy. Resident blocks per SM follow from the block shape and
//     shared-memory allocation (Device.Occupancy). A grid smaller than
//     the resident capacity leaves SMs idle — the under-utilized regime
//     the paper describes for small M.
//
//   - Memory time. DRAM traffic is Transactions()×TransactionBytes.
//     When enough warps are resident the kernel is bandwidth-bound
//     (bytes / peak bandwidth); with few warps it is latency-bound:
//     Little's law limits throughput to inflight/latency, where the
//     in-flight transaction count grows with active warps. This term
//     produces the flat "latency exposed" region of Figure 12 and its
//     knee once parallelism saturates.
//
//   - Compute time. Recorded flops divided by the precision's peak
//     rate, derated when too few threads are active to fill the
//     pipelines (half of full occupancy is taken as the knee, the
//     usual rule of thumb for Fermi).
//
//   - Shared memory and barriers are charged per access / per barrier,
//     divided over the SMs that actually have work.
//
//   - Each launch pays the fixed driver overhead — the cost that
//     separates Davidson's global-synchronization hybrid (one launch
//     per PCR step) from the paper's single-pass tiled PCR.
//
// On-chip time (compute+shared+barriers) overlaps DRAM traffic on real
// hardware, so the model takes the maximum of the two, plus overheads.
// A silently degraded device (Device.SlowFactor > 1) scales the whole
// estimate uniformly. Every product that feeds a sum is rounded
// explicitly (float64(x*y)), so no compiler fuses a multiply-add and
// the estimate is the same bits on every architecture.
func (d *Device) EstimateTime(s *Stats, elemBytes int) float64 {
	if s.Blocks == 0 || s.ThreadsPerBlock == 0 {
		return float64(s.Launches) * d.KernelLaunchOverhead * d.slow()
	}

	// --- occupancy ---
	blocksPerSM := d.Occupancy(s.ThreadsPerBlock, s.SharedPerBlock)
	if blocksPerSM == 0 {
		blocksPerSM = 1 // a block that overflows SM limits still runs, alone
	}
	residentBlocks := blocksPerSM * d.NumSMs
	activeBlocks := s.Blocks
	if activeBlocks > residentBlocks {
		activeBlocks = residentBlocks
	}
	activeThreads := activeBlocks * s.ThreadsPerBlock
	activeWarps := (activeThreads + d.WarpSize - 1) / d.WarpSize
	activeSMs := activeBlocks
	if activeSMs > d.NumSMs {
		activeSMs = d.NumSMs
	}

	// --- memory time ---
	busBytes := float64(s.TransactionBytes(d.TransactionBytes))
	tBandwidth := busBytes / d.GlobalBandwidth
	const inflightPerWarp = 6 // outstanding transactions a warp sustains
	inflight := activeWarps * inflightPerWarp
	if cap := d.MaxInflightPerSM * activeSMs; inflight > cap {
		inflight = cap
	}
	if inflight < 1 {
		inflight = 1
	}
	tLatency := float64(s.Transactions()) * d.GlobalLatency / float64(inflight)
	tMem := tBandwidth
	if tLatency > tMem {
		tMem = tLatency
	}

	// --- compute time ---
	peak := d.DPFlops
	if elemBytes == 4 {
		peak = d.SPFlops
	}
	knee := float64(d.HardwareParallelism()) / 2
	util := float64(activeThreads) / knee
	if util > 1 {
		util = 1
	}
	tComp := float64(s.Flops) / (peak * util)

	// --- shared memory and barriers ---
	tShared := (float64(float64(s.SharedLoads+s.SharedStores)*d.SharedAccessCost) +
		float64(float64(s.SharedBankConflicts)*d.SharedConflictCost)) / float64(activeSMs)
	tBar := float64(s.Barriers) * d.BarrierCost / float64(activeSMs)

	onChip := tComp + tShared + tBar
	busy := tMem
	if onChip > busy {
		busy = onChip
	}
	return (float64(float64(s.Launches)*d.KernelLaunchOverhead) + busy) * d.slow()
}
