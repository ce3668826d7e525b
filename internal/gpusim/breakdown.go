package gpusim

import "fmt"

// Breakdown decomposes an EstimateTime result into its model terms, so
// the harness can report not just how long a kernel takes but what it
// is bound by — the vocabulary of the paper's performance discussion
// (bandwidth-bound back-end, latency-exposed small batches,
// launch-dominated Davidson global phase, ...).
type Breakdown struct {
	Total     float64
	Launch    float64 // kernel-launch overhead
	Bandwidth float64 // DRAM bytes / peak bandwidth
	Latency   float64 // Little's-law latency bound
	Compute   float64 // flops / derated peak
	Shared    float64 // shared traffic + bank conflicts
	Barrier   float64
	Bound     string // the binding constraint: "bandwidth", "latency", "compute", "shared", "launch"
}

// EstimateBreakdown returns the termwise decomposition of the cost
// model for the given stats; its Total is EstimateTime. elemBytes
// selects the arithmetic throughput: 4 uses the single-precision rate,
// 8 the double-precision rate.
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
// A silently degraded device (Device.SlowFactor > 1) scales every term
// uniformly, so the binding constraint is unchanged by a silent
// slowdown. Every product that feeds a sum is rounded explicitly
// (float64(x*y)), so no compiler fuses a multiply-add and the estimate
// is the same bits on every architecture.
func (d *Device) EstimateBreakdown(s *Stats, elemBytes int) Breakdown {
	bd := Breakdown{}
	bd.Launch = float64(float64(s.Launches) * d.KernelLaunchOverhead)
	if s.Blocks == 0 || s.ThreadsPerBlock == 0 {
		bd.Launch *= d.slow()
		bd.Total = bd.Launch
		bd.Bound = "launch"
		return bd
	}

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

	bd.Bandwidth = float64(s.TransactionBytes(d.TransactionBytes)) / d.GlobalBandwidth
	const inflightPerWarp = 6 // outstanding transactions a warp sustains
	inflight := activeWarps * inflightPerWarp
	if cap := d.MaxInflightPerSM * activeSMs; inflight > cap {
		inflight = cap
	}
	if inflight < 1 {
		inflight = 1
	}
	bd.Latency = float64(s.Transactions()) * d.GlobalLatency / float64(inflight)

	peak := d.DPFlops
	if elemBytes == 4 {
		peak = d.SPFlops
	}
	knee := float64(d.HardwareParallelism()) / 2
	util := float64(activeThreads) / knee
	if util > 1 {
		util = 1
	}
	bd.Compute = float64(s.Flops) / (peak * util)
	bd.Shared = (float64(float64(s.SharedLoads+s.SharedStores)*d.SharedAccessCost) +
		float64(float64(s.SharedBankConflicts)*d.SharedConflictCost)) / float64(activeSMs)
	bd.Barrier = float64(s.Barriers) * d.BarrierCost / float64(activeSMs)

	tMem := bd.Bandwidth
	memBound := "bandwidth"
	if bd.Latency > tMem {
		tMem = bd.Latency
		memBound = "latency"
	}
	onChip := bd.Compute + bd.Shared + bd.Barrier
	if onChip > tMem {
		bd.Total = bd.Launch + onChip
		switch {
		case bd.Compute >= bd.Shared && bd.Compute >= bd.Barrier:
			bd.Bound = "compute"
		case bd.Shared >= bd.Barrier:
			bd.Bound = "shared"
		default:
			bd.Bound = "barrier"
		}
	} else {
		bd.Total = bd.Launch + tMem
		bd.Bound = memBound
	}
	if bd.Launch > bd.Total-bd.Launch {
		bd.Bound = "launch"
	}
	if f := d.slow(); f > 1 {
		bd.Launch *= f
		bd.Bandwidth *= f
		bd.Latency *= f
		bd.Compute *= f
		bd.Shared *= f
		bd.Barrier *= f
		bd.Total *= f
	}
	return bd
}

// String formats the breakdown compactly (microseconds).
func (b Breakdown) String() string {
	us := func(x float64) float64 { return x * 1e6 }
	return fmt.Sprintf("total=%.1fus bound=%s (launch=%.1f bw=%.1f lat=%.1f comp=%.1f shmem=%.1f barrier=%.1f)",
		us(b.Total), b.Bound, us(b.Launch), us(b.Bandwidth), us(b.Latency),
		us(b.Compute), us(b.Shared), us(b.Barrier))
}
