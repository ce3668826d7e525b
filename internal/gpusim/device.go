// Package gpusim is a functional and analytic simulator of the GPU
// execution model the paper targets (NVIDIA Fermi-class, CUDA
// terminology). It substitutes for real GPU hardware in this
// reproduction: kernels written against it execute for real (so solver
// correctness is genuinely exercised) while the simulator records the
// architectural events the paper's performance arguments are built on —
// global-memory transactions after coalescing, shared-memory traffic,
// elimination steps, barriers, kernel launches, and occupancy — and
// converts them to an estimated execution time with a
// bandwidth/latency/throughput model.
//
// The execution model mirrors CUDA:
//
//   - a kernel is launched over a 1-D grid of thread blocks;
//   - each block has a fixed number of threads and private shared memory;
//   - threads within a block run in lockstep phases separated by
//     barriers (Block.Phase is the moral equivalent of code between
//     __syncthreads() calls);
//   - global memory accesses issued by the threads of a warp at the same
//     instruction slot coalesce into aligned transactions.
package gpusim

import "fmt"

// Device describes the simulated processor. All bandwidths are bytes
// per second and all times seconds.
type Device struct {
	Name string

	// Parallelism.
	NumSMs             int // streaming multiprocessors
	CoresPerSM         int // scalar execution units per SM
	WarpSize           int
	MaxThreadsPerBlock int
	MaxThreadsPerSM    int
	MaxBlocksPerSM     int
	SharedMemPerSM     int // bytes
	ClockHz            float64

	// Arithmetic throughput, in fused elimination-relevant FLOP/s.
	SPFlops float64 // peak single-precision
	DPFlops float64 // peak double-precision

	// Memory system.
	GlobalBandwidth  float64 // peak DRAM bandwidth
	GlobalLatency    float64 // load-to-use latency, seconds
	TransactionBytes int     // coalescing granularity (128 on Fermi)
	MaxInflightPerSM int     // outstanding memory transactions one SM sustains

	// Overheads.
	KernelLaunchOverhead float64 // per kernel launch
	BarrierCost          float64 // per block-wide barrier
	SharedAccessCost     float64 // amortized per shared-memory access
	SharedConflictCost   float64 // per extra bank-conflict serialization cycle

	// Faults, when non-nil, injects transient execution faults into
	// kernel launches on this device. Device.Launch and the host twins
	// ask it through FaultSite.First before they run anything, and
	// surface a fault as a typed LaunchError instead of silent
	// success; the Executor never consults it.
	// Nil (the default on every preset) injects nothing. Attach or
	// detach between solves, never while a launch is in flight.
	Faults *Injector

	// SlowFactor models a silent slowdown — a thermally throttled,
	// power-capped, or otherwise degraded device that still computes
	// correctly but takes SlowFactor times the modeled kernel time,
	// without raising any health event or launch error. Values <= 1
	// mean no slowdown. This is the straggler half of gray failure:
	// nothing in the fail-stop plane notices it, only latency does.
	SlowFactor float64
}

// slow returns the effective slowdown multiplier (>= 1).
func (d *Device) slow() float64 {
	if d.SlowFactor > 1 {
		return d.SlowFactor
	}
	return 1
}

// GTX480 returns the device description for the paper's test GPU
// (NVIDIA GeForce GTX 480, Fermi GF100). Figures are the published
// specifications; DP throughput is the GeForce-market 1/8-of-SP rate.
func GTX480() *Device {
	return &Device{
		Name:               "GTX480",
		NumSMs:             15,
		CoresPerSM:         32,
		WarpSize:           32,
		MaxThreadsPerBlock: 1024,
		MaxThreadsPerSM:    1536,
		MaxBlocksPerSM:     8,
		SharedMemPerSM:     48 * 1024,
		ClockHz:            1.401e9,

		SPFlops: 1.345e12,
		DPFlops: 0.168e12,

		GlobalBandwidth:  177.4e9,
		GlobalLatency:    400 / 1.401e9, // ~400 core cycles
		TransactionBytes: 128,
		MaxInflightPerSM: 64,

		KernelLaunchOverhead: 5e-6,
		BarrierCost:          30e-9,
		SharedAccessCost:     0.6e-9 / 32, // per access, warp-wide issue
		SharedConflictCost:   0.6e-9,      // one replayed warp instruction
	}
}

// Validate reports configuration errors.
func (d *Device) Validate() error {
	switch {
	case d.NumSMs <= 0:
		return fmt.Errorf("gpusim: device %q: NumSMs must be positive", d.Name)
	case d.WarpSize <= 0:
		return fmt.Errorf("gpusim: device %q: WarpSize must be positive", d.Name)
	case d.MaxThreadsPerBlock <= 0 || d.MaxThreadsPerSM <= 0 || d.MaxBlocksPerSM <= 0:
		return fmt.Errorf("gpusim: device %q: thread/block limits must be positive", d.Name)
	case d.SharedMemPerSM < 0:
		return fmt.Errorf("gpusim: device %q: negative shared memory", d.Name)
	case d.GlobalBandwidth <= 0 || d.GlobalLatency <= 0 || d.TransactionBytes <= 0:
		return fmt.Errorf("gpusim: device %q: memory system misconfigured", d.Name)
	case d.SPFlops <= 0 || d.DPFlops <= 0:
		return fmt.Errorf("gpusim: device %q: flop rates must be positive", d.Name)
	case d.MaxInflightPerSM <= 0:
		return fmt.Errorf("gpusim: device %q: MaxInflightPerSM must be positive", d.Name)
	}
	return nil
}

// HardwareParallelism returns P, the paper's notion of the number of
// parallel workers the device supplies: the number of threads that can
// be resident and executing concurrently at full occupancy.
func (d *Device) HardwareParallelism() int {
	return d.NumSMs * d.MaxThreadsPerSM
}

// Occupancy computes how many blocks of the given shape are resident
// per SM, limited by the block count cap, the thread count cap and the
// shared-memory capacity (register pressure is not modeled).
func (d *Device) Occupancy(threadsPerBlock, sharedBytesPerBlock int) (blocksPerSM int) {
	if threadsPerBlock <= 0 {
		return 0
	}
	blocksPerSM = d.MaxBlocksPerSM
	if byThreads := d.MaxThreadsPerSM / threadsPerBlock; byThreads < blocksPerSM {
		blocksPerSM = byThreads
	}
	if sharedBytesPerBlock > 0 {
		if byShared := d.SharedMemPerSM / sharedBytesPerBlock; byShared < blocksPerSM {
			blocksPerSM = byShared
		}
	}
	if blocksPerSM < 0 {
		blocksPerSM = 0
	}
	return blocksPerSM
}
