// Package core implements the paper's proposed solver: the hybrid of
// tiled PCR (the parallelism-excavating front-end, internal/tiledpcr)
// and thread-level parallel Thomas (the efficient back-end,
// internal/pthomas), with the runtime algorithm-transition logic of
// §III.D choosing how many PCR steps k to take from the batch size M
// and the device's parallelism.
//
// Data flow for a batch of M systems × N rows (contiguous layout):
//
//	k = 0:  interleave on the host, one p-Thomas thread per system.
//	k >= 1: tiled-PCR kernel streams every system through the buffered
//	        sliding window (one or more blocks per system, Fig. 11(a/b)),
//	        leaving 2^k independent interleaved subsystems per system in
//	        global memory; the strided p-Thomas kernel then solves the
//	        M·2^k subsystems with one block of 2^k threads per system.
//
// Every solve computes its answer on the kernels' host twins; the
// simulated kernels run once per geometry to record what they cost
// (see Pipeline). Two ablation kernels stand outside the production
// path, each with its own one-shot entry point: SolveFused (§III.C, the
// PCR output feeds the p-Thomas forward sweep in registers inside one
// kernel) and SolveMultiplexed (Fig. 11(c), several systems per block).
package core

import (
	"fmt"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/tiledpcr"
)

// KAuto selects the number of PCR steps with the Table III heuristic.
const KAuto = -1

// blockSizeK0 is the thread-block size of the k = 0 p-Thomas path,
// capped at the device's MaxThreadsPerBlock.
const blockSizeK0 = 128

// Config controls the hybrid solver.
type Config struct {
	// Device is the simulated GPU; nil selects GTX480.
	Device *gpusim.Device
	// K is the number of tiled-PCR steps before p-Thomas takes over.
	// KAuto (-1) applies the paper's Table III heuristic.
	K int
	// C is the sub-tile scale factor (Table I); 0 means 1.
	C int
	// BlocksPerSystem splits each system across several thread blocks
	// (Fig. 11(b)); 0 chooses automatically: 1 when M alone fills the
	// device, more for small batches of large systems.
	BlocksPerSystem int
	// Workers bounds the worker pool a Pipeline shards its host-twin
	// solves across; 0 means GOMAXPROCS. Every solve runs its twins on
	// the pool; only the recording that a geometry's first solve in the
	// process makes beforehand runs on a single lane.
	Workers int
	// Retry bounds recovery from transient device faults (see
	// RetryPolicy; the zero value is the production default). Faults
	// only occur when the device carries an Injector.
	Retry RetryPolicy
}

// Report describes what the solver did and what it cost.
type Report struct {
	K               int
	C               int
	BlocksPerSystem int
	// Stats aggregates all kernel launches of the solve.
	Stats *gpusim.Stats
	// Kernels holds the per-launch statistics in execution order.
	Kernels []*gpusim.Stats
	// Faults describes the fault-recovery activity of the most recent
	// solve (zeroed when nothing fired). Nil for the one-shot
	// SolveFused and SolveMultiplexed kernels, which have no recovery
	// layer.
	Faults *FaultReport
}

func (cfg *Config) device() *gpusim.Device {
	if cfg.Device == nil {
		return gpusim.GTX480()
	}
	return cfg.Device
}

func (cfg *Config) c() int {
	if cfg.C <= 0 {
		return 1
	}
	return cfg.C
}

// resolveK picks the PCR step count for a batch of m systems of n rows.
func (cfg *Config) resolveK(m, n int) int {
	k := cfg.K
	if k == KAuto {
		k = HeuristicK(m)
	}
	if k < 0 {
		k = 0
	}
	// 2^k may not exceed the system size, the thread-block limit, or
	// what the shared memory of the device can hold.
	dev := cfg.device()
	for k > 0 && (1<<k > n || 1<<k > dev.MaxThreadsPerBlock ||
		tiledpcr.SharedBytes[float64](k, cfg.c()) > dev.SharedMemPerSM) {
		k--
	}
	return k
}

// resolveBlocks picks the Fig. 11 block mapping for the k >= 1 path.
func (cfg *Config) resolveBlocks(m, n, k int) int {
	if cfg.BlocksPerSystem > 0 {
		return cfg.BlocksPerSystem
	}
	dev := cfg.device()
	target := 2 * dev.NumSMs // enough blocks to cover every SM twice
	if m >= target {
		return 1
	}
	g := num.CeilDiv(target, m)
	// Keep tiles no smaller than a few sub-tiles, or the halo warm-up
	// dominates useful work.
	s := cfg.c() << k
	if maxG := n / (4 * s); g > maxG {
		g = maxG
	}
	if g < 1 {
		g = 1
	}
	return g
}

// Solve solves every system of the batch on the simulated device and
// returns the solutions in natural order (system i occupying
// [i*N, (i+1)*N)) along with the execution report. It runs a transient
// Pipeline, which records only the process's first solve of the
// geometry: callers that solve the same shape repeatedly should still
// build the Pipeline themselves and reuse it, which skips the arena
// allocation.
func Solve[T num.Real](cfg Config, b *matrix.Batch[T]) ([]T, *Report, error) {
	p, err := NewPipeline[T](cfg, b.M, b.N)
	if err != nil {
		return nil, nil, err
	}
	defer p.Close()
	x := make([]T, b.M*b.N)
	if err := p.SolveInto(x, b); err != nil {
		return nil, nil, err
	}
	return x, p.Report(), nil
}

// solveAblation runs a one-shot ablation kernel at the k cfg resolves
// for b, or the ordinary Solve where that k is 0 (there is no PCR
// stage to fuse or multiplex). The ablation kernels simulate every
// block, allocate per call and have no recovery layer: they exist to
// count what the paper's alternatives would cost, not for timestep
// loops. Both need one block per system.
func solveAblation[T num.Real](cfg Config, b *matrix.Batch[T], kernel func(dev *gpusim.Device, k int, rep *Report) ([]T, error)) ([]T, *Report, error) {
	dev := cfg.device()
	if err := dev.Validate(); err != nil {
		return nil, nil, err
	}
	if err := b.CheckShape(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrShapeMismatch, err)
	}
	k := cfg.resolveK(b.M, b.N)
	if k == 0 {
		return Solve(cfg, b)
	}
	if cfg.BlocksPerSystem > 1 {
		return nil, nil, fmt.Errorf("core: fused and multiplexed kernels need one block per system, got %d", cfg.BlocksPerSystem)
	}
	rep := &Report{K: k, C: cfg.c(), BlocksPerSystem: 1, Stats: &gpusim.Stats{}}
	x, err := kernel(dev, k, rep)
	if err != nil {
		return nil, nil, err
	}
	return x, rep, nil
}
