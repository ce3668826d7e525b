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
//	Fused:  §III.C — the PCR output feeds the p-Thomas forward sweep in
//	        registers inside one kernel (only c', d' ever reach global
//	        memory), and a light second kernel runs back-substitution.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

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
	// Fuse enables the §III.C kernel fusion of tiled PCR with the
	// p-Thomas forward sweep. Requires BlocksPerSystem == 1.
	Fuse bool
	// SystemsPerBlock multiplexes several systems (each with its own
	// sliding window) onto one thread block, advanced round-robin per
	// sub-tile — the Fig. 11(c) configuration that overlaps the
	// windows' independent global loads. 0 or 1 disables multiplexing;
	// requires BlocksPerSystem <= 1 and no fusion.
	SystemsPerBlock int
	// Workers bounds the worker pool a Pipeline shards its host-twin
	// solves across; 0 means GOMAXPROCS. A recording solve runs on a
	// single lane, so this affects every solve but the process's first
	// of a geometry.
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
	Fused           bool
	// Stats aggregates all kernel launches of the solve.
	Stats *gpusim.Stats
	// Kernels holds the per-launch statistics in execution order.
	Kernels []*gpusim.Stats
	// Faults describes the fault-recovery activity of the most recent
	// solve (zeroed when nothing fired). Nil for the one-shot fused and
	// multiplexed ablation kernels, which have no recovery layer.
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

// ablation reports whether cfg selects one of the one-shot ablation
// kernels — §III.C fusion or Fig. 11(c) multiplexing. Both only take
// effect on the k >= 1 path; at k = 0 the pipeline ignores them.
func (cfg *Config) ablation() bool { return cfg.Fuse || cfg.SystemsPerBlock > 1 }

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
	if cfg.Fuse {
		// Fusion carries p-Thomas state per subsystem inside the block,
		// so a system cannot span blocks (Fig. 11(a) shape).
		return 1
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
// [i*N, (i+1)*N)) along with the execution report. It is SolveCtx
// with a background context.
func Solve[T num.Real](cfg Config, b *matrix.Batch[T]) ([]T, *Report, error) {
	x, rep, _, err := SolveCtx(context.Background(), cfg, b)
	return x, rep, err
}

// SolveCtx is the one-shot solve with cooperative cancellation (see
// Pipeline.SolveIntoCtx). It runs a transient Pipeline, which records
// only the process's first solve of the geometry: callers that solve
// the same shape repeatedly should still build the Pipeline themselves
// and reuse it, which skips the arena allocation. The fused and multiplexed
// ablation configurations, which have no reusable pipeline, run their
// one-shot kernels instead. wall is the measured host time of the solve
// itself, excluding pipeline construction.
func SolveCtx[T num.Real](ctx context.Context, cfg Config, b *matrix.Batch[T]) (x []T, rep *Report, wall time.Duration, err error) {
	p, err := NewPipeline[T](cfg, b.M, b.N)
	if errors.Is(err, ErrNotReusable) {
		return solveAblation(ctx, cfg, b)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	defer p.Close()
	x = make([]T, b.M*b.N)
	if err := p.SolveIntoCtx(ctx, x, b); err != nil {
		return nil, nil, 0, err
	}
	return x, p.Report(), p.LastSolveTime(), nil
}

// solveAblation runs the §III.C fused or Fig. 11(c) multiplexed
// configuration through its one-shot kernels. They allocate per call
// and have no recovery layer: they exist for ablation studies, not
// timestep loops. Both need one block per system.
func solveAblation[T num.Real](ctx context.Context, cfg Config, b *matrix.Batch[T]) ([]T, *Report, time.Duration, error) {
	if cfg.BlocksPerSystem > 1 {
		return nil, nil, 0, fmt.Errorf("core: fused and multiplexed kernels need one block per system, got %d", cfg.BlocksPerSystem)
	}
	if err := b.CheckShape(); err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrShapeMismatch, err)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, nil, 0, cancelled(ctx.Err())
	}
	k := cfg.resolveK(b.M, b.N)
	rep := &Report{K: k, C: cfg.c(), BlocksPerSystem: 1, Fused: cfg.Fuse, Stats: &gpusim.Stats{}}
	start := time.Now()
	var (
		x   []T
		err error
	)
	if cfg.Fuse {
		x, _, err = solveFused(cfg.device(), cfg, b, k, rep)
	} else {
		x, _, err = solveMultiplexed(cfg.device(), cfg, b, k, rep)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return x, rep, time.Since(start), nil
}

// SolveSystem solves a single system with the hybrid (M = 1).
func SolveSystem[T num.Real](cfg Config, s *matrix.System[T]) ([]T, *Report, error) {
	b := matrix.NewBatch[T](1, s.N())
	b.SetSystem(0, s)
	return Solve(cfg, b)
}
