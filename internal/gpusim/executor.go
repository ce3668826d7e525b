package gpusim

import (
	"context"
	"fmt"
)

// Executor runs kernel blocks sequentially on the caller's goroutine,
// reusing one Block context across every call. It is the unit
// Device.Launch is built from: Launch drives a fresh Executor per
// worker for one launch, while a solver handle keeps one Executor as
// its recording lane.
//
// Every block records its architectural events into the caller's
// Stats. The events are a pure function of the launch geometry and
// array layout, never of the floating-point data (kernels contain no
// data-dependent control flow, and Global arrays are 512-byte aligned
// so the coalescing pattern is base-independent). Of the device, a
// recording reads only WarpSize and TransactionBytes (coalescing and
// bank analysis) and SharedMemPerSM (the shared-memory check), and its
// caller MaxThreadsPerBlock; never Name, the cost-model fields,
// SlowFactor or Faults. That is what makes recording sound to share
// and to sample: a process records a geometry once and keeps the Stats
// for every solver and device that shares those fields, and a block
// whose accesses are another's shifted by a whole number of
// transactions records the same events, so RunSampledCtx simulates one
// block for all of them. Every solve runs on the kernels' host twins,
// which compute bitwise the same solution. Blocks never fault: the
// twins ask the injector about the launch's block coordinates
// (FaultSite.First), so faults strike them instead.
type Executor struct {
	dev     *Device
	blk     Block
	scratch Stats
}

// NewExecutor creates an executor for the device.
func NewExecutor(d *Device) *Executor {
	return &Executor{dev: d}
}

// RunBlocksCtx executes blocks [first, first+count) of a launch whose
// blocks have threadsPerBlock threads each, invoking kern once per
// block and accumulating its events into st via Stats.Accumulate —
// launch-header fields (Kernel, Launches, Blocks, ThreadsPerBlock) are
// the caller's responsibility. Each block's shared-memory allocation
// is checked against the device's per-SM capacity; name tags that
// error. It never consults an injector: faults are decided by
// FaultSite.First, before any block runs.
//
// A non-nil ctx is checked between blocks: once it is done, execution
// stops promptly and ctx.Err() is returned, with every block either
// fully executed or never started.
//
// Every run, successful or not, ends by releasing the block's
// coalescing and bank-conflict scratch: one slot per dynamic access of
// the longest thread, megabytes for a long p-Thomas thread. A recorded
// geometry is never simulated again in production, so a cached
// executor would otherwise pin it for its whole life.
func (e *Executor) RunBlocksCtx(ctx context.Context, st *Stats, threadsPerBlock, first, count int, kern Kernel, name string) error {
	e.bind(threadsPerBlock)
	var err error
	for id := first; id < first+count && err == nil; id++ {
		err = e.runBlock(ctx, st, Sample{Block: id, Weight: 1}, kern, name)
	}
	e.blk.releaseSlots()
	return err
}

// Sample is one block a sampled run simulates and the number of the
// launch's blocks, itself included, whose events it stands for.
type Sample struct {
	Block, Weight int
}

// RunSampledCtx is RunBlocksCtx over the listed blocks: it simulates
// each sample's block once and adds its events into st Weight times
// (Stats.AccumulateN). The caller vouches that every block a sample
// stands for records exactly the events of the sampled one; with
// every weight 1 over every block it is a full run. Cancellation, the
// shared-memory check and the release of the scratch are as in
// RunBlocksCtx.
func (e *Executor) RunSampledCtx(ctx context.Context, st *Stats, threadsPerBlock int, samples []Sample, kern Kernel, name string) error {
	e.bind(threadsPerBlock)
	var err error
	for i := 0; i < len(samples) && err == nil; i++ {
		err = e.runBlock(ctx, st, samples[i], kern, name)
	}
	e.blk.releaseSlots()
	return err
}

// bind points the executor's block context at its device and a launch
// of threadsPerBlock threads per block.
func (e *Executor) bind(threadsPerBlock int) {
	b := &e.blk
	b.Threads = threadsPerBlock
	b.dev = e.dev
	b.tx = int64(e.dev.TransactionBytes)
	b.stats = &e.scratch
}

// runBlock simulates block s.Block after a check of ctx and adds its
// events into st s.Weight times.
func (e *Executor) runBlock(ctx context.Context, st *Stats, s Sample, kern Kernel, name string) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	b := &e.blk
	e.scratch = Stats{}
	b.ID = s.Block
	b.sharedSeq = 0
	kern(b)
	b.endPhaseSlots()
	b.endPhaseBankSlots()
	if e.scratch.SharedPerBlock > e.dev.SharedMemPerSM {
		return fmt.Errorf("gpusim: launch %q: block %d allocated %d bytes shared memory, device SM has %d",
			name, s.Block, e.scratch.SharedPerBlock, e.dev.SharedMemPerSM)
	}
	st.AccumulateN(&e.scratch, s.Weight)
	return nil
}
