package gpusim

import (
	"context"
	"fmt"
)

// Executor runs kernel blocks sequentially on the caller's goroutine,
// reusing one Block context (and its coalescing-slot capacity) across
// every call. It is the unit Device.Launch is built from: Launch drives
// a fresh Executor per worker for one launch, while a solver handle
// that runs the same launch geometry every timestep creates one
// Executor per worker up front and then drives it with no per-solve
// heap allocations.
//
// Every block records its architectural events. With record=true they
// are accumulated into the caller's Stats (the same totals Launch
// produces for those blocks); with record=false they land in the
// executor's scratch and are discarded. The recorded events are a pure
// function of the launch geometry and array layout, never of the
// floating-point data (kernels contain no data-dependent control flow,
// and Global arrays are 512-byte aligned so the coalescing pattern is
// base-independent), which is what makes record-once / replay-many
// sound: a replayed solve computes bitwise the same solution while the
// previously recorded Stats still describe it exactly. Solvers replay
// through an Executor only while an injector is attached, so the
// faults strike the simulated blocks; otherwise they run the kernels'
// host twins.
type Executor struct {
	dev     *Device
	blk     Block
	scratch Stats
}

// NewExecutor creates an executor for the device.
func NewExecutor(d *Device) *Executor {
	return &Executor{dev: d}
}

// RunBlocks executes blocks [first, first+count) of a launch whose
// blocks have threadsPerBlock threads each, invoking kern once per
// block. When record is true the events are accumulated into st
// (which must be non-nil) via Stats.Accumulate — launch-header fields
// (Kernel, Launches, Blocks, ThreadsPerBlock) are the caller's
// responsibility. When record is false st may be nil and the events
// are discarded.
//
// The error is the per-SM shared-memory capacity check, evaluated per
// block; it can only trip while recording (a replayed geometry was
// already validated when it was recorded).
func (e *Executor) RunBlocks(st *Stats, threadsPerBlock, first, count int, record bool, kern Kernel) error {
	return e.RunBlocksCtx(nil, st, threadsPerBlock, first, count, record, kern, FaultSite{})
}

// RunBlocksCtx is RunBlocks with cooperative cancellation and fault
// injection. A non-nil ctx is checked between blocks: once it is done,
// execution stops promptly and ctx.Err() is returned, with every block
// either fully executed or never started. When site.Inj is non-nil,
// each block consults the injector at (site.Kernel, block, site.Attempt)
// and a scheduled fault aborts the run with a typed *LaunchError:
// abort/hang faults before the block executes, corrupt faults after it
// executed with poisoned stores. Blocks before the faulted one keep
// their writes — the partial-output hazard the caller's retry repairs
// by re-running the whole range.
//
// A recording run, successful or not, ends by releasing the block's
// coalescing and bank-conflict slot scratch: one slot per dynamic
// access of the longest thread, megabytes for a long p-Thomas thread.
// A recorded geometry is only ever replayed, so a cached executor
// would otherwise pin it for its whole life. A replaying run keeps
// its scratch, so replays under an injector run allocation-free; only
// executors that do replay hold it. A later recording releases it.
func (e *Executor) RunBlocksCtx(ctx context.Context, st *Stats, threadsPerBlock, first, count int, record bool, kern Kernel, site FaultSite) error {
	err := e.runBlocks(ctx, st, threadsPerBlock, first, count, record, kern, site)
	if record {
		e.blk.slots, e.blk.bankSlots = nil, nil
	}
	return err
}

func (e *Executor) runBlocks(ctx context.Context, st *Stats, threadsPerBlock, first, count int, record bool, kern Kernel, site FaultSite) error {
	b := &e.blk
	b.Threads = threadsPerBlock
	b.dev = e.dev
	b.stats = &e.scratch
	for id := first; id < first+count; id++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if site.Inj != nil {
			if kind, ok := site.Inj.At(site.Kernel, id, site.Attempt); ok {
				if kind != FaultCorrupt {
					return &LaunchError{Kernel: site.Kernel, Block: id, Kind: kind, Attempt: site.Attempt}
				}
				b.corrupt = site.Inj.armCorrupt()
			}
		}
		e.scratch = Stats{}
		b.ID = id
		b.sharedSeq = 0
		kern(b)
		b.endPhaseSlots()
		b.endPhaseBankSlots()
		if b.corrupt != nil {
			b.corrupt = nil
			return &LaunchError{Kernel: site.Kernel, Block: id, Kind: FaultCorrupt, Attempt: site.Attempt}
		}
		if !record {
			continue
		}
		if e.scratch.SharedPerBlock > e.dev.SharedMemPerSM {
			return fmt.Errorf("gpusim: launch %q: block %d allocated %d bytes shared memory, device SM has %d",
				site.Kernel, id, e.scratch.SharedPerBlock, e.dev.SharedMemPerSM)
		}
		st.Accumulate(&e.scratch)
	}
	return nil
}
