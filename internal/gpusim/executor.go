package gpusim

import (
	"context"
	"fmt"
)

// Executor runs kernel blocks sequentially on the caller's goroutine,
// reusing one Block context (and its coalescing-slot capacity) across
// every call. It is the steady-state counterpart of Device.Launch:
// Launch allocates per-launch bookkeeping and fans blocks out over
// goroutines, which is the right shape for a one-shot solve but not
// for a solver handle that runs the same launch geometry every
// timestep. A pipeline creates one Executor per worker up front and
// then drives it with no per-solve heap allocations.
//
// Recording is explicit: with record=true the architectural events of
// every block are accumulated into the caller's Stats (the same totals
// Launch would produce for those blocks); with record=false the kernel
// arithmetic runs but event recording — including the per-element
// coalescing analysis, the dominant simulation cost — is skipped. The
// recorded events are a pure function of the launch geometry and array
// layout, never of the floating-point data (kernels contain no
// data-dependent control flow, and Global arrays are 512-byte aligned
// so the coalescing pattern is base-independent), which is what makes
// record-once / replay-many sound: a replayed solve computes bitwise
// the same solution while the previously recorded Stats still describe
// it exactly.
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
// block exactly as Launch does. When record is true the events are
// accumulated into st (which must be non-nil) via Stats.Accumulate —
// launch-header fields (Kernel, Launches, Blocks, ThreadsPerBlock) are
// the caller's responsibility. When record is false st may be nil and
// no events are recorded.
//
// The error is the same per-SM shared-memory capacity check Launch
// performs, evaluated per block; it can only trip while recording
// (a replayed geometry was already validated when it was recorded).
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
// A recorded geometry is only ever replayed, and replay never touches
// that scratch, so a cached executor would otherwise pin it for its
// whole life. A later recording regrows it.
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
	b.norec = !record
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
			return fmt.Errorf("gpusim: block %d allocated %d bytes shared memory, device SM has %d",
				id, e.scratch.SharedPerBlock, e.dev.SharedMemPerSM)
		}
		st.Accumulate(&e.scratch)
	}
	return nil
}
