package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"gputrid/internal/cpu"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pthomas"
	"gputrid/internal/tiledpcr"
)

// Typed misuse errors of the reusable pipeline, matchable with
// errors.Is through every wrapping layer up to the public Solver.
var (
	// ErrPipelineBusy is returned when SolveInto is called while
	// another solve is in flight on the same pipeline. The arena is
	// untouched by the rejected call.
	ErrPipelineBusy = errors.New("core: pipeline is already executing a solve")
	// ErrPipelineClosed is returned by SolveInto after Close.
	ErrPipelineClosed = errors.New("core: pipeline is closed")
	// ErrShapeMismatch is returned when the batch or destination does
	// not match the M×N shape the pipeline was built for.
	ErrShapeMismatch = errors.New("core: shape does not match pipeline")
)

// Pipeline is the reusable form of Solve: it fixes the configuration
// and batch shape (M systems × N rows) at construction, pre-allocates
// every intermediate the hybrid needs — the reduced coefficient
// planes, the p-Thomas c'/d' scratch, the k = 0 solution staging, the
// recording lane and the per-worker twin state — and then solves any
// number of batches of that shape into caller-owned storage with zero
// steady-state heap allocations. Only a recording of the contiguous
// k = 0 entry needs the interleaved input planes; it builds them and
// drops them again.
//
// Recording is pure measurement. The simulator's architectural events
// are a pure function of the launch geometry (shape, k, c, blocks per
// system, device), never of the coefficient data: the kernels contain
// no data-dependent control flow, and global arrays are 512-byte
// aligned so coalescing does not depend on where a particular batch
// happens to live. So the process's first solve of a geometry records
// once, on one recording lane and with no injector, and keeps the
// Stats in a process-wide memo (memo.go); Report describes every later
// solve exactly. A recording simulates one block per equivalence class
// of each launch — blocks that run the same schedule a whole number of
// transactions apart (sample.go) — and counts it once per block of its
// class, which gives field for field the Stats of simulating them all.
// Every solve, that first one included, computes its answer on the
// kernels' plain-Go host twins over the raw slices (see twin.go), which
// match the kernels bit for bit. The twins ask the injector about the
// same (kernel, block, attempt) coordinates the simulated blocks would
// hit, so faults strike them exactly where they would on the device.
//
// The twins shard the batch across a bounded worker pool
// (Config.Workers, default GOMAXPROCS) with a per-worker arena slice —
// each worker owns its twin state and writes a disjoint range of
// systems, so no synchronization beyond the start/done handshake is
// needed.
//
// A pipeline is single-flight: concurrent SolveInto calls on one
// pipeline return ErrPipelineBusy rather than corrupting the arena.
// Distinct pipelines are fully independent.
type Pipeline[T num.Real] struct {
	cfg  Config
	dev  *gpusim.Device
	m, n int
	k, c int
	g    int // blocks per system (k >= 1)
	per  int // output rows per PCR block (k >= 1)
	bs   int // thread-block size (k == 0)
	grid int // grid size (k == 0)

	// Arena. For k >= 1: the reduced coefficient planes PCR writes and
	// p-Thomas reads. For k == 0: xi, the solution the kernel writes
	// interleaved and the contiguous twin writes in rows, staged there
	// so a cancelled solve leaves dst untouched, and vbuf, the
	// interleaved input planes a recording of the contiguous entry
	// reads: nil except during a recording (and under the audit).
	ra, rb, rc, rd []T
	out            tiledpcr.Arrays[T]
	vbuf           *matrix.Interleaved[T]
	xi             []T
	ws             pthomas.Workspace[T]

	// iv is the interleaved batch the k = 0 kernel is bound to (vbuf
	// or the caller's), the planes the interleaved twin reads. rows is
	// the caller's contiguous batch during a k = 0 SolveIntoCtx, nil
	// otherwise: its twin reads the rows and never transposes.
	iv   *matrix.Interleaved[T]
	rows *matrix.Batch[T]

	// Per-solve state read by the kernels and their twins; written by
	// the coordinator before workers are signalled.
	in   tiledpcr.Arrays[T]
	bufs pthomas.Bufs[T]

	// The recording lane: one executor, the window buffers the
	// tiled-PCR blocks bind (k >= 1), and the solve's launches in
	// order — one p-Thomas launch for k = 0, tiled PCR then strided
	// p-Thomas for k >= 1.
	exec     *gpusim.Executor
	win      *tiledpcr.Window[T]
	launches [2]launch
	nKern    int

	// Cached statistics. kern holds the per-kernel stats the first
	// solve recorded or took from the memo; total is their aggregate;
	// rep is the Report handed out for every solve.
	recorded bool
	kern     [2]gpusim.Stats
	total    gpusim.Stats
	rep      Report

	// Fault-tolerant execution state. ctx is the current solve's
	// context (nil when it cannot be cancelled); frep accumulates the
	// solve's fault activity; gtsvWS is the (lazily built) workspace
	// of the degraded per-system GTSV re-solve.
	ctx    context.Context
	frep   FaultReport
	gtsvWS *cpu.GTSVWorkspace[T]

	// auditBuf keeps the simulated outputs an audited twin run is
	// compared with.
	auditBuf []T

	// lastWall is the measured host time of the most recent solve,
	// the pool's per-shape service-time observation. Written at the end
	// of each solve; reads are ordered by the solve's completion.
	lastWall time.Duration

	// Interleaved-native entry state (interleaved.go): conversion
	// scratch for the k >= 1 hybrid, which cannot consume the layout
	// directly, plus layout counters readable concurrently with solves.
	iscratchB *matrix.Batch[T]
	iscratchX []T
	ilSolves  atomic.Uint64
	ilShim    atomic.Uint64

	workers []*pipeWorker[T]
	inUse   atomic.Bool
	closed  bool
}

// launch is one kernel launch of a solve: its name, which keys the
// fault injector and the report, its geometry, the per-block body the
// recording lane runs, and the class key a sampled recording groups
// its blocks by (sample.go).
type launch struct {
	name      string
	tpb, grid int
	kern      gpusim.Kernel
	class     classOf
}

// pipeWorker is one lane of the pool: the host twins' state and the
// static shard of the batch it executes.
type pipeWorker[T num.Real] struct {
	// Host twin state: the PCR rings (k >= 1) and the Thomas scratch,
	// a view of the worker's own rows of the pipeline's c'/d' planes.
	red *tiledpcr.HostReducer[T]
	tws pthomas.Workspace[T]

	firstSys, nSys int // k >= 1: system range [firstSys, firstSys+nSys)
	firstBlk, nBlk int // k == 0: block range of the interleaved grid

	// Per-solve fault-tolerant state: written by the worker, read by
	// the coordinator after the done handshake.
	err error
	wf  workerFaults

	start, done chan struct{} // nil for the coordinator lane (index 0)
}

// NewPipeline builds a pipeline for cfg over batches of m systems of
// n rows, resolving k and the block mapping once and allocating the
// whole arena up front.
func NewPipeline[T num.Real](cfg Config, m, n int) (*Pipeline[T], error) {
	dev := cfg.device()
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("core: invalid pipeline shape %dx%d", m, n)
	}
	k := cfg.resolveK(m, n)
	p := &Pipeline[T]{cfg: cfg, dev: dev, m: m, n: n, k: k, c: cfg.c(), g: 1, exec: gpusim.NewExecutor(dev)}

	if k == 0 {
		bs := min(blockSizeK0, dev.MaxThreadsPerBlock)
		p.bs = bs
		p.grid = num.CeilDiv(m, bs)
		p.xi = make([]T, m*n)
		p.bindK0(nil, p.xi)
		p.launches[0] = launch{"pThomas", bs, p.grid, p.k0Kernel(), p.k0Class}
		p.nKern = 1
	} else {
		p.g = cfg.resolveBlocks(m, n, k)
		p.ra = make([]T, m*n)
		p.rb = make([]T, m*n)
		p.rc = make([]T, m*n)
		p.rd = make([]T, m*n)
		p.out = tiledpcr.NewArrays(p.ra, p.rb, p.rc, p.rd)
		cp, dp := p.ws.Ensure(m * n)
		p.bufs = pthomas.Bufs[T]{
			A: p.out.A, B: p.out.B, C: p.out.C, D: p.out.D,
			Cp: gpusim.NewGlobal(cp), Dp: gpusim.NewGlobal(dp),
		}
		p.per = num.CeilDiv(n, p.g)
		p.win = tiledpcr.NewWindowBuffers[T](k, p.c)
		tpb := 1 << k
		p.launches[0] = launch{"tiledPCR", tpb, m * p.g, p.pcrKernel(), p.pcrClass}
		p.launches[1] = launch{"pThomasStrided", tpb, m, p.thomasKernel(), p.thomasClass}
		p.nKern = 2
	}
	p.rep = Report{K: p.k, C: p.c, BlocksPerSystem: p.g, Stats: &p.total, Faults: &p.frep}
	p.buildWorkers()
	return p, nil
}

// buildWorkers creates the worker lanes with their twin state and
// static shards, and starts the pool goroutines for every lane but the
// coordinator's.
func (p *Pipeline[T]) buildWorkers() {
	units := p.m // k >= 1: shard whole systems (PCR + Thomas, no barrier)
	if p.k == 0 {
		units = p.grid // k == 0: shard thread blocks of the one kernel
	}
	count := p.cfg.Workers
	if count <= 0 {
		count = runtime.GOMAXPROCS(0)
	}
	if count > units {
		count = units
	}
	if count < 1 {
		count = 1
	}
	p.workers = make([]*pipeWorker[T], count)
	chunk, rem := units/count, units%count
	next := 0
	for i := range p.workers {
		w := &pipeWorker[T]{}
		size := chunk
		if i < rem {
			size++
		}
		if p.k == 0 {
			w.firstBlk, w.nBlk = next, size
		} else {
			w.firstSys, w.nSys = next, size
			w.red = tiledpcr.NewHostReducer[T](p.k)
		}
		p.twinScratch(w)
		next += size
		p.workers[i] = w
		if i > 0 {
			w.start = make(chan struct{}, 1)
			w.done = make(chan struct{}, 1)
			go func() {
				for range w.start {
					w.err = p.runCheckpointed(w)
					w.done <- struct{}{}
				}
			}()
		}
	}
}

// k0Kernel builds the per-block body of the k = 0 interleaved
// p-Thomas launch. The closure reads the per-solve state through p.
func (p *Pipeline[T]) k0Kernel() gpusim.Kernel {
	return func(blk *gpusim.Block) {
		blk.PhaseNoSync(func(t *gpusim.Thread) {
			sys := blk.ID*p.bs + t.ID
			if sys >= p.m {
				return
			}
			pthomas.ThreadInterleaved(t, &p.bufs, sys, p.m, p.n)
		})
	}
}

// pcrKernel builds the per-block body of the tiled-PCR launch,
// binding the recording lane's window buffers to each block.
func (p *Pipeline[T]) pcrKernel() gpusim.Kernel {
	return func(blk *gpusim.Block) {
		sys := blk.ID / p.g
		slice := blk.ID % p.g
		win := p.win.Bind(blk, p.n, sys*p.n, p.in)
		outStart := slice * p.per
		outEnd := outStart + p.per
		if outEnd > p.n {
			outEnd = p.n
		}
		if outStart >= outEnd {
			return
		}
		win.Run(outStart, outEnd, func(outBase int) {
			lo, hi := win.OutRange(outBase, outStart, outEnd)
			blk.PhaseNoSync(func(t *gpusim.Thread) {
				for e := 0; e < p.c; e++ {
					pos := t.ID + e*win.Threads()
					if pos < lo || pos >= hi {
						continue
					}
					gi := sys*p.n + outBase + pos
					r := win.Out[pos]
					p.out.A.Store(t, gi, r.A)
					p.out.B.Store(t, gi, r.B)
					p.out.C.Store(t, gi, r.C)
					p.out.D.Store(t, gi, r.D)
				}
			})
		})
	}
}

// thomasKernel builds the per-block body of the strided p-Thomas
// launch (one block of 2^k threads per system).
func (p *Pipeline[T]) thomasKernel() gpusim.Kernel {
	return func(blk *gpusim.Block) {
		base := blk.ID * p.n
		blk.PhaseNoSync(func(t *gpusim.Thread) {
			r := t.ID
			if r >= p.n {
				return
			}
			pthomas.ThreadStrided(t, &p.bufs, base, r, 1<<p.k, p.n)
		})
	}
}

// k0Class keys a k = 0 block by the byte offset of its first system
// and its count of systems, which is short only in the tail block:
// row j of the block's systems lies at j·M plus that offset, for every
// array alike.
func (p *Pipeline[T]) k0Class(blk int) (classKey, bool) {
	first := blk * p.bs
	return classKey{span: min(p.bs, p.m-first), off: p.txOffset(first)}, true
}

// pcrClass keys a tiled-PCR block. A block whose window loads stay
// inside its system (tiledpcr.LoadSpan) runs the schedule its output
// tile's length and its distance from the span's sub-tile-aligned
// start fix, wherever it sits, so it is keyed by those and the offset
// of its first output row. A block that reaches a system edge is keyed
// by its slice: the same slice of every system runs the same schedule,
// shifted by whole systems. An empty slice only charges its shared
// memory.
func (p *Pipeline[T]) pcrClass(blk int) (classKey, bool) {
	sys, slice := blk/p.g, blk%p.g
	start, end := min(slice*p.per, p.n), min((slice+1)*p.per, p.n)
	if start >= end {
		return classKey{pos: posEmpty}, true
	}
	if lo, hi := tiledpcr.LoadSpan(p.k, p.c, start, end); lo >= 0 && hi <= p.n {
		return classKey{pos: posInterior, lead: start - lo, span: end - start, off: p.txOffset(sys*p.n + start)}, true
	}
	return classKey{pos: slice, off: p.txOffset(sys * p.n)}, true
}

// thomasClass keys a strided p-Thomas block, one whole system, by the
// byte offset of the system's first row.
func (p *Pipeline[T]) thomasClass(blk int) (classKey, bool) {
	return classKey{off: p.txOffset(blk * p.n)}, true
}

// txOffset is txOffset for element i of the pipeline's arrays.
func (p *Pipeline[T]) txOffset(i int) int {
	return txOffset(i, num.SizeOf[T](), p.dev.TransactionBytes)
}

// SolveInto solves the batch into dst (length M·N, natural order:
// system i occupying [i*N, (i+1)*N)). After the first call on a
// pipeline it performs no heap allocations. The batch must match the
// pipeline's shape; dst must not alias the batch's slices.
func (p *Pipeline[T]) SolveInto(dst []T, b *matrix.Batch[T]) error {
	return p.SolveIntoCtx(context.Background(), dst, b)
}

// SolveIntoCtx is SolveInto with cooperative cancellation and
// transient-fault recovery.
//
// Cancellation: once ctx is done, every worker stops promptly (between
// systems, between a recording's thread blocks, and during retry
// backoff waits), the pool is joined with no goroutine leaks, and the
// solve returns an error matching both ErrCancelled and the context's
// own error. dst is written at whole-system granularity only, so every
// system's rows are either fully written or untouched; on the k = 0
// path dst is written by one final copy and is fully untouched by a
// cancelled solve.
//
// Faults: when the device carries a gpusim.Injector, faults strike the
// host twins. Each shard of the batch is a checkpointed unit of work —
// the twins never mutate their inputs — so a transient LaunchError is
// recovered by re-running just the faulted shard with capped
// exponential backoff (Config.Retry), and the recovered solution is
// bitwise identical to a fault-free run. A shard still faulting after
// the retry budget degrades gracefully: its systems are re-solved on
// the host through the pivoting GTSV path (or, under
// RetryPolicy.NoDegrade, the solve fails with ErrFaulted). The
// recovery activity is reported in Report().Faults.
func (p *Pipeline[T]) SolveIntoCtx(ctx context.Context, dst []T, b *matrix.Batch[T]) error {
	if err := p.checkShape(b.M, b.N, len(dst), b.Lower, b.Diag, b.Upper, b.RHS); err != nil {
		return err
	}
	ctx, start, err := p.admit(ctx)
	if err != nil {
		return err
	}
	defer p.release(start)
	if p.k != 0 {
		return p.solveHybrid(ctx, dst, b)
	}
	// k = 0: the twin runs Thomas per system over the caller's rows
	// into xi, and one copy publishes them. Only a recording reads the
	// interleaved layout, which record builds in vbuf.
	p.rows = b
	err = p.execute(ctx)
	p.rows = nil
	if err != nil {
		return err
	}
	// A degraded xi holds garbage here, but every degraded system of
	// dst is overwritten by degradedResolve before the solve returns.
	copy(dst, p.xi)
	return p.degradedResolve(dst, b)
}

// solveHybrid runs the k >= 1 path: tiled PCR into the reduced
// planes, then strided p-Thomas directly into dst. The caller's slices
// are unbound after the launches, so the pipeline does not keep the
// last batch alive until the next solve; with a stepper that builds a
// fresh batch every step, that retained batch raised the garbage
// collector's live heap, and so its heap goal, by a whole batch.
func (p *Pipeline[T]) solveHybrid(ctx context.Context, dst []T, b *matrix.Batch[T]) error {
	p.in = tiledpcr.NewArrays(b.Lower, b.Diag, b.Upper, b.RHS)
	p.bufs.X = gpusim.NewGlobal(dst)
	err := p.execute(ctx)
	p.in, p.bufs.X = tiledpcr.Arrays[T]{}, gpusim.Global[T]{}
	if err != nil {
		return err
	}
	return p.degradedResolve(dst, b)
}

// checkShape rejects operands that do not match the pipeline's M×N
// shape: the declared batch shape, the solution length, and the four
// coefficient planes.
func (p *Pipeline[T]) checkShape(m, n, out int, lower, diag, upper, rhs []T) error {
	size := p.m * p.n
	switch {
	case m != p.m || n != p.n:
		return fmt.Errorf("%w: batch is %dx%d, pipeline wants %dx%d", ErrShapeMismatch, m, n, p.m, p.n)
	case out != size:
		return fmt.Errorf("%w: solution has %d elements, pipeline wants %d", ErrShapeMismatch, out, size)
	case len(lower) != size || len(diag) != size || len(upper) != size || len(rhs) != size:
		return fmt.Errorf("%w: coefficient lengths do not match M*N=%d", ErrShapeMismatch, size)
	}
	return nil
}

// admit is the prologue of every solve: it takes the busy flag, rejects
// a closed pipeline and starts the service-time clock, then normalises
// ctx — an uncancellable context (Background, TODO) becomes nil, so the
// kernels run no per-block checks — and rejects one already done. On
// success the caller must defer release(start).
func (p *Pipeline[T]) admit(ctx context.Context) (context.Context, time.Time, error) {
	if !p.inUse.CompareAndSwap(false, true) {
		return nil, time.Time{}, ErrPipelineBusy
	}
	if p.closed {
		p.inUse.Store(false)
		return nil, time.Time{}, ErrPipelineClosed
	}
	start := time.Now()
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			p.release(start)
			return nil, time.Time{}, cancelled(err)
		}
	}
	return ctx, start, nil
}

// release ends a solve admitted at start. Every admitted solve — even a
// faulted or cancelled one, whose slot was occupied regardless —
// updates the last observed wall time, the serving pool's service-time
// hook, before the busy flag drops.
func (p *Pipeline[T]) release(start time.Time) {
	p.lastWall = time.Since(start)
	p.inUse.Store(false)
}

// execute is the one solve body behind every entry: it runs the bound
// launches on the host twins across the worker pool — recording them
// first on the process's first solve of the geometry — and folds the
// lanes' fault bookkeeping into the solve's FaultReport. The caller
// binds its layout first and re-solves the degraded systems after.
func (p *Pipeline[T]) execute(ctx context.Context) error {
	p.ctx = ctx
	p.frep.reset()
	for _, w := range p.workers {
		w.wf = workerFaults{}
	}
	err := p.run()
	p.mergeFaults()
	p.ctx = nil
	return err
}

// run obtains the launch geometry's Stats on the first solve — from
// the process-wide memo (memo.go), or by a sampled recording — and
// publishes them into the cached aggregate and the reusable Report.
// Recording only measures: every solve, a recording one included, then
// runs the host twins, whose outputs are the answer. Under auditTwin
// every run re-records every block first, panics if the Stats differ
// from the sampled ones published, the memo's included, and compares
// the twins' outputs with the simulated ones bit for bit.
func (p *Pipeline[T]) run() error {
	record := func(st *[2]gpusim.Stats) error { return p.record(st[:p.nKern], false) }
	if !p.recorded {
		key := newRecordKey(p.dev, p.launches[0].name, p.launches[0].tpb, p.launches[0].grid)
		key.m, key.n, key.k, key.c, key.g, key.bs, key.elem = p.m, p.n, p.k, p.c, p.g, p.bs, num.SizeOf[T]()
		st, err := recordOnce(p.ctx, key, record)
		if err != nil {
			return err
		}
		p.kern, p.recorded = st, true
		for i := range p.kern[:p.nKern] {
			p.total.Add(&p.kern[i])
			p.rep.Kernels = append(p.rep.Kernels, &p.kern[i])
		}
	}
	outs := [...][]T{p.bufs.X.Data, p.ra, p.rb, p.rc, p.rd}
	if auditTwin {
		full := func(st *[2]gpusim.Stats) error { return p.record(st[:p.nKern], true) }
		if err := auditRecording(full, &p.kern, &p.auditBuf, outs[:]); err != nil {
			return err
		}
		if p.rows != nil {
			// The kernel wrote xi interleaved; the twin writes rows.
			matrix.DeinterleaveVectorInto(p.auditBuf, p.xi, p.m, p.n)
		}
	}
	if err := p.replay(); err != nil || !auditTwin {
		return err
	}
	for _, w := range p.workers {
		if w.wf.degraded {
			return nil // its systems are re-solved on the host
		}
	}
	matchOutputs(p.auditBuf, outs[:])
	return nil
}

// record runs the launches' simulated blocks on the recording lane,
// with no injector, accumulating launch i's events into st[i]: one
// representative block per class of the launch's class key, scaled by
// the class's block count (sample.go), or, when full, every block —
// the identity classing the audit re-records through. The twins
// overwrite its outputs; only the audit reads them, from a full
// recording. A contiguous k = 0 solve's batch is interleaved first
// into vbuf, the layout the kernel reads. vbuf is built here and,
// outside the audit, dropped again, so only a recording holds its four
// M·N planes and a pipeline whose Stats came from the memo never does.
func (p *Pipeline[T]) record(st []gpusim.Stats, full bool) error {
	if p.rows != nil {
		if p.vbuf == nil {
			p.vbuf = matrix.NewInterleaved[T](p.m, p.n)
		}
		p.rows.ToInterleavedInto(p.vbuf)
		p.bindK0(p.vbuf, p.xi)
	}
	var err error
	for i := 0; i < len(st) && err == nil; i++ {
		err = recordLaunch(p.ctx, p.exec, &st[i], &p.launches[i], full)
	}
	if p.rows != nil && !auditTwin {
		p.vbuf = nil
		p.bindK0(nil, p.xi)
	}
	return err
}

// replay fans the shards out over the pool (the coordinator runs lane
// 0 inline). Every lane is always joined — even after an error — so
// the pool is quiescent and reusable when replay returns. A
// cancellation error takes precedence over fault errors in the merge.
func (p *Pipeline[T]) replay() error {
	for _, w := range p.workers[1:] {
		w.start <- struct{}{}
	}
	p.workers[0].err = p.runCheckpointed(p.workers[0])
	for _, w := range p.workers[1:] {
		<-w.done
	}
	var first error
	for _, w := range p.workers {
		if w.err == nil {
			continue
		}
		if first == nil || (errors.Is(w.err, ErrCancelled) && !errors.Is(first, ErrCancelled)) {
			first = w.err
		}
	}
	return first
}

// runCheckpointed executes worker w's shard on the host twins.
// Sharding is by whole systems for k >= 1, so the worker reduces and
// then solves the same systems — the inter-kernel dependency is
// contained within the shard and needs no global barrier. The shard is
// a checkpointed unit: the twins never mutate their inputs, so a
// transient LaunchError is recovered by re-running the whole shard
// (both launches for k >= 1) with capped exponential backoff until the
// retry budget is spent, at which point the shard degrades (its
// systems marked for the GTSV re-solve) or, under NoDegrade, fails
// with ErrFaulted. Without a cancellable context or an injector no
// check fires and no retry runs.
func (p *Pipeline[T]) runCheckpointed(w *pipeWorker[T]) error {
	maxR := p.cfg.Retry.maxRetries()
	for attempt := 0; ; attempt++ {
		slot, le := p.shardFault(w, attempt)
		if le == nil {
			if err := p.hostShard(w); err != nil {
				return cancelled(err)
			}
			return nil
		}
		if err := ctxErr(p.ctx); err != nil {
			return cancelled(err)
		}
		w.wf.faults++
		if le.Kind == gpusim.FaultHang {
			w.wf.hangs++
		}
		if attempt >= maxR {
			if p.cfg.Retry.NoDegrade {
				return fmt.Errorf("%w: shard retries exhausted: %w", ErrFaulted, le)
			}
			w.wf.degraded = true
			return nil
		}
		_, count := p.shardRange(w, slot)
		w.wf.retries[slot]++
		w.wf.retryBlk[slot] += count
		// The shard's first unit indexes the jitter hash, so concurrent
		// shards that fault on the same attempt back off apart.
		salt := uint64(w.firstSys)<<32 | uint64(w.firstBlk) + 1
		if err := sleepBackoff(p.ctx, p.cfg.Retry.backoff(attempt, salt)); err != nil {
			return cancelled(err)
		}
	}
}

// shardFault asks the injector about every block that attempt of w's
// shard covers, in launch order, before the twins run. A faulted
// attempt computes nothing: it poisons the faulted block's solution
// rows and reports the launch slot and the exact *LaunchError the
// simulated launch would have returned.
func (p *Pipeline[T]) shardFault(w *pipeWorker[T], attempt int) (int, *gpusim.LaunchError) {
	for slot := range p.launches[:p.nKern] {
		first, count := p.shardRange(w, slot)
		site := gpusim.FaultSite{Inj: p.dev.Faults, Kernel: p.launches[slot].name, Attempt: attempt}
		if le := site.First(first, count); le != nil {
			p.poison(slot, le.Block)
			return slot, le
		}
	}
	return 0, nil
}

// shardRange is the block range of launch slot that w's shard covers.
func (p *Pipeline[T]) shardRange(w *pipeWorker[T], slot int) (first, count int) {
	switch {
	case p.k == 0:
		return w.firstBlk, w.nBlk
	case slot == 0:
		return w.firstSys * p.g, w.nSys * p.g
	default:
		return w.firstSys, w.nSys
	}
}

// poison writes NaN over the solution rows of block blk of launch
// slot. A k = 0 block's systems are contiguous rows of the staged
// solution on the contiguous entry and interleaved columns on the
// interleaved one; a tiled-PCR block owns a slice of one system's
// rows, a strided p-Thomas block the whole system.
func (p *Pipeline[T]) poison(slot, blk int) {
	x := p.bufs.X.Data
	if p.k == 0 {
		lo, hi := blk*p.bs, min((blk+1)*p.bs, p.m)
		if p.rows != nil {
			fillNaN(x[lo*p.n : hi*p.n])
			return
		}
		for row := 0; row < len(x); row += p.m {
			fillNaN(x[row+lo : row+hi])
		}
		return
	}
	lo, hi := blk*p.n, (blk+1)*p.n
	if slot == 0 {
		sys, slice := blk/p.g, blk%p.g
		lo, hi = sys*p.n+min(slice*p.per, p.n), sys*p.n+min((slice+1)*p.per, p.n)
	}
	fillNaN(x[lo:hi])
}

// fillNaN overwrites x with NaN, the loudest mark a faulted attempt
// can leave: a recovery layer that skips the re-run cannot pass a
// bitwise check by luck.
func fillNaN[T num.Real](x []T) {
	for i := range x {
		x[i] = T(math.NaN())
	}
}

// mergeFaults folds the per-lane fault bookkeeping into the solve's
// FaultReport: fault and retry counts, the ascending list of degraded
// systems (lane shards are disjoint and ordered, so appending in lane
// order keeps it sorted), and the wasted-modeled-time estimate —
// re-executed blocks are charged their share of the recorded kernel
// time, and every hang one watchdog budget.
func (p *Pipeline[T]) mergeFaults() {
	r := &p.frep
	hangs := 0
	for _, w := range p.workers {
		wf := &w.wf
		r.Faults += wf.faults
		hangs += wf.hangs
		for slot := 0; slot < 2; slot++ {
			if wf.retries[slot] > 0 {
				r.addRetry(p.launches[slot].name, wf.retries[slot])
			}
			if wf.retryBlk[slot] > 0 {
				t := p.dev.EstimateTime(&p.kern[slot], num.SizeOf[T]())
				share := float64(wf.retryBlk[slot]) / float64(p.kern[slot].Blocks)
				r.WastedModeledTime += time.Duration(share * t * float64(time.Second))
			}
		}
		if !wf.degraded {
			continue
		}
		if p.k == 0 {
			lo, hi := w.firstBlk*p.bs, (w.firstBlk+w.nBlk)*p.bs
			if hi > p.m {
				hi = p.m
			}
			for i := lo; i < hi; i++ {
				r.Degraded = append(r.Degraded, i)
			}
		} else {
			for i := w.firstSys; i < w.firstSys+w.nSys; i++ {
				r.Degraded = append(r.Degraded, i)
			}
		}
	}
	r.WastedModeledTime += time.Duration(hangs) * watchdogBudget
}

// degradedResolve re-solves every degraded system on the host through
// the pivoting GTSV path, writing its rows of dst. The inputs were
// never mutated by the device attempts, so the re-solve sees the
// original batch. A system the direct solver also rejects (singular)
// zeroes its rows and contributes an ErrFaulted-wrapped error.
func (p *Pipeline[T]) degradedResolve(dst []T, b *matrix.Batch[T]) error {
	if len(p.frep.Degraded) == 0 {
		return nil
	}
	if p.gtsvWS == nil {
		p.gtsvWS = cpu.NewGTSVWorkspace[T](p.n)
	}
	var errs []error
	for _, i := range p.frep.Degraded {
		lo, hi := i*p.n, (i+1)*p.n
		var sys matrix.System[T]
		sys.Lower = b.Lower[lo:hi]
		sys.Diag = b.Diag[lo:hi]
		sys.Upper = b.Upper[lo:hi]
		sys.RHS = b.RHS[lo:hi]
		if err := cpu.SolveGTSVInto(&sys, dst[lo:hi], p.gtsvWS); err != nil {
			clear(dst[lo:hi])
			errs = append(errs, fmt.Errorf("%w: degraded re-solve of system %d: %v", ErrFaulted, i, err))
		}
	}
	return errors.Join(errs...)
}

// Report describes the most recent solve. The report (and its Stats)
// is recorded once and reused — it is owned by the pipeline and valid
// until Close.
func (p *Pipeline[T]) Report() *Report { return &p.rep }

// K returns the resolved PCR step count.
func (p *Pipeline[T]) K() int { return p.k }

// LastSolveTime returns the measured host duration of the most recent
// solve (zero before the first one) — the observed per-shape service
// time the serving pool's admission controller feeds its EWMA.
func (p *Pipeline[T]) LastSolveTime() time.Duration { return p.lastWall }

// Shape returns the fixed batch shape (M systems, N rows).
func (p *Pipeline[T]) Shape() (m, n int) { return p.m, p.n }

// Workers returns the size of the replay worker pool.
func (p *Pipeline[T]) Workers() int { return len(p.workers) }

// Device returns the pipeline's simulated device.
func (p *Pipeline[T]) Device() *gpusim.Device { return p.dev }

// Close stops the worker pool. A Close that races an in-flight solve
// returns ErrPipelineBusy without touching the pool (the solve keeps
// its arena); after a successful Close, SolveInto returns
// ErrPipelineClosed. Close is idempotent — repeat calls return nil.
func (p *Pipeline[T]) Close() error {
	if !p.inUse.CompareAndSwap(false, true) {
		return ErrPipelineBusy
	}
	defer p.inUse.Store(false)
	if p.closed {
		return nil
	}
	p.closed = true
	for _, w := range p.workers {
		if w.start != nil {
			close(w.start)
		}
	}
	return nil
}
