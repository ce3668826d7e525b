package core

import (
	"context"
	"errors"
	"fmt"
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
// every intermediate its host twins read — the k = 0 solution staging
// and c' plane, the recording lane and the per-worker twin state — and
// then solves any number of batches of that shape into caller-owned
// storage with zero steady-state heap allocations. Only a recording
// needs the M·N planes the simulated kernels alone read; it builds them
// and drops them again (bindRecording).
//
// Recording is pure measurement. The simulator's architectural events
// are a pure function of the launch geometry (shape, k, c, blocks per
// system, device), never of the coefficient data: the kernels contain
// no data-dependent control flow, and global arrays are 512-byte
// aligned so coalescing does not depend on where a particular batch
// happens to live. A pipeline supplies its launches, their class keys
// and the rows each block writes; its driver (driver.go), the one every
// recorded kernel runs on, does the rest. The process's first solve of
// a geometry records once, on one recording lane and with no injector,
// simulating one block per equivalence class of each launch (sample.go)
// and keeping the Stats in a process-wide memo (memo.go); Report
// describes every later solve exactly. Every solve, that first one
// included, computes its answer on the kernels' plain-Go host twins
// over the raw slices (hostShard, twin.go), which match the kernels
// bit for bit. Each shard asks the driver's fault site about the same
// (kernel, block, attempt) coordinates its simulated blocks would hit,
// so faults strike the twins exactly where they would on the device.
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

	// Arena (k == 0): xi, the solution the kernel writes interleaved
	// and the contiguous twin writes in rows, staged there so a
	// cancelled solve leaves dst untouched, and cp, the c' plane both
	// entries' twins index at the systems' own rows. A k >= 1 worker
	// holds its own N-row scratch instead (hybridTwin).
	xi, cp []T

	// The M·N planes only the simulated kernels read, nil except during
	// a recording (and under the audit): planes holds, for k >= 1, the
	// reduced a, b, c, d PCR writes and p-Thomas reads, then p-Thomas's
	// c' and d'; for k == 0, d' alone. vbuf holds the interleaved input
	// planes a recording of the contiguous k = 0 entry reads.
	planes [6][]T
	vbuf   *matrix.Interleaved[T]

	// The solve's binding, nil between solves: rows is the caller's
	// contiguous batch, iv the k = 0 interleaved entry's planes, and x
	// the solution the twins write (xi on the contiguous k = 0 entry).
	// Written by the coordinator before workers are signalled.
	rows *matrix.Batch[T]
	iv   *matrix.Interleaved[T]
	x    []T

	// The kernels' arrays, bound by bindRecording for a recording.
	in   tiledpcr.Arrays[T]
	bufs pthomas.Bufs[T]

	// The recorded kernels: the driver, which records and audits them
	// and holds their Stats; the solve's launches in order — one
	// p-Thomas launch for k = 0, tiled PCR then strided p-Thomas for
	// k >= 1; the window buffers the recording lane's tiled-PCR blocks
	// bind (k >= 1). rep is the Report handed out for every solve.
	drv      driver[T]
	launches [2]launch
	nKern    int
	win      *tiledpcr.Window[T]
	rep      Report

	// Fault-tolerant execution state. ctx is the current solve's
	// context (nil when it cannot be cancelled); frep accumulates the
	// solve's fault activity; gtsv is the (lazily built) host re-solve
	// of degraded systems, in either layout.
	ctx  context.Context
	frep FaultReport
	gtsv *cpu.StridedGTSV[T]

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

// pipeWorker is one lane of the pool: the host twins' state and the
// static shard of the batch it executes.
type pipeWorker[T num.Real] struct {
	// Host twin state (k >= 1).
	tw *hybridTwin[T]

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
	p := &Pipeline[T]{cfg: cfg, dev: dev, m: m, n: n, k: k, c: cfg.c(), g: 1}

	var key recordKey
	if k == 0 {
		p.launches[0], key = k0Launch(dev, &p.bufs, m, n, p.c)
		p.bs, p.grid = p.launches[0].tpb, p.launches[0].grid
		p.xi, p.cp = make([]T, m*n), make([]T, m*n)
		p.nKern = 1
	} else {
		p.g = cfg.resolveBlocks(m, n, k)
		p.per = num.CeilDiv(n, p.g)
		p.win = tiledpcr.NewWindowBuffers[T](k, p.c)
		tpb := 1 << k
		p.launches[0] = launch{"tiledPCR", tpb, m * p.g, p.pcrKernel(), p.pcrClass}
		p.launches[1] = launch{"pThomasStrided", tpb, m, p.thomasKernel(), p.thomasClass}
		p.nKern = 2
		key = recordKey{m: m, n: n, k: k, c: p.c, g: p.g, elem: num.SizeOf[T]()}
	}
	p.drv = newDriver[T](dev, key, p, p.launches[:p.nKern])
	p.rep = Report{K: p.k, C: p.c, BlocksPerSystem: p.g, Stats: &p.drv.total, Faults: &p.frep}
	for i := range p.nKern {
		p.rep.Kernels = append(p.rep.Kernels, &p.drv.kern[i])
	}
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
			// A shard of one system has no successor to replay for.
			w.tw = newHybridTwin[T](p.k, p.n, size >= 2)
		}
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

// k0Launch is the k = 0 p-Thomas launch over the m interleaved systems
// of n rows that *bufs binds while a recording runs, one thread per
// system, and its memo key's geometry fields with sub-tile scale c. It
// is the one k = 0 launch: a Pipeline's and a distributed slab's
// (slabKernel) alike, so equal shapes share a recording.
func k0Launch[T num.Real](dev *gpusim.Device, bufs *pthomas.Bufs[T], m, n, c int) (launch, recordKey) {
	bs := min(blockSizeK0, dev.MaxThreadsPerBlock)
	elem, tx := num.SizeOf[T](), dev.TransactionBytes
	kern := func(blk *gpusim.Block) {
		blk.PhaseNoSync(func(t *gpusim.Thread) {
			sys := blk.ID*bs + t.ID
			if sys >= m {
				return
			}
			pthomas.ThreadInterleaved(t, bufs, sys, m, n)
		})
	}
	// A block is keyed by the byte offset of its first system and its
	// count of systems, which is short only in the tail block: row j of
	// the block's systems lies at j·M plus that offset, for every array
	// alike.
	class := func(blk int) (classKey, bool) {
		first := blk * bs
		return classKey{span: min(bs, m-first), off: txOffset(first, elem, tx)}, true
	}
	return launch{"pThomas", bs, num.CeilDiv(m, bs), kern, class},
		recordKey{m: m, n: n, c: c, g: 1, bs: bs, elem: elem}
}

// k0Rows is where block blk of a k = 0 launch of bs threads writes a
// solution of m contiguous systems of n rows: its systems' rows.
func k0Rows(blk, bs, m, n int) (lo, hi, stride int) {
	return blk * bs * n, min((blk+1)*bs, m) * n, m * n
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
					p.bufs.A.Store(t, gi, r.A)
					p.bufs.B.Store(t, gi, r.B)
					p.bufs.C.Store(t, gi, r.C)
					p.bufs.D.Store(t, gi, r.D)
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

// blockRows is where block blk of launch slot writes the bound
// solution. A k = 0 block's systems are contiguous rows of the staged
// xi on the contiguous entry and their columns of every row on the
// interleaved one; a tiled-PCR block owns a slice of one system's
// rows, a strided p-Thomas block the whole system.
func (p *Pipeline[T]) blockRows(slot, blk int) (lo, hi, stride int) {
	switch {
	case p.k == 0 && p.rows != nil:
		return k0Rows(blk, p.bs, p.m, p.n)
	case p.k == 0:
		return blk * p.bs, min((blk+1)*p.bs, p.m), p.m
	case slot == 0:
		base, slice := blk/p.g*p.n, blk%p.g
		return base + min(slice*p.per, p.n), base + min((slice+1)*p.per, p.n), p.m * p.n
	default:
		return blk * p.n, (blk + 1) * p.n, p.m * p.n
	}
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
// backoff waits; at k = 0, whose twin sweeps several systems in
// lockstep, between groups of pthomas.Lanes systems on this entry and
// once per worker range on the interleaved one), the pool is joined
// with no goroutine leaks, and the
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
	return p.solveBatch(ctx, dst, b)
}

// solveBatch solves the contiguous batch b into dst. k >= 1 reduces
// each system by tiled PCR into a worker's N reduced rows, then solves
// them by strided p-Thomas directly into dst. k = 0 runs Thomas per
// system over the caller's rows into xi, and one copy publishes them,
// so a cancelled solve leaves dst untouched; only a recording reads the
// interleaved layout, which bindRecording builds in vbuf. The caller's
// slices are bound for the solve only (bindBatch), so the pipeline does
// not keep the last batch alive until the next solve; with a stepper
// that builds a fresh batch every step, that retained batch raised the
// garbage collector's live heap, and so its heap goal, by a whole
// batch.
func (p *Pipeline[T]) solveBatch(ctx context.Context, dst []T, b *matrix.Batch[T]) error {
	p.bindBatch(b, dst)
	err := p.execute(ctx)
	p.bindBatch(nil, nil)
	if err != nil {
		return err
	}
	if p.k == 0 {
		// A degraded xi holds garbage here, but every degraded system of
		// dst is overwritten by degradedResolve before the solve returns.
		copy(dst, p.xi)
	}
	return p.degradedResolve(b.Strided(dst))
}

// bindBatch points the twins, and through bindRecording the kernels,
// at the caller's contiguous batch b and solution dst, or, given nil,
// unbinds them. At k = 0 the solution is staged in xi.
func (p *Pipeline[T]) bindBatch(b *matrix.Batch[T], dst []T) {
	p.rows, p.x = b, dst
	if p.k == 0 && b != nil {
		p.x = p.xi
	}
}

// bindRecording builds and binds the planes only the kernels read (on)
// and drops them after the recording (off), so only a recording holds
// them and a pipeline whose Stats came from the memo never does: at
// k >= 1 the reduced planes, c' and d'; at k = 0 d', and, for the
// contiguous entry, vbuf, into which on interleaves the bound rows,
// since the kernel coalesces over the interleaved layout. Under the
// audit off keeps the planes: the k >= 1 twin then writes its reduced
// rows into them, for the audit to compare, and the contiguous k = 0
// entry deinterleaves the kernel's xi, through vbuf's RHS plane, to
// meet the twin's rows.
func (p *Pipeline[T]) bindRecording(on bool) {
	if !on {
		if auditTwin && p.k == 0 && p.rows != nil {
			matrix.DeinterleaveVectorInto(p.vbuf.RHS, p.xi, p.m, p.n)
			copy(p.xi, p.vbuf.RHS)
		}
		p.in, p.bufs = tiledpcr.Arrays[T]{}, pthomas.Bufs[T]{}
		if !auditTwin {
			p.planes, p.vbuf = [6][]T{}, nil
		}
		return
	}
	count := 1 // d'
	if p.k > 0 {
		count = 6 // the reduced a, b, c, d, then c' and d'
	}
	for i := range count {
		if p.planes[i] == nil {
			p.planes[i] = make([]T, p.m*p.n)
		}
	}
	pl := p.planes
	if p.k > 0 {
		p.in = tiledpcr.NewArrays(p.rows.Lower, p.rows.Diag, p.rows.Upper, p.rows.RHS)
		p.bufs = pthomas.NewBufs(pl[0], pl[1], pl[2], pl[3], pl[4], pl[5], p.x)
		return
	}
	v := p.iv
	if p.rows != nil {
		if p.vbuf == nil {
			p.vbuf = matrix.NewInterleaved[T](p.m, p.n)
		}
		p.rows.ToInterleavedInto(p.vbuf)
		v = p.vbuf
	}
	p.bufs = pthomas.NewBufs(v.Lower, v.Diag, v.Upper, v.RHS, p.cp, pl[0], p.x)
}

// outputs is what the audit compares: the bound solution and, at
// k >= 1, the reduced planes.
func (p *Pipeline[T]) outputs() [][]T {
	if p.k == 0 {
		return [][]T{p.x}
	}
	return append([][]T{p.x}, p.planes[:4]...)
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

// execute is the one solve body behind every entry: the driver runs
// the bound launches — recording them first on the process's first
// solve of the geometry — and their host twins across the worker pool
// (replay); the lanes' fault bookkeeping is folded into the solve's
// FaultReport. The caller binds its layout first and re-solves the
// degraded systems after.
func (p *Pipeline[T]) execute(ctx context.Context) error {
	p.ctx = ctx
	p.frep.reset()
	for _, w := range p.workers {
		w.wf = workerFaults{}
	}
	err := p.drv.run(ctx, p.replay)
	p.mergeFaults()
	p.ctx = nil
	return err
}

// replay fans the shards out over the pool (the coordinator runs lane
// 0 inline) and reports whether any degraded. Every lane is always
// joined — even after an error — so the pool is quiescent and reusable
// when replay returns. A cancellation error takes precedence over fault
// errors in the merge.
func (p *Pipeline[T]) replay() (degraded bool, err error) {
	for _, w := range p.workers[1:] {
		w.start <- struct{}{}
	}
	p.workers[0].err = p.runCheckpointed(p.workers[0])
	for _, w := range p.workers[1:] {
		<-w.done
	}
	for _, w := range p.workers {
		degraded = degraded || w.wf.degraded
		if w.err != nil && (err == nil || (errors.Is(w.err, ErrCancelled) && !errors.Is(err, ErrCancelled))) {
			err = w.err
		}
	}
	return degraded, err
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
		slot, le := p.drv.fault(attempt, p.x, func(slot int) (int, int) { return p.shardRange(w, slot) })
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

// systems is the range of systems w's shard solves.
func (p *Pipeline[T]) systems(w *pipeWorker[T]) (lo, hi int) {
	if p.k == 0 {
		return w.firstBlk * p.bs, min((w.firstBlk+w.nBlk)*p.bs, p.m)
	}
	return w.firstSys, w.firstSys + w.nSys
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
		for slot, l := range p.launches[:p.nKern] {
			if wf.retries[slot] > 0 {
				r.addRetry(l.name, wf.retries[slot])
			}
			if wf.retryBlk[slot] > 0 {
				st := &p.drv.kern[slot]
				t := p.dev.EstimateTime(st, num.SizeOf[T]())
				share := float64(wf.retryBlk[slot]) / float64(st.Blocks)
				r.WastedModeledTime += time.Duration(share * t * float64(time.Second))
			}
		}
		if !wf.degraded {
			continue
		}
		for i, hi := p.systems(w); i < hi; i++ {
			r.Degraded = append(r.Degraded, i)
		}
	}
	r.WastedModeledTime += time.Duration(hangs) * watchdogBudget
}

// degradedResolve re-solves every degraded system of v on the host
// through the pivoting GTSV path (cpu.StridedGTSV), in either layout.
// The inputs were never mutated by the twins, so the re-solve sees the
// original batch. A system the direct solver also rejects (singular)
// zeroes its rows and contributes an ErrFaulted-wrapped error. Only the
// pipeline's first degraded solve allocates, to build p.gtsv.
func (p *Pipeline[T]) degradedResolve(v matrix.Strided[T]) error {
	if len(p.frep.Degraded) == 0 {
		return nil
	}
	if p.gtsv == nil {
		p.gtsv = cpu.NewStridedGTSV[T](p.n)
	}
	var errs []error
	for _, i := range p.frep.Degraded {
		if err := p.gtsv.Resolve(v, i); err != nil {
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
