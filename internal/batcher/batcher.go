// Package batcher coalesces concurrent small solve requests into
// megabatches solved in one device pass.
//
// The paper's throughput comes from batching: one k-step PCR +
// p-Thomas launch over M interleaved systems amortizes kernel launch
// and pipeline overheads that a 1-system request pays in full. A
// serving tier, though, receives mostly 1-to-few-system requests from
// independent clients. The batcher bridges the two worlds: requests
// for the same row count N land in a per-shape coalescing queue, are
// appended into an interleaved megabatch (append is a strided copy —
// the layout the k = 0 kernels consume natively, so the coalesced
// solve never pays the 32×32 blocked transpose; cf. Gloster et al.,
// arXiv:1909.04539), and flush to the solver as one batch when either
//
//   - the watermark is reached (Count + next request would exceed
//     MaxBatch — the flight seals and flushes immediately), or
//   - the deadline expires (MaxWait after the flight's first request,
//     pulled earlier by any request whose context deadline minus a
//     fixed 200µs slack would otherwise be missed), or
//   - the batcher closes (remaining flights drain).
//
// Each caller gets back exactly its own systems, demultiplexed from
// the megabatch solution, and its own verdicts: a corrupt system in a
// coalesced batch fails only the request that submitted it (the
// SolveFunc reports per-system verdicts; whole-batch errors are the
// exception, not the rule). Results are bitwise identical to solving
// each request alone at k = 0, because the interleaved p-Thomas
// arithmetic of one system is independent of how many neighbors share
// the batch; unused megabatch columns are padded with identity
// systems so they stay inert.
//
// All waiting is deadline-driven through an injected clock.TimerClock,
// so flush policy is deterministic under a VirtualClock; the
// clockinject analyzer keeps wall-clock reads out. Steady state — a
// warm queue coalescing, solving and demuxing — performs no heap
// allocations: flights, pendings and megabatch planes recycle through
// per-queue free lists.
//
// Lock ranks (see internal/analysis/lockorder): the batcher registry
// lock is rank 15, each queue lock rank 16 — both above the fleet
// lock (10) and below the pool (20), so a solve hook may take pool
// locks and a fleet router may call Solve, but never the reverse.
package batcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gputrid/internal/clock"
	"gputrid/internal/core"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Typed errors returned by Solve.
var (
	// ErrClosed reports a Solve after Close.
	ErrClosed = errors.New("batcher: closed")
	// ErrTooLarge reports a request with more systems than MaxBatch;
	// callers should route such requests directly to the solver.
	ErrTooLarge = errors.New("batcher: request exceeds megabatch capacity")
	// ErrSaturated reports that the shape's queue already holds
	// MaxQueuedFlights sealed megabatches awaiting the flusher — the
	// coalescing tier's admission-control signal (shed, don't buffer).
	ErrSaturated = errors.New("batcher: queue saturated")
	// ErrShapeLimit reports a request for a new N when maxShapes
	// queues are already live.
	ErrShapeLimit = errors.New("batcher: too many active shapes")
)

// Request is one caller's batch of M contiguous systems of N rows
// (row j of system i at i*N+j in each plane). X is the destination,
// length M*N in the same natural order; it is written only on a nil
// or per-system-verdict error return, never while the request waits.
type Request[T num.Real] struct {
	M, N                    int
	Lower, Diag, Upper, RHS []T
	X                       []T
}

// Result describes how one request travelled through the coalescer.
type Result struct {
	// Systems is the request's own system count (echoed back).
	Systems int
	// FlushSize is the total system count of the megabatch the
	// request rode in — the coalescing win is FlushSize/Systems.
	FlushSize int
	// Rescued counts the request's systems that needed the per-system
	// rescue path (guard-failed fast solutions re-solved).
	Rescued int
	// Wait is how long the request sat in the queue before its flight
	// flushed, by the batcher's injected clock.
	Wait time.Duration
}

// Verdict is the per-system outcome a SolveFunc reports: Err fails
// only the request that owns the system; Rescued marks a system whose
// fast solution was replaced by the rescue path.
type Verdict struct {
	Err     error
	Rescued bool
}

// Megabatch is the unit of work handed to the SolveFunc: Count
// systems live in columns [0, Count) of V (the remaining columns are
// identity padding and may be solved or skipped freely), the solution
// is written interleaved into Xi (length V.M*V.N), and per-system
// outcomes into Verdicts[:Count]. Scratch is a caller-owned float64
// buffer of length 4*V.M for residual scans, so a guarding SolveFunc
// allocates nothing. The megabatch is reused across flushes; the
// SolveFunc must not retain any of its slices.
type Megabatch[T num.Real] struct {
	V        *matrix.Interleaved[T]
	Count    int
	Xi       []T
	Verdicts []Verdict
	Scratch  []float64
}

// SolveFunc solves one megabatch. A non-nil error fails every request
// in the flight (reserve it for whole-batch failures: pool overload,
// cancellation); per-system trouble goes in Verdicts instead.
type SolveFunc[T num.Real] func(ctx context.Context, mb *Megabatch[T]) error

// Config parameterizes a Batcher. The zero value of every field but
// Solve is usable: 64-system megabatches, 2ms maximum coalescing
// wait, 4 queued flights, wall clock.
type Config[T num.Real] struct {
	// MaxBatch is the megabatch capacity in systems (the M the
	// downstream solver is built for).
	MaxBatch int
	// MaxWait bounds how long the first request of a flight waits for
	// company before the flight flushes anyway.
	MaxWait time.Duration
	// MaxQueuedFlights caps sealed megabatches awaiting the flusher
	// per queue; beyond it Solve sheds with ErrSaturated.
	MaxQueuedFlights int
	// Clock is the time source for waits and deadlines; nil means
	// clock.WallClock.
	Clock clock.TimerClock
	// Solve runs a megabatch. Required.
	Solve SolveFunc[T]
}

const (
	// slackMargin is subtracted from a request's context deadline to
	// decide how early its flight must flush to still answer in time.
	slackMargin = 200 * time.Microsecond
	// maxShapes caps the number of live per-N queues (each owns
	// recycled megabatch planes, so the cap bounds memory).
	maxShapes = 8
)

// Batcher coalesces same-shaped requests into megabatches. Safe for
// concurrent use by any number of goroutines.
type Batcher[T num.Real] struct {
	maxBatch  int
	maxWait   time.Duration
	maxQueued int
	clk       clock.TimerClock
	solve     SolveFunc[T]

	mu     sync.Mutex //tridlint:lockrank 15
	queues map[int]*queue[T]
	closed bool
	wg     sync.WaitGroup

	admitted        atomic.Uint64
	admittedSystems atomic.Uint64
	pendingSystems  atomic.Int64
	flushWatermark  atomic.Uint64
	flushDeadline   atomic.Uint64
	flushClose      atomic.Uint64
	flushedSystems  atomic.Uint64
	paddedSystems   atomic.Uint64
	maxFlushSystems atomic.Uint64
	saturated       atomic.Uint64
	cancelledWaits  atomic.Uint64
	failedFlushes   atomic.Uint64
}

// New builds a Batcher from cfg, applying defaults for zero fields.
func New[T num.Real](cfg Config[T]) (*Batcher[T], error) {
	if cfg.Solve == nil {
		return nil, errors.New("batcher: Config.Solve is required")
	}
	b := &Batcher[T]{
		maxBatch:  cfg.MaxBatch,
		maxWait:   cfg.MaxWait,
		maxQueued: cfg.MaxQueuedFlights,
		clk:       cfg.Clock,
		solve:     cfg.Solve,
		queues:    make(map[int]*queue[T]),
	}
	if b.maxBatch <= 0 {
		b.maxBatch = 64
	}
	if b.maxWait <= 0 {
		b.maxWait = 2 * time.Millisecond
	}
	if b.maxQueued <= 0 {
		b.maxQueued = 4
	}
	if b.clk == nil {
		b.clk = clock.WallClock{}
	}
	return b, nil
}

// MaxBatch returns the resolved megabatch capacity, so front-ends can
// route oversized requests around the coalescer.
func (b *Batcher[T]) MaxBatch() int { return b.maxBatch }

// Solve submits the request and blocks until its flight has flushed
// and its systems are demultiplexed into req.X, or ctx is cancelled.
// The returned error is either an admission error (ErrClosed,
// ErrTooLarge, ErrSaturated, ErrShapeLimit, a shape-mismatch report),
// a cancellation matching core.ErrCancelled, a whole-flight solve
// failure, or a join of this request's own per-system verdict errors
// — never another request's. After the first flush at a shape, a
// Solve on the warm path performs no heap allocations.
func (b *Batcher[T]) Solve(ctx context.Context, req *Request[T]) (Result, error) {
	if err := b.validate(req); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return Result{}, fmt.Errorf("batcher: wait: %w: %w", core.ErrCancelled, context.Cause(ctx))
	}
	q, err := b.queueFor(req.N)
	if err != nil {
		return Result{}, err
	}
	p, err := q.admit(ctx, req, b.clk.Now())
	if err != nil {
		return Result{}, err
	}
	b.admitted.Add(1)
	b.admittedSystems.Add(uint64(req.M))
	b.pendingSystems.Add(int64(req.M))
	select {
	case <-p.done:
	case <-ctx.Done():
		if p.state.CompareAndSwap(stateWaiting, stateCancelled) {
			// We won the race against the flusher: the slot's systems
			// will be dropped (not demuxed) and the pending recycled
			// by the flusher's compaction pass.
			b.cancelledWaits.Add(1)
			b.pendingSystems.Add(-int64(req.M))
			return Result{}, fmt.Errorf("batcher: wait: %w: %w", core.ErrCancelled, context.Cause(ctx))
		}
		// The flusher claimed the slot first; the solve already ran
		// for us, so take the answer (it is about to arrive).
		<-p.done
	}
	res, err := p.res, p.err
	q.recycle(p)
	return res, err
}

// validate rejects malformed requests before they touch a queue.
func (b *Batcher[T]) validate(req *Request[T]) error {
	if req.M <= 0 || req.N <= 0 {
		return fmt.Errorf("batcher: %w: request shape %dx%d", core.ErrShapeMismatch, req.M, req.N)
	}
	if req.M > b.maxBatch {
		return fmt.Errorf("batcher: %w: %d systems > MaxBatch %d", ErrTooLarge, req.M, b.maxBatch)
	}
	size := req.M * req.N
	if len(req.Lower) != size || len(req.Diag) != size || len(req.Upper) != size ||
		len(req.RHS) != size || len(req.X) != size {
		return fmt.Errorf("batcher: %w: plane lengths (%d,%d,%d,%d) and dst %d want %d",
			core.ErrShapeMismatch,
			len(req.Lower), len(req.Diag), len(req.Upper), len(req.RHS), len(req.X), size)
	}
	return nil
}

// queueFor returns (creating if needed) the coalescing queue for
// n-row systems.
func (b *Batcher[T]) queueFor(n int) (*queue[T], error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if q, ok := b.queues[n]; ok {
		return q, nil
	}
	if len(b.queues) >= maxShapes {
		return nil, fmt.Errorf("batcher: %w: %d live", ErrShapeLimit, len(b.queues))
	}
	q := &queue[T]{b: b, n: n, kick: make(chan struct{}, 1)}
	q.timer = b.clk.NewTimer(time.Hour)
	q.timer.Stop()
	b.queues[n] = q
	b.wg.Add(1)
	go q.run()
	return q, nil
}

// Close flushes every buffered flight, waits for the flushers to
// drain, and rejects further Solves with ErrClosed. Requests admitted
// before Close still complete normally. Idempotent.
func (b *Batcher[T]) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	qs := make([]*queue[T], 0, len(b.queues))
	for _, q := range b.queues {
		qs = append(qs, q)
	}
	b.mu.Unlock()
	if !already {
		for _, q := range qs {
			q.mu.Lock()
			q.closed = true
			q.mu.Unlock()
			q.kickNow()
		}
	}
	b.wg.Wait()
}
