package gputrid

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"time"

	"gputrid/internal/clock"
	"gputrid/internal/guard"
	"gputrid/internal/pool"
)

// Clock is the serving stack's injectable control-plane time source
// (wall time in production, a virtual clock in deterministic scenario
// replays). See PoolConfig.Clock.
type Clock = clock.Clock

// Typed serving-layer errors, matchable with errors.Is through the
// "gputrid:"-prefixed wrappers Pool returns.
var (
	// ErrOverloaded matches admission-control rejections: the shape's
	// wait queue was full, or the request's deadline was infeasible
	// given the observed service time. The concrete error is an
	// *OverloadError with a congestion snapshot (errors.As).
	ErrOverloaded = pool.ErrOverloaded
	// ErrPoolClosed matches requests that arrive at (or are queued in)
	// a pool whose Close has begun.
	ErrPoolClosed = pool.ErrClosed
)

// OverloadError is the typed fail-fast rejection of admission control,
// carrying the shape, the rejection reason, and a queue-depth
// snapshot; see the pool package for fields.
type OverloadError = pool.OverloadError

// OverloadReason says which admission check rejected a request.
type OverloadReason = pool.OverloadReason

// The admission rejection reasons.
const (
	QueueFull          = pool.QueueFull
	DeadlineInfeasible = pool.DeadlineInfeasible
)

// BreakerPolicy tunes the pool's circuit breaker; the zero value is
// the production default (20-solve window, trip at 50% degraded with
// ≥8 samples, 100ms cooldown, 3 probe successes to close).
type BreakerPolicy = pool.BreakerPolicy

// BreakerState is the circuit breaker's position.
type BreakerState = pool.BreakerState

// The breaker states.
const (
	BreakerClosed   = pool.BreakerClosed
	BreakerOpen     = pool.BreakerOpen
	BreakerHalfOpen = pool.BreakerHalfOpen
)

// BreakerSnapshot is the observable breaker state.
type BreakerSnapshot = pool.BreakerSnapshot

// PoolStats snapshots a Pool: warmed shapes, in-flight and queued
// requests, admission and route counters, breaker state.
type PoolStats = pool.Stats

// PoolConfig sizes a Pool. The zero value is a small production
// default: 2 solvers and a queue of 8 per shape, at most 8 warmed
// shapes, the default breaker, no extra solver options.
type PoolConfig struct {
	// Capacity is the number of warmed Solver instances per shape —
	// the per-shape concurrency limit; 0 means 2.
	Capacity int
	// QueueLimit bounds the requests waiting per shape; beyond it
	// admission fails fast with ErrOverloaded. 0 means 4*Capacity;
	// negative disables queueing.
	QueueLimit int
	// MaxShapes bounds the distinct warmed shapes (LRU idle shapes are
	// evicted past it); 0 means 8.
	MaxShapes int
	// Breaker tunes the circuit breaker.
	Breaker BreakerPolicy
	// Clock is the pool's control-plane time source (idle-eviction
	// stamps, deadline feasibility, breaker cooldown); nil means wall
	// time. Scenario runs inject the fleet's virtual clock so LRU
	// eviction replays deterministically.
	Clock Clock
	// SolverOptions are applied to every Solver the pool builds
	// (WithDevice, WithK, WithWorkers, WithFaultInjection, ...). The
	// solvers of the pool's dedicated megabatch stations (the ones
	// SolveMegabatch leases) get WithK(0) after them: pure interleaved
	// p-Thomas, whose per-system arithmetic is independent of the
	// batch — the basis of the coalesced-equals-serial bitwise
	// guarantee — and which consumes the megabatch's interleaved
	// layout natively, skipping the blocked transpose.
	SolverOptions []Option
}

// Route says which execution path served a pool solve.
type Route int

const (
	// RouteDevice: the warmed hybrid solver (simulated device) path.
	RouteDevice Route = iota
	// RouteFallback: the host pivoting GTSV path, used while the
	// circuit breaker is open (or half-open, for non-probe traffic).
	RouteFallback
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RouteDevice:
		return "device"
	case RouteFallback:
		return "fallback"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// PoolResult is a pool solve's result: the usual Result plus how the
// request was served. Unlike Solver results, X and Faults are owned by
// the caller — the pool copies them out of the solver's arenas before
// recycling the instance.
type PoolResult[T Real] struct {
	*Result[T]
	// Route says which path produced X. Fallback results carry no
	// device stats (Stats is nil, ModeledTime 0).
	Route Route
	// Wait is the admission wait: time from Solve entry to a granted
	// solver (0 for fallback routes).
	Wait time.Duration
	// Rescued counts the device-route systems the verdict re-solved on
	// the host pivoting path (0 on fallback routes, where every system
	// is solved there).
	Rescued int
}

// Pool is the concurrent serving layer over reusable Solvers: it
// multiplexes any number of concurrent callers onto a bounded set of
// warmed, shape-keyed Solver instances with overload protection.
//
//   - Admission control: per shape, at most Capacity solves run while
//     at most QueueLimit requests wait; beyond that Solve fails fast
//     with ErrOverloaded instead of letting latency collapse.
//   - Backpressure and deadlines: every Solve respects its context;
//     requests whose deadline cannot be met given the observed
//     per-shape service time (an EWMA fed by each solve) are rejected
//     early, while queued requests whose context ends return an error
//     matching ErrCancelled.
//   - Circuit breaker: sustained fault degradation (FaultReport
//     activity from the transient-fault layer) trips the breaker and
//     routes traffic to the host pivoting GTSV fallback; after a
//     cooldown, half-open probes test the device path and close the
//     breaker once they come back clean.
//   - Graceful drain: Close stops admissions, drains in-flight solves,
//     and force-cancels them through the PR 4 context paths when its
//     own context expires; all solver worker goroutines settle.
//
// A Pool is safe for concurrent use by any number of goroutines.
type Pool[T Real] struct {
	cfg   PoolConfig
	inner *pool.Pool[*Solver[T]]
}

// NewPool builds an overload-safe serving pool. Solvers are created
// lazily per shape (use Warm to pre-build a shape's complement).
func NewPool[T Real](cfg PoolConfig) *Pool[T] {
	megaOpts := append(append([]Option{}, cfg.SolverOptions...), WithK(0))
	inner := pool.New(
		pool.Config{
			Capacity:   cfg.Capacity,
			QueueLimit: cfg.QueueLimit,
			MaxShapes:  cfg.MaxShapes,
			Breaker:    cfg.Breaker,
			Clock:      cfg.Clock,
		},
		func(m, n int, mega bool) (*Solver[T], error) {
			if mega {
				return NewSolver[T](m, n, megaOpts...)
			}
			return NewSolver[T](m, n, cfg.SolverOptions...)
		},
		func(s *Solver[T]) error { return s.Close() },
		func(s *Solver[T]) time.Duration { return s.ModeledTime() },
	)
	return &Pool[T]{cfg: cfg, inner: inner}
}

// Warm eagerly builds the full solver complement for a shape, so the
// first requests are not serialized behind arena allocation and, for
// the process's first use of the shape, the recording solve.
func (p *Pool[T]) Warm(m, n int) error {
	if err := p.inner.Warm(m, n); err != nil {
		return fmt.Errorf("gputrid: %w", err)
	}
	return nil
}

// Solve solves the batch through the pool: it validates the input,
// asks the breaker for a route, acquires a warmed Solver (waiting in
// the shape's bounded queue if necessary), and runs the solve under
// the request context, or solves on the host pivoting path while the
// breaker is open. The pool's verdict (guard.Judge) then re-solves each
// system whose residual fails on the host pivoting path. Errors are
// typed: ErrOverloaded (admission rejected), ErrPoolClosed (pool
// draining), ErrCancelled (context ended while queued or mid-solve),
// ErrFaulted (unrecovered device fault), ErrUnrecoverable (the joined
// *SolveErrors of the systems the verdict could not solve). The
// returned result is caller-owned.
func (p *Pool[T]) Solve(ctx context.Context, b *Batch[T]) (*PoolResult[T], error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("gputrid: invalid batch: %w", err)
	}
	start := time.Now()
	var res *PoolResult[T]
	device, err := p.lease(ctx, false, b.M, b.N, func(ctx context.Context, s *Solver[T]) error {
		wait := time.Since(start)
		x := make([]T, b.M*b.N)
		if err := s.SolveBatchIntoCtx(ctx, x, b); err != nil {
			return err
		}
		res = &PoolResult[T]{
			Result: &Result[T]{
				X:               x,
				K:               s.K(),
				BlocksPerSystem: s.BlocksPerSystem(),
				Stats:           cloneStats(s.Stats()),
				ModeledTime:     s.ModeledTime(),
				WallTime:        s.LastSolveTime(),
				Faults:          cloneFaultReport(s.FaultReport()),
			},
			Route: RouteDevice,
			Wait:  wait,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !device {
		res = &PoolResult[T]{Result: &Result[T]{X: make([]T, b.M*b.N)}, Route: RouteFallback}
	}
	// Verdict failures never reach the breaker: they indicate sick
	// input systems, not a sick device.
	var errs []error
	guard.Judge(b.Strided(res.X), b.M, nil, !device, func(rep guard.SystemReport) {
		if rep.Err != nil {
			errs = append(errs, rep.Err)
		} else if device && rep.Stage == guard.StagePivot {
			res.Rescued++
		}
	})
	if errs != nil {
		return nil, fmt.Errorf("gputrid: %w", errors.Join(errs...))
	}
	if !device {
		res.WallTime = time.Since(start)
	}
	return res, nil
}

// lease runs one solve of either request kind under the breaker and
// lease protocol. While the breaker keeps traffic off the device it
// admits the request to the breaker-open route instead: device is
// false, run does not run, and the caller solves on the host pivoting
// path (no queue, no device, stable for any nonsingular system).
// Otherwise it acquires a solver from the shape's direct or megabatch
// station, runs run on it under the lease's context, and releases the
// lease. After any outcome but cancellation the release feeds the
// station's service-time estimate with the solve's measured time, and
// the breaker counts the solve as degraded when it failed or its fault
// layer fired; a cancelled solve gives no verdict on the device, so
// its probe slot is abandoned. run must copy out whatever it reads off
// the solver: the release hands the solver to the next request.
//
//tridlint:hotpath
func (p *Pool[T]) lease(ctx context.Context, mega bool, m, n int, run func(ctx context.Context, s *Solver[T]) error) (device bool, err error) {
	device, probe := p.inner.Route()
	if !device {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("gputrid: %w: %w", ErrCancelled, err)
		}
		p.inner.RecordFallback()
		return false, nil
	}
	var l *pool.Lease[*Solver[T]]
	if mega {
		l, err = p.inner.AcquireMega(ctx, m, n)
	} else {
		l, err = p.inner.Acquire(ctx, m, n)
	}
	if err != nil {
		p.inner.Abandon(probe)
		return true, fmt.Errorf("gputrid: %w", err)
	}
	s := l.Solver
	err = run(l.Ctx, s)
	if errors.Is(err, ErrCancelled) {
		l.Release(0)
		p.inner.Abandon(probe)
		return true, err
	}
	degraded := err != nil || s.FaultReport() != nil
	l.Release(s.LastSolveTime())
	p.inner.Record(probe, degraded)
	return true, err
}

// Stats snapshots the pool's admission, routing and breaker state.
func (p *Pool[T]) Stats() PoolStats { return p.inner.Stats() }

// Breaker returns the circuit breaker's observable state.
func (p *Pool[T]) Breaker() BreakerSnapshot { return p.inner.Breaker() }

// Close gracefully drains the pool: admissions stop immediately (new
// and queued requests fail with ErrPoolClosed), in-flight solves run
// to completion, and when ctx expires first they are force-cancelled
// through their solve contexts. All solver worker goroutines are
// settled and every Solver closed before Close returns. Idempotent;
// returns nil on a clean drain and an error wrapping ctx's error when
// solves had to be force-cancelled.
func (p *Pool[T]) Close(ctx context.Context) error {
	if err := p.inner.Close(ctx); err != nil {
		return fmt.Errorf("gputrid: %w", err)
	}
	return nil
}

// cloneStats copies the recorded device events out of the solver, so
// a pool result holds no pointer into the solver's report: results
// outlive the solver's recycle to other requests and its Close.
func cloneStats(s *Stats) *Stats {
	if s == nil {
		return nil
	}
	c := *s
	return &c
}

// cloneFaultReport deep-copies a solve's fault report out of the
// solver's reusable arena, so pool results stay valid after the
// solver is recycled to another request.
func cloneFaultReport(r *FaultReport) *FaultReport {
	if r == nil {
		return nil
	}
	c := &FaultReport{Faults: r.Faults, WastedModeledTime: r.WastedModeledTime}
	if len(r.Degraded) > 0 {
		c.Degraded = append([]int(nil), r.Degraded...)
	}
	if len(r.Retries) > 0 {
		c.Retries = maps.Clone(r.Retries)
	}
	return c
}
