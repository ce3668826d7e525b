// Package pool implements the overload-safe serving layer: it
// multiplexes many concurrent callers onto a bounded set of warmed,
// shape-keyed solver instances, with admission control (a bounded wait
// queue per shape, fail-fast typed rejection when it is full),
// deadline-aware early rejection (an EWMA of per-shape service time,
// seeded from the cost model, predicts whether a queued request could
// ever meet its deadline), a per-device circuit breaker (sustained
// fault degradation trips traffic over to the CPU fallback, with
// half-open probing to detect recovery), and graceful drain (Close
// stops admissions, waits for in-flight solves, and force-cancels them
// through their contexts when its own deadline expires).
//
// The package is generic over the solver type S so the machinery is
// testable with fake solvers; the public gputrid.Pool[T] instantiates
// it with *gputrid.Solver[T].
package pool

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputrid/internal/clock"
	"gputrid/internal/core"
)

// Key identifies a batch shape: M systems of N rows.
type Key struct{ M, N int }

// skey identifies a station: a shape plus whether it serves megabatch
// solvers. Megabatch stations hold solvers the build hook made for
// them (interleaved-native, batching-front-end tuned) and are warmed,
// leased, evicted and drained by exactly the same machinery as regular
// stations — they are just distinct keys in the same map, so a shape
// can have both kinds warmed at once.
type skey struct {
	Key
	Mega bool
}

// Config sizes the pool. The zero value is a small production default:
// 2 solvers and a queue of 8 per shape, at most 8 warmed shapes, the
// default breaker.
type Config struct {
	// Capacity is the number of warmed solver instances per shape —
	// the shape's concurrency limit; 0 means 2.
	Capacity int
	// QueueLimit bounds the requests waiting for a solver of one
	// shape; beyond it admission fails fast with an *OverloadError.
	// 0 means 4*Capacity; negative means no queueing (a request that
	// cannot be served immediately is rejected).
	QueueLimit int
	// MaxShapes bounds the distinct warmed shapes; when exceeded the
	// least-recently-used idle shape's solvers are closed and evicted.
	// (Shapes with traffic in flight are never evicted, so the bound
	// is soft under adversarial shape churn.) 0 means 8.
	MaxShapes int
	// Breaker tunes the circuit breaker.
	Breaker BreakerPolicy
	// Clock is the pool's time source for idle-eviction stamps,
	// deadline-feasibility checks and the breaker cooldown; nil means wall time. Scenario runs inject
	// the fleet's virtual clock so eviction order replays exactly.
	Clock clock.Clock
}

func (c Config) clock() clock.Clock {
	if c.Clock == nil {
		return clock.WallClock{}
	}
	return c.Clock
}

// DefaultCapacity is the per-station solver count a zero
// Config.Capacity means.
const DefaultCapacity = 2

func (c Config) capacity() int {
	if c.Capacity <= 0 {
		return DefaultCapacity
	}
	return c.Capacity
}

func (c Config) queueLimit() int {
	switch {
	case c.QueueLimit == 0:
		return 4 * c.capacity()
	case c.QueueLimit < 0:
		return 0
	default:
		return c.QueueLimit
	}
}

func (c Config) maxShapes() int {
	if c.MaxShapes <= 0 {
		return 8
	}
	return c.MaxShapes
}

// ShapeStats describes one warmed shape station: its congestion and
// its current service-time estimate. The HTTP front-end surfaces these
// per shape so operators can see *which* traffic class is queueing,
// and derives Retry-After hints from ServiceTime.
type ShapeStats struct {
	// M, N identify the shape; Mega marks the shape's megabatch
	// station.
	M    int  `json:"m"`
	N    int  `json:"n"`
	Mega bool `json:"mega"`
	// Built is the number of solver instances the station has created;
	// Leased of those are checked out right now.
	Built  int `json:"built"`
	Leased int `json:"leased"`
	// QueueDepth is the number of requests waiting for this shape.
	QueueDepth int `json:"queue_depth"`
	// ServiceTime is the station's EWMA service-time estimate
	// (0 when no solve or model seed has been observed).
	ServiceTime time.Duration `json:"service_time_ns"`
}

// Stats is an instantaneous snapshot of the pool, for health endpoints
// and tests. Counters are cumulative since construction.
type Stats struct {
	// Shapes is the number of warmed shape stations.
	Shapes int `json:"shapes"`
	// InFlight is the number of leases currently held.
	InFlight int `json:"in_flight"`
	// QueueDepth is the total number of requests waiting, all shapes.
	QueueDepth int `json:"queue_depth"`
	// PerShape details every warmed station, sorted by (M, N).
	PerShape []ShapeStats `json:"per_shape"`

	// Admitted counts granted leases. RejectedQueueFull and
	// RejectedDeadline count the two admission-control rejections;
	// RejectedClosed counts requests that hit a closing pool;
	// CancelledWaits counts requests whose context ended while queued.
	Admitted          uint64 `json:"admitted"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedDeadline  uint64 `json:"rejected_deadline"`
	RejectedClosed    uint64 `json:"rejected_closed"`
	CancelledWaits    uint64 `json:"cancelled_waits"`

	// DeviceSolves, ProbeSolves and FallbackSolves count completed
	// solves per route (probes are also device solves).
	DeviceSolves   uint64 `json:"device_solves"`
	ProbeSolves    uint64 `json:"probe_solves"`
	FallbackSolves uint64 `json:"fallback_solves"`

	// Breaker is the circuit breaker's state.
	Breaker BreakerSnapshot `json:"breaker"`
}

// Pool multiplexes callers onto warmed solver instances of type S.
type Pool[S any] struct {
	cfg Config
	// build makes a solver for a shape's regular (mega = false) or
	// megabatch station.
	build func(m, n int, mega bool) (S, error)
	close func(S) error
	// modeled seeds a fresh solver's service-time estimate (return 0
	// when unknown); observed times take over from the first solve.
	modeled func(S) time.Duration

	clk clock.Clock
	brk *breaker

	mu            sync.Mutex //tridlint:lockrank 20
	stations      map[skey]*station[S]
	leases        map[*Lease[S]]struct{}
	inflight      int
	closed        bool
	drainCh       chan struct{} // closed when Close begins: admissions stop
	drained       chan struct{} // closed when the last lease is released
	drainedClosed bool
	done          chan struct{} // closed when teardown completes

	admitted, rejFull, rejDeadline, rejClosed, cancelledWaits atomic.Uint64
	deviceSolves, probeSolves, fallbackSolves                 atomic.Uint64
}

// station serves one shape: a free list of warmed solvers and the
// bounded wait queue's bookkeeping. The free-list receives on the
// non-waiting paths happen under mu together with the leased/built
// accounting, so eviction can atomically verify that every built
// solver is present before tearing the station down.
type station[S any] struct {
	key  skey
	free chan S
	svc  *ewma

	mu      sync.Mutex //tridlint:lockrank 30
	built   int        // solvers created (≤ capacity)
	leased  int        // solvers currently checked out
	waiters int        // requests blocked waiting for a solver
	closing bool       // evicted or in pool teardown; acquisitions bounce
	lastUse time.Time
}

// New builds a pool over the given solver lifecycle hooks. build makes
// a warmed solver for a shape's regular or megabatch station, close
// releases one, modeled returns the cost model's per-solve time
// estimate for seeding the admission controller (may return 0). Either
// of the last two hooks may be nil.
func New[S any](cfg Config, build func(m, n int, mega bool) (S, error), close func(S) error, modeled func(S) time.Duration) *Pool[S] {
	if modeled == nil {
		modeled = func(S) time.Duration { return 0 }
	}
	if close == nil {
		close = func(S) error { return nil }
	}
	clk := cfg.clock()
	return &Pool[S]{
		cfg:      cfg,
		build:    build,
		close:    close,
		modeled:  modeled,
		clk:      clk,
		brk:      newBreaker(cfg.Breaker, clk.Now),
		stations: make(map[skey]*station[S]),
		leases:   make(map[*Lease[S]]struct{}),
		drainCh:  make(chan struct{}),
		drained:  make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Lease is one granted admission: a solver checked out of its station.
// The solve must run under Ctx (it is force-cancelled when Close's
// drain deadline expires) and end with exactly one Release call.
type Lease[S any] struct {
	// Solver is the checked-out instance.
	Solver S
	// Ctx derives from the acquiring context and is additionally
	// cancelled by a force-drain.
	Ctx context.Context

	p      *Pool[S]
	st     *station[S]
	cancel context.CancelFunc
}

// Acquire admits one request for shape (m, n): it returns a warmed
// solver immediately when one is free (building lazily up to
// Config.Capacity), otherwise joins the shape's bounded wait queue.
// It fails fast with an *OverloadError (matching ErrOverloaded) when
// the queue is full or the context's deadline is infeasible given the
// observed service time, with ErrClosed when the pool is draining, and
// with an error matching core.ErrCancelled when ctx ends while queued.
func (p *Pool[S]) Acquire(ctx context.Context, m, n int) (*Lease[S], error) {
	return p.acquire(ctx, skey{Key{m, n}, false})
}

// AcquireMega is Acquire against the shape's megabatch station, whose
// solvers the build hook makes with mega = true. The stations are
// independent: megabatch traffic never competes with direct traffic
// for solver instances, and each keeps its own service-time estimate
// (megabatch solves are much larger, so mixing the EWMAs would wreck
// both admission controllers).
func (p *Pool[S]) AcquireMega(ctx context.Context, m, n int) (*Lease[S], error) {
	return p.acquire(ctx, skey{Key{m, n}, true})
}

func (p *Pool[S]) acquire(ctx context.Context, k skey) (*Lease[S], error) {
	for {
		st, err := p.lookup(k)
		if err != nil {
			return nil, err
		}
		l, retry, err := p.acquireAt(ctx, st)
		if retry {
			continue // station was evicted between lookup and checkout
		}
		return l, err
	}
}

// acquireAt runs one admission attempt against a station. retry=true
// reports that the station is being torn down under a live pool and
// the caller should look it up again.
func (p *Pool[S]) acquireAt(ctx context.Context, st *station[S]) (l *Lease[S], retry bool, err error) {
	m, n := st.key.M, st.key.N
	st.mu.Lock()
	if st.closing {
		st.mu.Unlock()
		return nil, true, nil
	}

	// Fast path: a solver is free right now.
	select {
	case s := <-st.free:
		st.leased++
		st.mu.Unlock()
		return p.grant(ctx, st, s)
	default:
	}

	// Build lazily up to capacity.
	if st.built < p.cfg.capacity() {
		st.built++
		st.mu.Unlock()
		s, err := p.build(m, n, st.key.Mega)
		if err != nil {
			st.mu.Lock()
			st.built--
			st.mu.Unlock()
			return nil, false, err
		}
		st.svc.seed(p.modeled(s))
		st.mu.Lock()
		st.leased++
		st.mu.Unlock()
		return p.grant(ctx, st, s)
	}

	// Queue, or fail fast. st.mu is held.
	limit := p.cfg.queueLimit()
	if st.waiters >= limit {
		depth := st.waiters
		st.mu.Unlock()
		p.rejFull.Add(1)
		// The retry hint: the request would land behind depth waiters
		// plus the solves already holding the capacity.
		svc, _ := st.svc.value()
		return nil, false, &OverloadError{
			M: m, N: n, Reason: QueueFull,
			QueueDepth: depth, QueueLimit: limit,
			Capacity: p.cfg.capacity(), EstWait: svc * time.Duration(depth+1),
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if svc, known := st.svc.value(); known && svc > 0 {
			// The request is behind st.waiters others on capacity
			// servers: it finishes roughly one queue drain plus its
			// own service time from now.
			pos := st.waiters + 1
			cap := p.cfg.capacity()
			estWait := svc * time.Duration((pos+cap-1)/cap)
			if dl.Sub(p.clk.Now()) < estWait+svc {
				depth := st.waiters
				st.mu.Unlock()
				p.rejDeadline.Add(1)
				return nil, false, &OverloadError{
					M: m, N: n, Reason: DeadlineInfeasible,
					QueueDepth: depth, QueueLimit: limit,
					Capacity: p.cfg.capacity(), EstWait: estWait,
				}
			}
		}
	}
	st.waiters++
	st.mu.Unlock()

	select {
	case s := <-st.free:
		st.mu.Lock()
		st.waiters--
		st.leased++
		st.mu.Unlock()
		return p.grant(ctx, st, s)
	case <-ctx.Done():
		st.mu.Lock()
		st.waiters--
		st.mu.Unlock()
		p.cancelledWaits.Add(1)
		// Both core.ErrCancelled and the context error match, like the
		// solver's own cancellation errors, so callers see one error
		// class whether the deadline expired while queued or mid-solve.
		return nil, false, fmt.Errorf("pool: admission wait: %w: %w", core.ErrCancelled, ctx.Err())
	case <-p.drainCh:
		st.mu.Lock()
		st.waiters--
		st.mu.Unlock()
		p.rejClosed.Add(1)
		return nil, false, ErrClosed
	}
}

// grant registers the lease. A checkout that races the start of a
// drain is undone — the solver goes back to its station, where
// teardown collects it — and reports ErrClosed.
func (p *Pool[S]) grant(ctx context.Context, st *station[S], s S) (*Lease[S], bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		st.mu.Lock()
		st.leased--
		st.mu.Unlock()
		st.free <- s
		p.rejClosed.Add(1)
		return nil, false, ErrClosed
	}
	cctx, cancel := context.WithCancel(ctx)
	l := &Lease[S]{Solver: s, Ctx: cctx, p: p, st: st, cancel: cancel}
	p.leases[l] = struct{}{}
	p.inflight++
	p.mu.Unlock()

	st.mu.Lock()
	st.lastUse = p.clk.Now()
	st.mu.Unlock()
	p.admitted.Add(1)
	return l, false, nil
}

// Release returns the lease's solver to its station. A positive svc
// feeds the shape's service-time estimate.
func (l *Lease[S]) Release(svc time.Duration) {
	if svc > 0 {
		l.st.svc.observe(svc)
	}
	l.cancel()
	l.st.mu.Lock()
	l.st.leased--
	l.st.mu.Unlock()
	l.st.free <- l.Solver

	p := l.p
	p.mu.Lock()
	delete(p.leases, l)
	p.inflight--
	if p.closed && p.inflight == 0 && !p.drainedClosed {
		p.drainedClosed = true
		close(p.drained)
	}
	p.mu.Unlock()
}

// lookup returns (building if needed) the station for a shape,
// evicting the least-recently-used idle station when the shape set
// outgrows Config.MaxShapes.
func (p *Pool[S]) lookup(key skey) (*station[S], error) {
	if key.M <= 0 || key.N <= 0 {
		return nil, fmt.Errorf("pool: invalid shape %dx%d", key.M, key.N)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.rejClosed.Add(1)
		return nil, ErrClosed
	}
	if st, ok := p.stations[key]; ok {
		p.mu.Unlock()
		return st, nil
	}
	var victim *station[S]
	if len(p.stations) >= p.cfg.maxShapes() {
		victim = p.evictIdleLocked()
	}
	st := &station[S]{
		key:  key,
		free: make(chan S, p.cfg.capacity()),
		svc:  &ewma{},
	}
	st.lastUse = p.clk.Now()
	p.stations[key] = st
	p.mu.Unlock()
	if victim != nil {
		p.drainStation(victim)
	}
	return st, nil
}

// evictIdleLocked (p.mu held) marks the least-recently-used fully idle
// station as closing and removes it from the map; the caller drains it
// after releasing p.mu. A station counts as idle only when every built
// solver is back in the free list and nobody waits, checked atomically
// with setting closing — so nothing can check a solver out of an
// evicted station, and the drain's receives cannot block.
func (p *Pool[S]) evictIdleLocked() *station[S] {
	var victim *station[S]
	for _, st := range p.stations {
		st.mu.Lock()
		idle := st.leased == 0 && st.waiters == 0 && len(st.free) == st.built
		last := st.lastUse
		st.mu.Unlock()
		if idle && (victim == nil || last.Before(victim.lastUse)) {
			victim = st
		}
	}
	if victim == nil {
		return nil
	}
	victim.mu.Lock()
	ok := victim.leased == 0 && victim.waiters == 0 && len(victim.free) == victim.built && !victim.closing
	if ok {
		victim.closing = true
	}
	victim.mu.Unlock()
	if !ok {
		return nil
	}
	delete(p.stations, victim.key)
	return victim
}

// drainStation closes every solver the station built. Each one is
// either in the free list or about to be pushed back by a racing
// checkout that lost to the drain, so a blocking receive collects
// exactly built solvers.
func (p *Pool[S]) drainStation(st *station[S]) {
	st.mu.Lock()
	st.closing = true
	built := st.built
	st.built = 0
	st.mu.Unlock()
	for i := 0; i < built; i++ {
		s := <-st.free
		_ = p.close(s)
	}
}

// Warm eagerly builds the shape's full solver complement so the first
// requests are not serialized behind construction and recording.
func (p *Pool[S]) Warm(m, n int) error {
	k := skey{Key{m, n}, false}
	for {
		st, err := p.lookup(k)
		if err != nil {
			return err
		}
		st.mu.Lock()
		if st.closing {
			st.mu.Unlock()
			continue
		}
		if st.built >= p.cfg.capacity() {
			st.mu.Unlock()
			return nil
		}
		st.built++
		st.mu.Unlock()
		s, err := p.build(k.M, k.N, false)
		if err != nil {
			st.mu.Lock()
			st.built--
			st.mu.Unlock()
			return err
		}
		st.svc.seed(p.modeled(s))
		st.free <- s
	}
}

// Route asks the circuit breaker where the next solve should go:
// device=false routes to the CPU fallback; probe=true marks a
// half-open probe whose outcome must be reported via Record (or
// Abandon when the solve was cancelled).
func (p *Pool[S]) Route() (device, probe bool) { return p.brk.route() }

// Record reports a completed device solve to the breaker and the
// route counters; degraded is the breaker's failure signal.
func (p *Pool[S]) Record(probe, degraded bool) {
	p.deviceSolves.Add(1)
	if probe {
		p.probeSolves.Add(1)
	}
	p.brk.record(probe, degraded)
}

// Abandon releases a probe slot whose solve was cancelled before
// yielding a verdict on device health.
func (p *Pool[S]) Abandon(probe bool) { p.brk.abandon(probe) }

// RecordFallback counts a completed CPU-fallback solve.
func (p *Pool[S]) RecordFallback() { p.fallbackSolves.Add(1) }

// Breaker returns the circuit breaker's observable state.
func (p *Pool[S]) Breaker() BreakerSnapshot { return p.brk.snapshot() }

// Stats snapshots the pool.
func (p *Pool[S]) Stats() Stats {
	s := Stats{
		Admitted:          p.admitted.Load(),
		RejectedQueueFull: p.rejFull.Load(),
		RejectedDeadline:  p.rejDeadline.Load(),
		RejectedClosed:    p.rejClosed.Load(),
		CancelledWaits:    p.cancelledWaits.Load(),
		DeviceSolves:      p.deviceSolves.Load(),
		ProbeSolves:       p.probeSolves.Load(),
		FallbackSolves:    p.fallbackSolves.Load(),
		Breaker:           p.brk.snapshot(),
	}
	p.mu.Lock()
	s.Shapes = len(p.stations)
	s.InFlight = p.inflight
	stations := make([]*station[S], 0, len(p.stations))
	for _, st := range p.stations {
		stations = append(stations, st)
	}
	p.mu.Unlock()
	s.PerShape = make([]ShapeStats, 0, len(stations))
	for _, st := range stations {
		svc, _ := st.svc.value()
		st.mu.Lock()
		s.QueueDepth += st.waiters
		s.PerShape = append(s.PerShape, ShapeStats{
			M: st.key.M, N: st.key.N, Mega: st.key.Mega,
			Built: st.built, Leased: st.leased,
			QueueDepth:  st.waiters,
			ServiceTime: svc,
		})
		st.mu.Unlock()
	}
	sort.Slice(s.PerShape, func(i, j int) bool {
		a, b := s.PerShape[i], s.PerShape[j]
		if a.M != b.M {
			return a.M < b.M
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return !a.Mega && b.Mega
	})
	return s
}

// Close drains the pool: admissions stop immediately (queued requests
// fail with ErrClosed), in-flight solves run to completion, and if ctx
// expires first every remaining lease's context is cancelled — the
// PR 4 solve paths then stop promptly — before teardown closes all
// solvers. Close is idempotent; concurrent calls wait for the first
// teardown to finish. It returns nil on a clean drain and a non-nil
// error (wrapping ctx's error) when solves had to be force-cancelled.
func (p *Pool[S]) Close(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return nil
	}
	p.closed = true
	close(p.drainCh)
	if p.inflight == 0 && !p.drainedClosed {
		p.drainedClosed = true
		close(p.drained)
	}
	p.mu.Unlock()

	forced := 0
	select {
	case <-p.drained:
	case <-ctx.Done():
		p.mu.Lock()
		for l := range p.leases {
			l.cancel()
			forced++
		}
		p.mu.Unlock()
		<-p.drained
	}

	p.mu.Lock()
	stations := make([]*station[S], 0, len(p.stations))
	for _, st := range p.stations {
		stations = append(stations, st)
	}
	p.stations = make(map[skey]*station[S])
	p.mu.Unlock()
	for _, st := range stations {
		p.drainStation(st)
	}
	close(p.done)
	if forced > 0 {
		return fmt.Errorf("pool: drain deadline expired, force-cancelled %d in-flight solve(s): %w", forced, ctx.Err())
	}
	return nil
}
