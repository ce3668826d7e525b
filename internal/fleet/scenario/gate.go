package scenario

import (
	"context"
	"slices"
	"sync"

	"gputrid"
	"gputrid/internal/fleet"
)

// gatedBackend wraps a device's real serving pool with a holdpoint at
// the backend boundary. While armed, routed requests block at the gate
// (after the fleet has counted them in flight on the device, before
// they enter the pool) until the gate is released.
//
// The runner arms the gates for the span of a fatal-event tick to make
// "the device dies under load" true *by construction* instead of by
// scheduler luck: every request of the interval is routed and pinned
// in flight when the cordon fires, so the dying device demonstrably
// holds live traffic, and its held requests then race the drain —
// some slip in and are drained gracefully, the rest bounce off the
// closing pool and re-route. On a single-CPU runtime, where goroutines
// otherwise run each solve to completion before the next begins, this
// is the only way the scenario's concurrency is reproducible.
//
// Close releases the gate before draining the inner pool, so a cordon
// can never deadlock against its own held requests.
type gatedBackend struct {
	inner *gputrid.Pool[float64]

	mu   sync.Mutex
	gate chan struct{} // non-nil while armed
}

var _ fleet.Backend = (*gatedBackend)(nil)

// arm installs a fresh holdpoint; requests entering Solve block on it.
func (g *gatedBackend) arm() {
	g.mu.Lock()
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
	g.mu.Unlock()
}

// release opens the holdpoint; idempotent.
func (g *gatedBackend) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

// wait blocks while the gate is armed, or until ctx ends.
func (g *gatedBackend) wait(ctx context.Context) error {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (g *gatedBackend) Solve(ctx context.Context, b *gputrid.Batch[float64]) (*gputrid.PoolResult[float64], error) {
	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	return g.inner.Solve(ctx, b)
}

func (g *gatedBackend) SolveMegabatch(ctx context.Context, mb *gputrid.Megabatch[float64]) error {
	if err := g.wait(ctx); err != nil {
		return err
	}
	return g.inner.SolveMegabatch(ctx, mb)
}

func (g *gatedBackend) Warm(m, n int) error { return g.inner.Warm(m, n) }

func (g *gatedBackend) Stats() gputrid.PoolStats { return g.inner.Stats() }

func (g *gatedBackend) Breaker() gputrid.BreakerSnapshot { return g.inner.Breaker() }

func (g *gatedBackend) Close(ctx context.Context) error {
	g.release()
	return g.inner.Close(ctx)
}

// gateSet tracks the current wrapper per device id (revives build
// fresh wrappers; the newest one is the live device).
type gateSet struct {
	mu sync.Mutex
	m  map[int]*gatedBackend
}

func (s *gateSet) put(id int, g *gatedBackend) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[int]*gatedBackend)
	}
	s.m[id] = g
	s.mu.Unlock()
}

func (s *gateSet) armAll() {
	s.mu.Lock()
	for _, g := range s.m {
		g.arm()
	}
	s.mu.Unlock()
}

// releaseExcept opens every gate but those of the listed devices.
func (s *gateSet) releaseExcept(ids []int) {
	s.mu.Lock()
	for id, g := range s.m {
		if !slices.Contains(ids, id) {
			g.release()
		}
	}
	s.mu.Unlock()
}
