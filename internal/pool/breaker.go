package pool

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: traffic flows to the device path; outcomes are
	// recorded in the sliding window.
	BreakerClosed BreakerState = iota
	// BreakerOpen: sustained degradation tripped the breaker; all
	// traffic is routed to the CPU fallback until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; single probe requests are
	// let through the device path while everyone else stays on the
	// fallback, and the probes' outcomes decide between re-opening and
	// closing.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// MarshalText encodes the state as its name, so JSON snapshots read
// "closed" rather than a number.
func (s BreakerState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// BreakerPolicy tunes the circuit breaker. The zero value is the
// production default: a 20-solve sliding window, trip at a 50%
// degraded rate with at least 8 samples, 100ms cooldown, 3 consecutive
// probe successes to close.
type BreakerPolicy struct {
	// Window is the sliding window length in completed device solves;
	// 0 means 20.
	Window int
	// TripRatio is the degraded fraction of the window that trips the
	// breaker; 0 means 0.5.
	TripRatio float64
	// MinSamples is the minimum window fill before the ratio is
	// consulted; 0 means 8.
	MinSamples int
	// Cooldown is how long the breaker stays open before probing;
	// 0 means 100ms.
	Cooldown time.Duration
	// ProbeSuccesses is how many consecutive half-open probes must
	// succeed to close the breaker; 0 means 3.
	ProbeSuccesses int
}

func (p BreakerPolicy) window() int {
	if p.Window <= 0 {
		return 20
	}
	return p.Window
}

func (p BreakerPolicy) tripRatio() float64 {
	if p.TripRatio <= 0 {
		return 0.5
	}
	return p.TripRatio
}

func (p BreakerPolicy) minSamples() int {
	if p.MinSamples <= 0 {
		return 8
	}
	return p.MinSamples
}

func (p BreakerPolicy) cooldown() time.Duration {
	if p.Cooldown <= 0 {
		return 100 * time.Millisecond
	}
	return p.Cooldown
}

func (p BreakerPolicy) probeSuccesses() int {
	if p.ProbeSuccesses <= 0 {
		return 3
	}
	return p.ProbeSuccesses
}

// BreakerSnapshot is the observable breaker state, for health
// endpoints and tests.
type BreakerSnapshot struct {
	State BreakerState `json:"state"`
	// WindowFill and WindowDegraded describe the sliding window
	// (meaningful while closed).
	WindowFill     int `json:"window_fill"`
	WindowDegraded int `json:"window_degraded"`
	// Trips counts closed->open transitions since construction.
	Trips int `json:"trips"`
	// ProbeStreak is the consecutive-success count of the current
	// half-open phase.
	ProbeStreak int `json:"probe_streak"`
}

// breaker is the per-pool (per simulated device) circuit breaker: a
// sliding window of device-solve outcomes, a cooldown, and a half-open
// probing phase. All methods are safe for concurrent use.
type breaker struct {
	pol BreakerPolicy
	now func() time.Time

	mu       sync.Mutex //tridlint:lockrank 40
	state    BreakerState
	window   []bool // true = degraded
	idx      int    // next write position
	fill     int    // valid entries
	degraded int    // degraded entries among the valid ones
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	streak   int  // consecutive successful probes
	trips    int
}

// newBreaker builds the breaker over the pool's injected clock. (This
// package never reads time.Now directly — the clockinject analyzer
// enforces it.)
func newBreaker(pol BreakerPolicy, now func() time.Time) *breaker {
	return &breaker{pol: pol, now: now, window: make([]bool, pol.window())}
}

// route decides where one request goes. device=false means the CPU
// fallback; probe=true marks a half-open device probe whose outcome
// MUST be reported through record (or abandon, if the solve was
// cancelled) to unblock further probing.
func (b *breaker) route() (device, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.pol.cooldown() {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.streak = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// record reports the outcome of a device solve: degraded is the
// breaker's failure signal (fault activity or an ErrFaulted-class
// error). Cancelled solves must call abandon instead — they say
// nothing about device health.
func (b *breaker) record(probe, degraded bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if b.state != BreakerHalfOpen {
			return // a trip raced the probe; its outcome is moot
		}
		if degraded {
			b.trip()
			return
		}
		b.streak++
		if b.streak >= b.pol.probeSuccesses() {
			b.state = BreakerClosed
			b.resetWindow()
		}
		return
	}
	if b.state != BreakerClosed {
		return // stale pre-trip completion
	}
	if old := b.window[b.idx]; b.fill == len(b.window) && old {
		b.degraded--
	}
	b.window[b.idx] = degraded
	b.idx = (b.idx + 1) % len(b.window)
	if b.fill < len(b.window) {
		b.fill++
	}
	if degraded {
		b.degraded++
	}
	if b.fill >= b.pol.minSamples() &&
		float64(b.degraded) >= b.pol.tripRatio()*float64(b.fill) {
		b.trip()
	}
}

// abandon releases a probe slot without judging the device (the probe
// solve was cancelled by its caller before completing).
func (b *breaker) abandon(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// trip opens the breaker (callers hold b.mu).
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.trips++
	b.streak = 0
	b.resetWindow()
}

func (b *breaker) resetWindow() {
	clear(b.window)
	b.idx, b.fill, b.degraded = 0, 0, 0
}

// snapshot returns the observable state.
func (b *breaker) snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:          b.state,
		WindowFill:     b.fill,
		WindowDegraded: b.degraded,
		Trips:          b.trips,
		ProbeStreak:    b.streak,
	}
}
