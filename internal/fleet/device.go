package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gputrid"
)

// Backend is the failure-domain surface the fleet needs from one
// device's serving pool. *gputrid.Pool[float64] satisfies it directly;
// tests substitute deterministic fakes.
type Backend interface {
	// Solve serves one batch on this device.
	Solve(ctx context.Context, b *gputrid.Batch[float64]) (*gputrid.PoolResult[float64], error)
	// SolveMegabatch serves one coalesced megabatch on this device
	// through its pool's dedicated megabatch station; per-system
	// outcomes land in mb.Verdicts, a non-nil error fails the whole
	// flight (and re-routes it).
	SolveMegabatch(ctx context.Context, mb *gputrid.Megabatch[float64]) error
	// Warm pre-builds the device's solver complement for a shape.
	Warm(m, n int) error
	// Stats snapshots the device pool's congestion and breaker.
	Stats() gputrid.PoolStats
	// Breaker exposes the pool's circuit-breaker state, so the router
	// can prefer devices whose device path is healthy.
	Breaker() gputrid.BreakerSnapshot
	// Close gracefully drains the device: admissions stop, in-flight
	// solves finish, and ctx's deadline force-cancels stragglers. This
	// is the cordon path — the fleet reuses the pool's drain protocol
	// verbatim.
	Close(ctx context.Context) error
}

// BackendFactory builds the serving pool for one device. The fleet
// calls it at construction and again when a dead device heals (the
// healed device gets a *fresh* pool: a real GPU reset wipes device
// state, so stale warmed solvers must not survive it).
type BackendFactory func(id int) (Backend, error)

// DeviceState is the cordon/drain state machine position of one device.
//
//	           scale-up            fatal event
//	Standby ──────────────► Active ───────────► Cordoned
//	   ▲    ◄──────────────   ▲  ▲               │ drain
//	   │      scale-down      │  │               ▼
//	   │        (drain)       │  │ probation    Dead
//	   │                      │  │ expires       │ healed event
//	   │           thermal    │  │               ▼ (fresh pool)
//	   │   ┌──────────────────┘  └────────── Probation
//	   │   ▼           healed                    ▲
//	   │ Deprioritized ──────────────────────────┘
//	   └── (fleet Close drains every state)
type DeviceState int

const (
	// StateActive: healthy, fully in the routing set.
	StateActive DeviceState = iota
	// StateProbation: recently healed; serves traffic, but any health
	// event short of recovery cordons it immediately, and only a clean
	// probation period promotes it back to Active.
	StateProbation
	// StateDeprioritized: thermally throttled; correct but slow, so it
	// receives traffic only when no Active/Probation device can.
	StateDeprioritized
	// StateCordoned: a fatal event arrived; no new work, the graceful
	// drain of its pool is in progress.
	StateCordoned
	// StateDead: drained after a fatal event; waits for a healed event.
	StateDead
	// StateStandby: drained by scale-down; healthy and eligible for
	// reactivation by scale-up.
	StateStandby
)

// String names the state.
func (s DeviceState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateProbation:
		return "probation"
	case StateDeprioritized:
		return "deprioritized"
	case StateCordoned:
		return "cordoned"
	case StateDead:
		return "dead"
	case StateStandby:
		return "standby"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalText encodes the state as its name, so JSON snapshots read
// "active" rather than a number.
func (s DeviceState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// servable reports whether the router may send new work to a device in
// this state at all (Deprioritized is servable, merely last-choice).
func (s DeviceState) servable() bool {
	return s == StateActive || s == StateProbation || s == StateDeprioritized
}

// device is one failure domain: a serving pool plus its control-plane
// state. State fields are guarded by the fleet's mutex; counters are
// atomics so the solve path never takes the fleet lock while solving.
type device struct {
	id      int
	backend Backend

	// Guarded by Fleet.mu.
	state DeviceState
	// probationUntil is when a Probation device may promote to Active.
	probationUntil time.Time
	// correctedECC accumulates HealthECCCorrected events; crossing the
	// policy threshold escalates to a cordon.
	correctedECC int
	// wantHeal remembers a healed event that arrived while the device
	// was still draining; applied once the drain completes.
	wantHeal bool
	// draining is true from cordon until the drain goroutine finishes;
	// drainTarget is the state the device lands in afterwards (Dead for
	// health cordons, Standby for scale-downs).
	draining    bool
	drainTarget DeviceState
	// lastTransition stamps the most recent state change (clock time).
	lastTransition time.Time

	// Data-plane counters (atomic; read by stats and the router).
	inflight atomic.Int64
	served   atomic.Uint64
	failed   atomic.Uint64
}

// DeviceStats is the observable state of one device.
type DeviceStats struct {
	ID    int         `json:"id"`
	State DeviceState `json:"state"`
	// InFlight is the device's routed load in systems: direct requests
	// weigh 1, a coalesced megabatch weighs its system count — so a
	// device holding one 48-system flight reads as busier than one
	// holding three singleton requests.
	InFlight int64 `json:"in_flight"`
	// Served and Failed count completed fleet requests by outcome.
	Served uint64 `json:"served"`
	Failed uint64 `json:"failed"`
	// CorrectedECC is the accumulated corrected-ECC event count.
	CorrectedECC int `json:"corrected_ecc"`
	// Gray is the device's gray-failure evidence.
	Gray DeviceGray `json:"gray"`
	// Pool snapshots the device pool: per-shape congestion, admission
	// counters, breaker window. nil while the device has no live pool
	// (Cordoned, Dead, Standby).
	Pool *gputrid.PoolStats `json:"pool,omitempty"`
}

// DeviceGray is one device's gray-failure evidence. LatencyRatio is the
// detector's EWMA per-slab modeled latency ratio vs. the fleet median
// (0 until the device appears in a distributed solve);
// IntegrityRetries and Hedged accumulate the device's checksum-mismatch
// re-exchanges and hedged-away slabs across distributed solves.
type DeviceGray struct {
	LatencyRatio     float64 `json:"latency_ratio"`
	IntegrityRetries int     `json:"integrity_retries"`
	Hedged           int     `json:"hedged_slabs"`
}
