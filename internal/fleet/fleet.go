// Package fleet is the multi-device serving control plane: N simulated
// devices, each wrapping its own warmed solver pool as an independent
// failure domain, behind a control loop that consumes typed device
// health events (gpusim.HealthEvent), applies a cordon/drain policy
// (fatal events drain the device through the pool's graceful-drain
// path, thermal events deprioritize it, healed events revive it into
// probation on a fresh pool), routes requests to the least-loaded
// healthy device with automatic re-route when a device dies beneath a
// request, and scales the active device set up and down on load
// watermarks with a cooldown.
//
// The control loop is deliberately *stepped*, not free-running: all
// policy evaluation happens in Tick, every elapsed-time decision reads
// an injectable Clock, and health events buffer in an injectable feed
// until the next Tick. Driven by a ticker and the wall clock this is a
// live control plane; driven by a scenario runner and a VirtualClock
// it is a fully deterministic, replayable one (see the scenario
// subpackage).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gputrid"
	"gputrid/internal/clock"
	"gputrid/internal/core"
	"gputrid/internal/gpusim"
)

// Typed fleet errors.
var (
	// ErrNoDevices reports that no servable device exists (every device
	// is cordoned, dead, or in standby).
	ErrNoDevices = errors.New("fleet: no servable device")
	// ErrFleetClosed reports a Solve against a closed fleet.
	ErrFleetClosed = errors.New("fleet: closed")
)

// Config sizes and tunes a fleet. The zero value of every field picks
// a sensible default (see each field); Devices is the only required
// one.
type Config struct {
	// Devices is the total number of failure domains (required ≥ 1).
	Devices int
	// InitialActive is how many devices start Active; the rest start
	// Standby for the autoscaler. 0 means all of them.
	InitialActive int
	// MinActive is the autoscaler's floor; 0 means 1.
	MinActive int

	// Factory builds one device's pool; nil means a gputrid.NewPool
	// over Pool, warmed on WarmShapes.
	Factory BackendFactory
	// Pool configures each device's pool (default factory only).
	Pool gputrid.PoolConfig
	// WarmShapes are pre-built on every device the factory creates.
	WarmShapes [][2]int

	// Clock drives every elapsed-time policy decision — probation
	// expiry, autoscale cooldowns, health-event timestamps — so a
	// scenario driven by a clock.VirtualClock replays the exact same
	// decision sequence on every run; nil means wall clock. Wall-clock
	// time still governs the data plane (solve durations, drain
	// force-cancel budgets), which affects only how fast a run
	// finishes, not which control decisions it makes.
	Clock clock.Clock

	// Probation is how long a revived device must stay clean before
	// promotion to Active; 0 means 1s.
	Probation time.Duration
	// DrainTimeout bounds a cordon's graceful drain; past it in-flight
	// solves are force-cancelled through their lease contexts (they
	// re-route to healthy devices). 0 means 5s. This is a data-plane
	// safety bound and always reads the wall clock.
	DrainTimeout time.Duration

	// ScaleCooldown is the minimum time between scaling actions;
	// 0 means 1s.
	ScaleCooldown time.Duration

	// DistTopology is the simulated multi-device fabric for
	// SolveDistributed; topology device i is fleet device i, so it must
	// have exactly Devices devices. nil means an NVLink-mesh of GTX480s
	// is built on first use. Scenarios supply their own topology to
	// schedule per-device fault injection.
	DistTopology *gpusim.Topology
	// DistHedge tunes straggler hedging in distributed solves (see
	// core.DistConfig.Hedge). The zero value is the production default
	// (hedging on, 3x outlier ratio).
	DistHedge core.HedgePolicy
	// Gray tunes the gray-failure detector that watches distributed
	// solve reports and synthesizes HealthStraggler/HealthLinkFlaky
	// events (see GrayPolicy). The zero value is the production
	// default (detector on).
	Gray GrayPolicy
}

func (c Config) initialActive() int {
	if c.InitialActive <= 0 || c.InitialActive > c.Devices {
		return c.Devices
	}
	return c.InitialActive
}

func (c Config) minActive() int {
	if c.MinActive <= 0 {
		return 1
	}
	if c.MinActive > c.Devices {
		return c.Devices
	}
	return c.MinActive
}

// correctedECCLimit is how many corrected-ECC events a device absorbs
// before the controller escalates to a cordon. A one-device fleet never
// escalates: cordoning its only device would move traffic nowhere,
// while the device pool's breaker and host fallback keep serving.
func (c Config) correctedECCLimit() int {
	if c.Devices == 1 {
		return 1 << 30
	}
	return 8
}

func (c Config) probation() time.Duration {
	if c.Probation <= 0 {
		return time.Second
	}
	return c.Probation
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DrainTimeout
}

// rerouteAttempts is the maximum number of devices one request may
// try before its last error is returned.
const rerouteAttempts = 3

// Result is one fleet-served solve: the pool result plus which device
// produced it and how many devices were tried.
type Result struct {
	*gputrid.PoolResult[float64]
	// Device is the id of the device that served the request.
	Device int
	// Attempts is the number of devices tried (1 = no re-route).
	Attempts int
}

// Stats is an instantaneous fleet snapshot. Its JSON form is the body
// of tridserve's GET /fleet.
type Stats struct {
	// Devices details every device, by id.
	Devices []DeviceStats `json:"devices"`
	// Census counts the devices in each state.
	Census Census `json:"census"`
	// InFlight is the weighted work currently being served, in
	// systems: direct requests weigh 1, coalesced megabatches weigh
	// their system count. QueueDepth aggregates the live device pools'
	// wait queues.
	InFlight   int64 `json:"in_flight"`
	QueueDepth int   `json:"queue_depth"`
	// Served counts successful solves; Rejected counts requests that
	// exhausted their attempts; Rerouted counts device-failure retries;
	// NoDevice counts requests that found no servable device at all.
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	Rerouted uint64 `json:"rerouted"`
	NoDevice uint64 `json:"no_device"`
	// Control-plane action counters.
	Cordons      uint64 `json:"cordons"`
	Heals        uint64 `json:"heals"`
	ScaleUps     uint64 `json:"scale_ups"`
	ScaleDowns   uint64 `json:"scale_downs"`
	ForcedDrains uint64 `json:"forced_drains"`
	// BuildFailures counts factory failures during revive/scale-up.
	BuildFailures uint64 `json:"build_failures"`
	// Events is the cumulative injected health-event count.
	Events uint64 `json:"events"`
	// Distributed counts distributed-solve outcomes.
	Distributed DistStats `json:"distributed"`
	// Gray counts the gray-failure detector's verdicts.
	Gray GrayStats `json:"gray"`
}

// Census counts a fleet's devices by state.
type Census struct {
	Active        int `json:"active"`
	Probation     int `json:"probation"`
	Deprioritized int `json:"deprioritized"`
	Cordoned      int `json:"cordoned"`
	Dead          int `json:"dead"`
	Standby       int `json:"standby"`
}

// Servable counts the devices the router may send new work to.
func (c Census) Servable() int { return c.Active + c.Probation + c.Deprioritized }

// DistStats counts distributed solves: solves completed, devices
// declared dead mid-solve, slabs migrated to survivors, slabs degraded
// to the host path, and the gray-failure plane's integrity retries
// absorbed and hedges launched / won.
type DistStats struct {
	Solves           uint64 `json:"solves"`
	Deaths           uint64 `json:"deaths"`
	Migrations       uint64 `json:"migrations"`
	Degraded         uint64 `json:"degraded"`
	IntegrityRetries uint64 `json:"integrity_retries"`
	Hedges           uint64 `json:"hedges"`
	HedgeWins        uint64 `json:"hedge_wins"`
}

// GrayStats counts the devices the gray-failure detector flagged as
// stragglers or flaky links.
type GrayStats struct {
	Stragglers uint64 `json:"stragglers_flagged"`
	FlakyLinks uint64 `json:"flaky_links_flagged"`
}

// Degraded reports whether the fleet serves at reduced quality while
// still serving: no device is Active, or no servable device has a
// closed breaker, so every request lands on a probation or throttled
// device or takes its pool's host fallback.
func (s Stats) Degraded() bool {
	if s.Census.Active == 0 {
		return true
	}
	for _, d := range s.Devices {
		if d.State.servable() && d.Pool != nil && d.Pool.Breaker.State == gputrid.BreakerClosed {
			return false
		}
	}
	return true
}

// Fleet is the control plane over N device failure domains. All
// methods are safe for concurrent use; policy evaluation happens only
// inside Tick.
type Fleet struct {
	cfg     Config
	clock   clock.Clock
	factory BackendFactory
	feed    *gpusim.HealthFeed

	mu        sync.Mutex //tridlint:lockrank 10
	devices   []*device
	closed    bool
	lastScale time.Time
	// rr rotates pick's scan start so full routing ties round-robin.
	rr int
	// offeredInterval and peakInterval are the scaler's load signals,
	// reset each Tick (guarded by mu).
	offeredInterval int
	peakInterval    int64

	inflightTotal atomic.Int64
	drains        sync.WaitGroup

	served, rejected, rerouted, noDevice               atomic.Uint64
	cordons, heals, scaleUps, scaleDowns, forcedDrains atomic.Uint64
	buildFailures                                      atomic.Uint64

	// dist is the lazily built distributed-solve plane (see
	// distributed.go).
	dist                                                 distPlane
	distSolves, distDeaths, distMigrations, distDegraded atomic.Uint64
	distIntegrity, distHedges, distHedgeWins             atomic.Uint64

	// gray is the gray-failure detector over distributed-solve
	// reports (see gray.go).
	gray                      grayDetector
	grayStragglers, grayFlaky atomic.Uint64
}

// New builds the fleet: InitialActive devices get live pools, the rest
// start in standby. A factory failure tears down what was built.
func New(cfg Config) (*Fleet, error) {
	if cfg.Devices < 1 || cfg.Devices > 64 {
		return nil, fmt.Errorf("fleet: Devices = %d, want 1..64", cfg.Devices)
	}
	if cfg.DistTopology != nil && cfg.DistTopology.NumDevices() != cfg.Devices {
		return nil, fmt.Errorf("fleet: DistTopology has %d devices, want Devices = %d",
			cfg.DistTopology.NumDevices(), cfg.Devices)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.WallClock{}
	}
	factory := cfg.Factory
	if factory == nil {
		factory = defaultFactory(cfg)
	}
	f := &Fleet{
		cfg:     cfg,
		clock:   clk,
		factory: factory,
		feed:    &gpusim.HealthFeed{},
	}
	now := clk.Now()
	f.lastScale = now
	active := cfg.initialActive()
	for id := 0; id < cfg.Devices; id++ {
		d := &device{id: id, state: StateStandby, lastTransition: now}
		if id < active {
			be, err := factory(id)
			if err != nil {
				_ = f.Close(context.Background())
				return nil, fmt.Errorf("fleet: building device %d: %w", id, err)
			}
			d.backend = be
			d.state = StateActive
		}
		f.devices = append(f.devices, d)
	}
	return f, nil
}

// defaultFactory builds real gputrid pools, warmed on WarmShapes.
func defaultFactory(cfg Config) BackendFactory {
	return func(id int) (Backend, error) {
		p := gputrid.NewPool[float64](cfg.Pool)
		for _, mn := range cfg.WarmShapes {
			if err := p.Warm(mn[0], mn[1]); err != nil {
				_ = p.Close(context.Background())
				return nil, err
			}
		}
		return p, nil
	}
}

// Inject stamps the event with the fleet clock when its Time is zero
// and appends it to the feed; the next Tick applies it.
func (f *Fleet) Inject(ev gpusim.HealthEvent) {
	if ev.Time.IsZero() {
		ev.Time = f.clock.Now()
	}
	f.feed.Inject(ev)
}

// Solve routes one batch to the least-loaded servable device and runs
// it there. When the device fails in a device-local way — drained
// beneath the request, force-cancelled mid-solve by a cordon, queue
// full, faulted — and the request's own context is still live, the
// request re-routes to the next-best untried device, up to
// three devices in total. The returned error is the last
// device's (typed: ErrOverloaded, ErrPoolClosed, ErrCancelled,
// ErrFaulted, ErrUnrecoverable through gputrid), or
// ErrNoDevices/ErrFleetClosed.
func (f *Fleet) Solve(ctx context.Context, b *gputrid.Batch[float64]) (*Result, error) {
	var res *gputrid.PoolResult[float64]
	d, attempts, err := f.route(ctx, 1, func(be Backend) (err error) {
		res, err = be.Solve(ctx, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	if res.Faults != nil {
		// The device's fault layer had to repair this solve: surface
		// it to the control plane as corrected-ECC pressure so a sick
		// device escalates to a cordon.
		f.Inject(gpusim.HealthEvent{
			Device: d.id, Kind: gpusim.HealthECCCorrected,
			Message: "fault-layer recovery activity",
		})
	}
	return &Result{PoolResult: res, Device: d.id, Attempts: attempts}, nil
}

// SolveMegabatch routes one coalesced megabatch to the least-loaded
// servable device with the same re-route protocol as Solve. The
// flight weighs its system count in the router's load accounting —
// in-flight totals and the autoscaler's signals count systems, not
// requests, so a device holding a 48-system flight is not mistaken
// for an idle one. Device-local failures re-route the whole flight
// (per-system guard trouble never fails a flight; it lands in
// mb.Verdicts, which a failed attempt leaves untouched). Unlike
// Solve, no corrected-ECC health event is synthesized: the megabatch
// path surfaces no per-solve fault report.
func (f *Fleet) SolveMegabatch(ctx context.Context, mb *gputrid.Megabatch[float64]) error {
	if mb.Count == 0 {
		return nil
	}
	_, _, err := f.route(ctx, int64(mb.Count), func(be Backend) error {
		return be.SolveMegabatch(ctx, mb)
	})
	return err
}

// route is the re-route loop of both request kinds. It runs serve on
// the least-loaded servable untried device, with weight counted in
// flight there, until serve succeeds, the caller's ctx ends or the
// input is unsolvable (nothing another device could fix), or
// rerouteAttempts devices have failed.
// It returns the serving device and the number of devices tried, or
// the last device's error — ErrNoDevices/ErrFleetClosed when no
// device could be picked at all.
//
//tridlint:hotpath
func (f *Fleet) route(ctx context.Context, weight int64, serve func(Backend) error) (*device, int, error) {
	var tried uint64 // bitmask over device ids (Devices ≤ 64 enforced by New)
	var lastErr error
	for attempt := 1; attempt <= rerouteAttempts; attempt++ {
		d, be, err := f.pick(&tried, weight)
		if err != nil {
			if lastErr != nil {
				// Every servable device was tried and failed; surface
				// the device error, not the exhaustion.
				break
			}
			if errors.Is(err, ErrNoDevices) {
				f.noDevice.Add(1)
			}
			return nil, 0, err
		}

		// pick counted the request in flight on d; be is the backend
		// captured under the lock (a concurrent cordon may nil
		// d.backend at any moment).
		err = serve(be)
		f.inflightTotal.Add(-weight)
		d.inflight.Add(-weight)
		if err == nil {
			d.served.Add(1)
			f.served.Add(1)
			return d, attempt, nil
		}
		lastErr = err
		// An unsolvable system is the input's fault, not the device's.
		if errors.Is(err, gputrid.ErrUnrecoverable) {
			break
		}
		d.failed.Add(1)
		if ctx.Err() != nil {
			break
		}
		f.rerouted.Add(1)
	}
	f.rejected.Add(1)
	return nil, 0, lastErr
}

// Tick runs one control-loop step against the fleet clock: it applies
// every buffered health event, promotes devices whose probation
// expired, revives drained devices with a pending heal, and evaluates
// the autoscaler. Call it from a ticker in live serving, or from the
// scenario runner's virtual-time loop.
func (f *Fleet) Tick() {
	evs := f.feed.Drain()
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	for _, ev := range evs {
		f.applyEventLocked(ev, now)
	}
	for _, d := range f.devices {
		switch {
		case d.state == StateProbation && !now.Before(d.probationUntil):
			d.state = StateActive
			d.lastTransition = now
		case d.state == StateDead && d.wantHeal && !d.draining:
			d.wantHeal = false
			f.reviveLocked(d, StateProbation, now)
		}
	}
	f.scaleLocked(now)
}

// applyEventLocked is the cordon/drain policy table.
func (f *Fleet) applyEventLocked(ev gpusim.HealthEvent, now time.Time) {
	if ev.Device < 0 || ev.Device >= len(f.devices) {
		return
	}
	d := f.devices[ev.Device]

	// A probation device gets no grace: anything short of recovery
	// re-cordons it immediately.
	if d.state == StateProbation && ev.Kind.Severity() != gpusim.SeverityRecovery {
		f.cordonLocked(d, StateDead, now)
		return
	}

	switch ev.Kind.Severity() {
	case gpusim.SeverityFatal:
		if d.state.servable() {
			f.cordonLocked(d, StateDead, now)
		} else if d.state == StateStandby {
			// No traffic to drain; the device is simply unavailable to
			// the scaler until healed.
			d.state = StateDead
			d.lastTransition = now
		}
	case gpusim.SeverityDegraded:
		if d.state == StateActive {
			d.state = StateDeprioritized
			d.lastTransition = now
		}
	case gpusim.SeverityInfo:
		d.correctedECC++
		if d.correctedECC >= f.cfg.correctedECCLimit() && d.state.servable() {
			f.cordonLocked(d, StateDead, now)
		}
	case gpusim.SeverityRecovery:
		f.heals.Add(1)
		switch d.state {
		case StateDead:
			if d.draining {
				d.wantHeal = true
			} else {
				f.reviveLocked(d, StateProbation, now)
			}
		case StateCordoned:
			d.wantHeal = true
		case StateDeprioritized:
			// The pool survived a thermal deprioritization; probation
			// on the same pool.
			d.state = StateProbation
			d.probationUntil = now.Add(f.cfg.probation())
			d.lastTransition = now
		case StateActive:
			d.correctedECC = 0
		}
	}
}

// cordonLocked starts a graceful drain of the device's pool — the
// exact pool.Close protocol: admissions stop, in-flight solves finish,
// the DrainTimeout force-cancels stragglers (whose requests then
// re-route). The device lands in `target` (Dead for health cordons,
// Standby for scale-downs) once the drain completes.
func (f *Fleet) cordonLocked(d *device, target DeviceState, now time.Time) {
	if d.backend == nil || d.draining {
		return
	}
	f.cordons.Add(1)
	be := d.backend
	d.backend = nil // the router can no longer pick it
	d.state = StateCordoned
	d.drainTarget = target
	d.draining = true
	d.correctedECC = 0
	d.lastTransition = now
	f.drains.Add(1)
	go func() {
		defer f.drains.Done()
		ctx, cancel := context.WithTimeout(context.Background(), f.cfg.drainTimeout())
		defer cancel()
		if be.Close(ctx) != nil {
			f.forcedDrains.Add(1)
		}
		f.mu.Lock()
		d.draining = false
		d.state = d.drainTarget
		d.lastTransition = f.clock.Now()
		f.mu.Unlock()
	}()
}

// reviveLocked gives a drained device a fresh pool (a real device
// reset wipes device state, so nothing warmed survives) and puts it in
// `state` — Probation for heals, Active for scale-ups.
func (f *Fleet) reviveLocked(d *device, state DeviceState, now time.Time) {
	be, err := f.factory(d.id)
	if err != nil {
		f.buildFailures.Add(1)
		return
	}
	d.backend = be
	d.state = state
	d.correctedECC = 0
	d.lastTransition = now
	if state == StateProbation {
		d.probationUntil = now.Add(f.cfg.probation())
	}
	// A revived device is judged on fresh evidence: the gray-failure
	// diagnosis belonged to the hardware state the reset wiped.
	f.gray.reset(d.id)
}

// Quiesce blocks until every in-progress drain has completed — the
// scenario runner calls it so device state is settled before
// assertions, without any wall-clock sleep.
func (f *Fleet) Quiesce() { f.drains.Wait() }

// Stats snapshots the fleet.
func (f *Fleet) Stats() Stats {
	s := Stats{
		InFlight:      f.inflightTotal.Load(),
		Served:        f.served.Load(),
		Rejected:      f.rejected.Load(),
		Rerouted:      f.rerouted.Load(),
		NoDevice:      f.noDevice.Load(),
		Cordons:       f.cordons.Load(),
		Heals:         f.heals.Load(),
		ScaleUps:      f.scaleUps.Load(),
		ScaleDowns:    f.scaleDowns.Load(),
		ForcedDrains:  f.forcedDrains.Load(),
		BuildFailures: f.buildFailures.Load(),
		Events:        f.feed.Injected(),
		Distributed: DistStats{
			Solves:           f.distSolves.Load(),
			Deaths:           f.distDeaths.Load(),
			Migrations:       f.distMigrations.Load(),
			Degraded:         f.distDegraded.Load(),
			IntegrityRetries: f.distIntegrity.Load(),
			Hedges:           f.distHedges.Load(),
			HedgeWins:        f.distHedgeWins.Load(),
		},
		Gray: GrayStats{
			Stragglers: f.grayStragglers.Load(),
			FlakyLinks: f.grayFlaky.Load(),
		},
	}
	type liveDev struct {
		i  int
		be Backend
	}
	var live []liveDev
	f.mu.Lock()
	for _, d := range f.devices {
		ds := DeviceStats{
			ID:           d.id,
			State:        d.state,
			InFlight:     d.inflight.Load(),
			Served:       d.served.Load(),
			Failed:       d.failed.Load(),
			CorrectedECC: d.correctedECC,
			Gray:         f.graySnapshot(d.id),
		}
		c := &s.Census
		switch d.state {
		case StateActive:
			c.Active++
		case StateProbation:
			c.Probation++
		case StateDeprioritized:
			c.Deprioritized++
		case StateCordoned:
			c.Cordoned++
		case StateDead:
			c.Dead++
		case StateStandby:
			c.Standby++
		}
		if d.backend != nil {
			live = append(live, liveDev{len(s.Devices), d.backend})
		}
		s.Devices = append(s.Devices, ds)
	}
	f.mu.Unlock()
	// Pool snapshots outside the fleet lock: Stats takes pool mutexes.
	for _, ld := range live {
		ps := ld.be.Stats()
		s.Devices[ld.i].Pool = &ps
		s.QueueDepth += ps.QueueDepth
	}
	return s
}

// Close shuts the fleet down: Solve and Tick become no-ops, every live
// device pool is drained concurrently under ctx, and outstanding
// cordon drains are awaited. Idempotent.
func (f *Fleet) Close(ctx context.Context) error {
	f.mu.Lock()
	alreadyClosed := f.closed
	f.closed = true
	var live []Backend
	for _, d := range f.devices {
		if d.backend != nil {
			live = append(live, d.backend)
			d.backend = nil
			d.state = StateDead
			d.lastTransition = f.clock.Now()
		}
	}
	f.mu.Unlock()

	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, be := range live {
		wg.Add(1)
		go func(be Backend) {
			defer wg.Done()
			if err := be.Close(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(be)
	}
	wg.Wait()
	f.drains.Wait()
	f.closeDistributed()
	if alreadyClosed {
		return nil
	}
	return firstErr
}
