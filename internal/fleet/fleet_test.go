package fleet_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"gputrid"
	"gputrid/internal/batcher"
	"gputrid/internal/clock"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
)

// fakeBackend is a deterministic stand-in for one device's pool.
type fakeBackend struct {
	id int

	mu       sync.Mutex
	closed   bool
	solves   int
	solveErr error
	faults   *gputrid.FaultReport
	breaker  gputrid.BreakerState
	// holdClose, when non-nil, blocks Close until the channel closes or
	// the drain context expires (modeling a long graceful drain).
	holdClose chan struct{}
	// holdMega, when non-nil, parks SolveMegabatch until the channel
	// closes, so tests can observe weighted in-flight accounting.
	holdMega chan struct{}
}

func (b *fakeBackend) Solve(ctx context.Context, _ *gputrid.Batch[float64]) (*gputrid.PoolResult[float64], error) {
	b.mu.Lock()
	closed, err, faults := b.closed, b.solveErr, b.faults
	if !closed && err == nil {
		b.solves++
	}
	b.mu.Unlock()
	if closed {
		return nil, gputrid.ErrPoolClosed
	}
	if err != nil {
		return nil, err
	}
	return &gputrid.PoolResult[float64]{
		Result: &gputrid.Result[float64]{X: []float64{float64(b.id)}, Faults: faults},
		Route:  gputrid.RouteDevice,
	}, nil
}

func (b *fakeBackend) SolveMegabatch(ctx context.Context, mb *gputrid.Megabatch[float64]) error {
	b.mu.Lock()
	closed, err, hold := b.closed, b.solveErr, b.holdMega
	if !closed && err == nil {
		b.solves++
	}
	b.mu.Unlock()
	if hold != nil {
		select {
		case <-hold:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if closed {
		return gputrid.ErrPoolClosed
	}
	if err != nil {
		return err
	}
	// Stamp every system's solution with the device id so tests can
	// tell which device served the flight.
	for i := 0; i < mb.Count; i++ {
		for j := 0; j < mb.V.N; j++ {
			mb.Xi[j*mb.V.M+i] = float64(b.id)
		}
	}
	return nil
}

func (b *fakeBackend) Warm(m, n int) error { return nil }
func (b *fakeBackend) Stats() gputrid.PoolStats {
	return gputrid.PoolStats{Breaker: gputrid.BreakerSnapshot{State: b.breakerState()}}
}
func (b *fakeBackend) Breaker() gputrid.BreakerSnapshot {
	return gputrid.BreakerSnapshot{State: b.breakerState()}
}

func (b *fakeBackend) breakerState() gputrid.BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.breaker
}

func (b *fakeBackend) Close(ctx context.Context) error {
	b.mu.Lock()
	hold := b.holdClose
	b.mu.Unlock()
	if hold != nil {
		select {
		case <-hold:
		case <-ctx.Done():
			b.mu.Lock()
			b.closed = true
			b.mu.Unlock()
			return ctx.Err()
		}
	}
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return nil
}

func (b *fakeBackend) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// fakeFactory builds fakeBackends and remembers every instance, so
// tests can assert which generation a device is running.
type fakeFactory struct {
	mu   sync.Mutex
	made []*fakeBackend
}

func (f *fakeFactory) build(id int) (fleet.Backend, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	be := &fakeBackend{id: id}
	f.made = append(f.made, be)
	return be, nil
}

func (f *fakeFactory) builds() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.made)
}

func (f *fakeFactory) backend(i int) *fakeBackend {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.made[i]
}

func newTestFleet(t *testing.T, cfg fleet.Config, ff *fakeFactory, vc *clock.VirtualClock) *fleet.Fleet {
	t.Helper()
	cfg.Factory = ff.build
	cfg.Clock = vc
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close(context.Background()) })
	return f
}

func deviceState(t *testing.T, f *fleet.Fleet, id int) fleet.DeviceState {
	t.Helper()
	return f.Stats().Devices[id].State
}

// TestCordonDrainHealProbation walks the full state machine: a fatal
// XID cordons and drains the device, traffic re-routes, a healed event
// revives it on a *fresh* pool into probation, and a clean probation
// period promotes it back to Active.
func TestCordonDrainHealProbation(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2, Probation: 2 * time.Second}, ff, vc)
	ctx := context.Background()

	// Routing is least-loaded with round-robin ties; the first pick
	// starts its scan at device 0.
	res, err := f.Solve(ctx, nil)
	if err != nil || res.Device != 0 {
		t.Fatalf("first solve: dev=%v err=%v, want device 0", res, err)
	}

	// Fatal XID on device 0: next Tick cordons and drains it.
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthXID, XID: 79, Message: "fallen off the bus"})
	f.Tick()
	f.Quiesce()
	if got := deviceState(t, f, 0); got != fleet.StateDead {
		t.Fatalf("after XID + drain: device 0 state = %v, want dead", got)
	}
	if !ff.backend(0).isClosed() {
		t.Fatal("cordon did not drain device 0's pool through Close")
	}
	st := f.Stats()
	if st.Cordons != 1 || st.ForcedDrains != 0 {
		t.Fatalf("cordons/forced = %d/%d, want 1/0 (graceful)", st.Cordons, st.ForcedDrains)
	}

	// Traffic routes around the corpse.
	for i := 0; i < 3; i++ {
		res, err := f.Solve(ctx, nil)
		if err != nil {
			t.Fatalf("solve after cordon: %v", err)
		}
		if res.Device != 1 {
			t.Fatalf("solve routed to device %d, want 1", res.Device)
		}
	}

	// Heal: fresh pool, probation.
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthHealed})
	f.Tick()
	if got := deviceState(t, f, 0); got != fleet.StateProbation {
		t.Fatalf("after heal: device 0 state = %v, want probation", got)
	}
	if ff.builds() != 3 { // 2 initial + 1 revive
		t.Fatalf("factory built %d backends, want 3 (heal must NOT reuse the drained pool)", ff.builds())
	}

	// Probation device serves traffic.
	served0 := false
	for i := 0; i < 4; i++ {
		res, err := f.Solve(ctx, nil)
		if err != nil {
			t.Fatalf("probation solve: %v", err)
		}
		served0 = served0 || res.Device == 0
	}
	if !served0 {
		t.Fatal("probation device received no traffic")
	}

	// Probation expires only after the configured period of clock time.
	vc.Advance(time.Second)
	f.Tick()
	if got := deviceState(t, f, 0); got != fleet.StateProbation {
		t.Fatalf("1s into 2s probation: state = %v, want probation", got)
	}
	vc.Advance(time.Second + time.Millisecond)
	f.Tick()
	if got := deviceState(t, f, 0); got != fleet.StateActive {
		t.Fatalf("after probation: state = %v, want active", got)
	}
}

// TestProbationViolationRecordons: any non-recovery event during
// probation cordons the device immediately — no second chances.
func TestProbationViolationRecordons(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)

	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthECCUncorrected})
	f.Tick()
	f.Quiesce()
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthHealed})
	f.Tick()
	if got := deviceState(t, f, 0); got != fleet.StateProbation {
		t.Fatalf("state = %v, want probation", got)
	}

	// Even a mere corrected-ECC event is a probation violation.
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthECCCorrected})
	f.Tick()
	f.Quiesce()
	if got := deviceState(t, f, 0); got != fleet.StateDead {
		t.Fatalf("state after probation violation = %v, want dead", got)
	}
}

// TestThermalDeprioritize: a thermal event demotes the device to
// last-choice routing without draining its pool; healing returns it
// through probation on the SAME pool (thermals don't wipe device
// state).
func TestThermalDeprioritize(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)
	ctx := context.Background()

	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthThermal, Temp: 95})
	f.Tick()
	if got := deviceState(t, f, 0); got != fleet.StateDeprioritized {
		t.Fatalf("state = %v, want deprioritized", got)
	}
	if ff.backend(0).isClosed() {
		t.Fatal("thermal deprioritization must not drain the pool")
	}

	// All traffic avoids the hot device while device 1 is healthy.
	for i := 0; i < 4; i++ {
		res, err := f.Solve(ctx, nil)
		if err != nil || res.Device != 1 {
			t.Fatalf("solve %d: dev=%v err=%v, want device 1", i, res, err)
		}
	}

	// ...but it still serves when it is the only device left.
	f.Inject(gpusim.HealthEvent{Device: 1, Kind: gpusim.HealthXID, XID: 48})
	f.Tick()
	f.Quiesce()
	res, err := f.Solve(ctx, nil)
	if err != nil || res.Device != 0 {
		t.Fatalf("last-resort solve: dev=%v err=%v, want the deprioritized device 0", res, err)
	}

	// Heal the thermal: probation on the same pool — no rebuild.
	builds := ff.builds()
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthHealed})
	f.Tick()
	if got := deviceState(t, f, 0); got != fleet.StateProbation {
		t.Fatalf("state after thermal heal = %v, want probation", got)
	}
	if ff.builds() != builds {
		t.Fatal("thermal heal rebuilt the pool; it must keep the live one")
	}
}

// TestCorrectedECCEscalation: corrected-ECC events are harmless
// individually but cordon the device once they accumulate past the
// policy threshold of 8.
func TestCorrectedECCEscalation(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)

	for i := 0; i < 7; i++ {
		f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthECCCorrected})
	}
	f.Tick()
	if got := deviceState(t, f, 0); got != fleet.StateActive {
		t.Fatalf("below threshold: state = %v, want active", got)
	}
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthECCCorrected})
	f.Tick()
	f.Quiesce()
	if got := deviceState(t, f, 0); got != fleet.StateDead {
		t.Fatalf("at threshold: state = %v, want dead (cordoned + drained)", got)
	}
}

// TestCorrectedECCOneDevice: the default escalation cordons a device
// of a larger fleet, but a one-device fleet never cordons its only
// device on corrected-ECC pressure — traffic would move nowhere, and
// the pool's breaker and host fallback keep serving instead.
func TestCorrectedECCOneDevice(t *testing.T) {
	for _, tc := range []struct {
		devices int
		want    fleet.DeviceState
	}{{1, fleet.StateActive}, {2, fleet.StateDead}} {
		vc := clock.NewVirtualClock(time.Unix(0, 0))
		ff := &fakeFactory{}
		f := newTestFleet(t, fleet.Config{Devices: tc.devices}, ff, vc)
		for i := 0; i < 10; i++ {
			f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthECCCorrected})
		}
		f.Tick()
		f.Quiesce()
		if got := deviceState(t, f, 0); got != tc.want {
			t.Fatalf("Devices %d after 10 corrected-ECC events: state = %v, want %v", tc.devices, got, tc.want)
		}
	}

	// The synthesized events of fault-repaired solves take the same
	// path: a one-device fleet keeps serving through a fault burst.
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 1}, ff, vc)
	ff.backend(0).mu.Lock()
	ff.backend(0).faults = &gputrid.FaultReport{Faults: 1}
	ff.backend(0).mu.Unlock()
	for i := 0; i < 12; i++ {
		if _, err := f.Solve(context.Background(), nil); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		f.Tick()
		f.Quiesce()
	}
	if st := f.Stats(); st.Devices[0].State != fleet.StateActive || st.Cordons != 0 {
		t.Fatalf("one-device fleet after a fault burst: state %v, cordons %d, want active, 0",
			st.Devices[0].State, st.Cordons)
	}
}

// TestStatsDegraded: the fleet reads degraded while it still serves
// but no servable device has a closed breaker, or none is Active.
func TestStatsDegraded(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 1}, ff, vc)
	if f.Stats().Degraded() {
		t.Fatal("healthy one-device fleet reads degraded")
	}
	ff.backend(0).mu.Lock()
	ff.backend(0).breaker = gputrid.BreakerOpen
	ff.backend(0).mu.Unlock()
	if !f.Stats().Degraded() {
		t.Fatal("one-device fleet with its breaker open does not read degraded")
	}
	ff.backend(0).mu.Lock()
	ff.backend(0).breaker = gputrid.BreakerClosed
	ff.backend(0).mu.Unlock()
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthThermal, Temp: 95})
	f.Tick()
	if st := f.Stats(); st.Devices[0].State != fleet.StateDeprioritized || !st.Degraded() {
		t.Fatalf("thermally throttled only device: state %v, degraded %v, want deprioritized, true",
			st.Devices[0].State, st.Degraded())
	}
}

// TestSolveFaultsEscalateToCordon: device solves whose fault layer had
// to recover emit corrected-ECC health events, so a device with
// sustained data-plane faults eventually cordons itself.
func TestSolveFaultsEscalateToCordon(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)
	ctx := context.Background()

	// Device 0's solves carry fault reports; keep device 1 clean.
	ff.backend(0).mu.Lock()
	ff.backend(0).faults = &gputrid.FaultReport{Faults: 1}
	ff.backend(0).mu.Unlock()

	// Ties rotate round-robin, so 16 solves land on device 0 eight
	// times: the escalation threshold.
	for i := 0; i < 16; i++ {
		if _, err := f.Solve(ctx, nil); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		f.Tick()
		f.Quiesce()
	}
	if got := deviceState(t, f, 0); got != fleet.StateDead {
		t.Fatalf("faulty device state = %v, want dead (ECC escalation)", got)
	}
	if got := deviceState(t, f, 1); got != fleet.StateActive {
		t.Fatalf("clean device state = %v, want active", got)
	}
}

// TestRerouteOnDeadDevice: a request whose device drains beneath it
// re-routes to the next device and succeeds; Attempts reflects it.
func TestRerouteOnDeadDevice(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)

	// Device 0's pool rejects with ErrPoolClosed (drained beneath the
	// router's nose — the fleet hasn't processed the cordon yet).
	ff.backend(0).mu.Lock()
	ff.backend(0).closed = true
	ff.backend(0).mu.Unlock()

	res, err := f.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Device != 1 || res.Attempts != 2 {
		t.Fatalf("served by device %d in %d attempts, want device 1 in 2", res.Device, res.Attempts)
	}
	if st := f.Stats(); st.Rerouted != 1 {
		t.Fatalf("rerouted = %d, want 1", st.Rerouted)
	}
}

// TestRerouteAttemptsBounded: a request tries at most three devices,
// even when more are servable, and then returns the last device's
// error.
func TestRerouteAttemptsBounded(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 4}, ff, vc)
	for id := 0; id < 4; id++ {
		ff.backend(id).mu.Lock()
		ff.backend(id).closed = true
		ff.backend(id).mu.Unlock()
	}

	if _, err := f.Solve(context.Background(), nil); !errors.Is(err, gputrid.ErrPoolClosed) {
		t.Fatalf("solve on a fleet of closed pools: %v, want ErrPoolClosed", err)
	}
	st := f.Stats()
	var failed uint64
	for _, d := range st.Devices {
		failed += d.Failed
	}
	if failed != 3 || st.Rerouted != 3 || st.Rejected != 1 {
		t.Fatalf("tried %d devices (rerouted %d, rejected %d), want 3 tried, 3 rerouted, 1 rejected",
			failed, st.Rerouted, st.Rejected)
	}
}

// TestCallerCancellationDoesNotReroute: when the request's own context
// is dead, no re-route may happen — nothing another device could fix.
func TestCallerCancellationDoesNotReroute(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ff.backend(0).mu.Lock()
	ff.backend(0).solveErr = gputrid.ErrCancelled
	ff.backend(0).mu.Unlock()
	ff.backend(1).mu.Lock()
	ff.backend(1).solveErr = gputrid.ErrCancelled
	ff.backend(1).mu.Unlock()

	if _, err := f.Solve(ctx, nil); !errors.Is(err, gputrid.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if st := f.Stats(); st.Rerouted != 0 {
		t.Fatalf("rerouted = %d, want 0 for caller-cancelled request", st.Rerouted)
	}
}

// TestUnsolvableDoesNotReroute: a system the pool's verdict cannot
// solve fails the same way on every device, so the request fails on
// the first one instead of re-routing.
func TestUnsolvableDoesNotReroute(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)
	for id := 0; id < 2; id++ {
		ff.backend(id).mu.Lock()
		ff.backend(id).solveErr = &gputrid.SolveError{Stage: gputrid.StagePivot, Residual: math.Inf(1)}
		ff.backend(id).mu.Unlock()
	}

	if _, err := f.Solve(context.Background(), nil); !errors.Is(err, gputrid.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
	st := f.Stats()
	if st.Rerouted != 0 || st.Rejected != 1 {
		t.Fatalf("rerouted %d, rejected %d; want 0 and 1 for an unsolvable system", st.Rerouted, st.Rejected)
	}
	// Sick input is not a sick device.
	for id, d := range st.Devices {
		if d.Failed != 0 {
			t.Errorf("device %d: failed=%d for an unsolvable system, want 0", id, d.Failed)
		}
	}
}

// TestRouteSameForBothKinds drives the one re-route loop through both
// request kinds: a device-local failure followed by a re-route, every
// device failing, and a caller whose ctx is already cancelled must
// leave the same counters for a direct request and a coalesced flight,
// with nothing left in flight.
func TestRouteSameForBothKinds(t *testing.T) {
	kinds := []struct {
		name  string
		solve func(context.Context, *fleet.Fleet) error
	}{
		{"direct", func(ctx context.Context, f *fleet.Fleet) error {
			_, err := f.Solve(ctx, nil)
			return err
		}},
		{"coalesced", func(ctx context.Context, f *fleet.Fleet) error {
			return f.SolveMegabatch(ctx, mkMega(3, 4))
		}},
	}
	closed := func(be *fakeBackend) { be.closed = true }
	cancelled := func(be *fakeBackend) { be.solveErr = gputrid.ErrCancelled }
	cases := []struct {
		name     string
		break0   func(*fakeBackend)
		break1   func(*fakeBackend)
		cancel   bool
		wantErr  error
		want     [4]uint64 // served, rerouted, rejected, no-device
		wantDevs [2][2]uint64
	}{
		{"reroute", closed, nil, false, nil, [4]uint64{1, 1, 0, 0}, [2][2]uint64{{0, 1}, {1, 0}}},
		{"all-fail", closed, closed, false, gputrid.ErrPoolClosed, [4]uint64{0, 2, 1, 0}, [2][2]uint64{{0, 1}, {0, 1}}},
		{"caller-cancelled", cancelled, cancelled, true, gputrid.ErrCancelled, [4]uint64{0, 0, 1, 0}, [2][2]uint64{{0, 1}, {0, 0}}},
	}
	for _, tc := range cases {
		for _, kind := range kinds {
			ff := &fakeFactory{}
			f := newTestFleet(t, fleet.Config{Devices: 2}, ff, clock.NewVirtualClock(time.Unix(0, 0)))
			for id, brk := range []func(*fakeBackend){tc.break0, tc.break1} {
				if brk != nil {
					be := ff.backend(id)
					be.mu.Lock()
					brk(be)
					be.mu.Unlock()
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				cancel()
			}
			err := kind.solve(ctx, f)
			cancel()
			if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s/%s: err = %v, want %v", tc.name, kind.name, err, tc.wantErr)
			}
			st := f.Stats()
			if c := [4]uint64{st.Served, st.Rerouted, st.Rejected, st.NoDevice}; c != tc.want {
				t.Errorf("%s/%s: served/rerouted/rejected/no-device = %v, want %v", tc.name, kind.name, c, tc.want)
			}
			for id, d := range st.Devices {
				if c := [2]uint64{d.Served, d.Failed}; c != tc.wantDevs[id] || d.InFlight != 0 {
					t.Errorf("%s/%s: device %d served/failed = %v in flight %d, want %v and 0",
						tc.name, kind.name, id, c, d.InFlight, tc.wantDevs[id])
				}
			}
			if st.InFlight != 0 {
				t.Errorf("%s/%s: %d still in flight", tc.name, kind.name, st.InFlight)
			}
		}
	}
}

// TestBreakerAwareRouting: at equal load, a device whose breaker is
// open (serving off its CPU fallback) loses to one whose device path
// is healthy.
func TestBreakerAwareRouting(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)

	// Device 0 would take its round-robin share; trip its breaker.
	ff.backend(0).mu.Lock()
	ff.backend(0).breaker = gputrid.BreakerOpen
	ff.backend(0).mu.Unlock()

	for i := 0; i < 3; i++ {
		res, err := f.Solve(context.Background(), nil)
		if err != nil || res.Device != 1 {
			t.Fatalf("solve %d: dev=%v err=%v, want breaker-closed device 1", i, res, err)
		}
	}
}

// TestAutoscaleUpAndDown: offered load above the high watermark
// activates a standby device (after the cooldown); sustained idleness
// drains one back to standby, never below MinActive.
func TestAutoscaleUpAndDown(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{
		Devices: 2, InitialActive: 1, MinActive: 1,
		ScaleCooldown: time.Second,
	}, ff, vc)
	ctx := context.Background()

	// Heavy offered load: 10 requests against 1 device x capacity 2.
	for i := 0; i < 10; i++ {
		if _, err := f.Solve(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Inside the cooldown no scaling happens...
	f.Tick()
	if got := deviceState(t, f, 1); got != fleet.StateStandby {
		t.Fatalf("scaled during cooldown: device 1 = %v", got)
	}
	// ...after it, the same load scales up.
	for i := 0; i < 10; i++ {
		if _, err := f.Solve(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	vc.Advance(1100 * time.Millisecond)
	f.Tick()
	if got := deviceState(t, f, 1); got != fleet.StateActive {
		t.Fatalf("device 1 = %v, want active after scale-up", got)
	}
	if st := f.Stats(); st.ScaleUps != 1 {
		t.Fatalf("scaleUps = %d, want 1", st.ScaleUps)
	}

	// Idle long enough: scale back down to MinActive, but never below.
	vc.Advance(1100 * time.Millisecond)
	f.Tick() // idle interval -> scale down one
	f.Quiesce()
	vc.Advance(1100 * time.Millisecond)
	f.Tick() // still idle -> at MinActive, must hold
	f.Quiesce()
	st := f.Stats()
	if st.ScaleDowns != 1 {
		t.Fatalf("scaleDowns = %d, want exactly 1 (MinActive floor)", st.ScaleDowns)
	}
	if st.Census.Active != 1 || st.Census.Standby != 1 {
		t.Fatalf("census after scale-down: %+v, want 1 active + 1 standby", st)
	}
}

// TestMassCordonRevivesStandby: when every serving device dies, the
// scaler reactivates a standby device immediately, cooldown be damned.
func TestMassCordonRevivesStandby(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2, InitialActive: 1}, ff, vc)

	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthXID, XID: 79})
	f.Tick()
	f.Quiesce()
	f.Tick() // scaler sees zero serving devices -> instant reactivation
	res, err := f.Solve(context.Background(), nil)
	if err != nil || res.Device != 1 {
		t.Fatalf("post-mass-cordon solve: dev=%v err=%v, want standby-revived device 1", res, err)
	}
}

// TestForcedDrainCount: a drain that outlives DrainTimeout is
// force-cancelled and counted.
func TestForcedDrainCount(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2, DrainTimeout: 10 * time.Millisecond}, ff, vc)

	hold := make(chan struct{})
	ff.backend(0).mu.Lock()
	ff.backend(0).holdClose = hold
	ff.backend(0).mu.Unlock()
	defer close(hold)

	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthXID})
	f.Tick()
	f.Quiesce()
	st := f.Stats()
	if st.ForcedDrains != 1 {
		t.Fatalf("forcedDrains = %d, want 1", st.ForcedDrains)
	}
	if st.Devices[0].State != fleet.StateDead {
		t.Fatalf("device 0 = %v, want dead after forced drain", st.Devices[0].State)
	}
}

// TestFleetClose: close drains every live pool, further solves fail
// typed, and close is idempotent.
func TestFleetClose(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 3}, ff, vc)

	if err := f.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < ff.builds(); i++ {
		if !ff.backend(i).isClosed() {
			t.Fatalf("backend %d not drained by Close", i)
		}
	}
	if _, err := f.Solve(context.Background(), nil); !errors.Is(err, fleet.ErrFleetClosed) {
		t.Fatalf("solve after close: %v, want ErrFleetClosed", err)
	}
	if err := f.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// mkMega builds a minimal megabatch of count systems (the fake
// backends never read the coefficients).
func mkMega(count, n int) *gputrid.Megabatch[float64] {
	return &gputrid.Megabatch[float64]{
		V:        matrix.NewInterleaved[float64](count, n),
		Count:    count,
		Xi:       make([]float64, count*n),
		Verdicts: make([]batcher.Verdict, count),
	}
}

// TestSolveMegabatchWeightedRouting pins the batching tier's fleet
// contract: a coalesced flight counts its systems — not one request —
// in the fleet's in-flight accounting, and a device-local failure
// re-routes the whole flight to another device.
func TestSolveMegabatchWeightedRouting(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)
	ctx := context.Background()

	// Park a 5-system flight on whichever device takes it; while held,
	// the fleet must report 5 systems in flight, not 1 request.
	hold := make(chan struct{})
	for i := 0; i < 2; i++ {
		ff.backend(i).mu.Lock()
		ff.backend(i).holdMega = hold
		ff.backend(i).mu.Unlock()
	}
	mb := mkMega(5, 4)
	done := make(chan error, 1)
	go func() { done <- f.SolveMegabatch(ctx, mb) }()
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().InFlight != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d, want 5 (systems, not requests)", f.Stats().InFlight)
		}
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held flight: %v", err)
	}
	st := f.Stats()
	if st.InFlight != 0 || st.Served != 1 {
		t.Fatalf("after flight: InFlight=%d Served=%d, want 0/1", st.InFlight, st.Served)
	}
	// The fake stamps solutions with its device id; all systems of one
	// flight must come from one device.
	for i, x := range mb.Xi {
		if x != mb.Xi[0] {
			t.Fatalf("Xi[%d] = %v: flight split across devices", i, x)
		}
	}
	served := int(mb.Xi[0])

	// Kill the serving device's backend and pin weighted load on the
	// healthy one, so the next flight is deterministically offered to
	// the failed device first and must re-route in one call.
	healthy := 1 - served
	ff.backend(served).mu.Lock()
	ff.backend(served).solveErr = gputrid.ErrFaulted
	ff.backend(served).holdMega = nil
	ff.backend(served).mu.Unlock()
	hold2 := make(chan struct{})
	ff.backend(healthy).mu.Lock()
	ff.backend(healthy).holdMega = hold2
	ff.backend(healthy).mu.Unlock()

	pin := mkMega(4, 4)
	pinDone := make(chan error, 1)
	go func() { pinDone <- f.SolveMegabatch(ctx, pin) }()
	deadline = time.Now().Add(5 * time.Second)
	for f.Stats().InFlight != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d, want pinned 4", f.Stats().InFlight)
		}
	}

	mb2 := mkMega(3, 4)
	done2 := make(chan error, 1)
	go func() { done2 <- f.SolveMegabatch(ctx, mb2) }()
	for f.Stats().InFlight != 7 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d, want 7 after re-route", f.Stats().InFlight)
		}
	}
	close(hold2)
	if err := <-pinDone; err != nil {
		t.Fatalf("pin flight: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("re-routed flight: %v", err)
	}
	if got := int(mb2.Xi[0]); got == served {
		t.Fatalf("flight served by failed device %d", got)
	}
	if st := f.Stats(); st.Rerouted == 0 {
		t.Fatal("no re-route recorded")
	}
}
