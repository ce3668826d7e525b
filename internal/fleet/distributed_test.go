package fleet_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"gputrid"
	"gputrid/internal/clock"
	"gputrid/internal/core"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// distReference runs the same distributed solve on a fault-free
// topology of the same width — the bitwise reference the fleet-served
// result must reproduce regardless of deaths and migrations.
func distReference(t *testing.T, devices int, b *gputrid.Batch[float64]) []float64 {
	t.Helper()
	topo, err := gpusim.UniformTopology(devices, gpusim.NVLinkMesh(), gpusim.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewDistSolver[float64](core.DistConfig{Topology: topo, Slabs: devices}, b.M, b.N)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := make([]float64, b.M*b.N)
	if _, err := s.SolveInto(context.Background(), ref, b); err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestFleetSolveDistributed(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 3}, ff, vc)

	const m, n = 2, 193
	b := workload.Batch[float64](workload.DiagDominant, m, n, 7)
	res, err := f.SolveDistributed(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 3 || res.Report.Slabs != 3 || len(res.Report.Deaths) != 0 {
		t.Fatalf("unexpected result: live %v report %+v", res.Live, res.Report)
	}
	ref := distReference(t, 3, b)
	for i := range ref {
		if res.X[i] != ref[i] {
			t.Fatalf("element %d differs bitwise from fault-free reference: %x vs %x",
				i, math.Float64bits(res.X[i]), math.Float64bits(ref[i]))
		}
	}
	st := f.Stats()
	if st.Distributed.Solves != 1 || st.Distributed.Deaths != 0 || st.Served != 1 {
		t.Errorf("stats %+v, want 1 distributed solve served", st)
	}
	// A second same-shape solve reuses the cached solver.
	if _, err := f.SolveDistributed(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Distributed.Solves != 2 {
		t.Errorf("Distributed.Solves = %d after second solve, want 2", st.Distributed.Solves)
	}
}

// TestFleetDistributedDeviceDeath is the integration contract of the
// issue: a device dying mid-distributed-solve must (a) not fail the
// solve, (b) leave the answer bitwise identical to the fault-free run,
// and (c) surface into the fleet's health feed so the next Tick
// cordons the failure domain while the solve's result is already
// served.
func TestFleetDistributedDeviceDeath(t *testing.T) {
	const devices, victim = 3, 1
	topo, err := gpusim.UniformTopology(devices, gpusim.NVLinkMesh(), gpusim.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	topo.Device(victim).Faults = &gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
	}
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: devices, DistTopology: topo}, ff, vc)

	const m, n = 2, 193
	b := workload.Batch[float64](workload.DiagDominant, m, n, 7)
	res, err := f.SolveDistributed(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Deaths) != 1 || res.Report.Deaths[0] != victim {
		t.Fatalf("Deaths = %v, want [%d]", res.Report.Deaths, victim)
	}
	if res.Report.Migrations == 0 {
		t.Error("death recovered without any migration recorded")
	}
	ref := distReference(t, devices, b)
	for i := range ref {
		if res.X[i] != ref[i] {
			t.Fatalf("element %d differs bitwise from fault-free reference: %x vs %x",
				i, math.Float64bits(res.X[i]), math.Float64bits(ref[i]))
		}
	}

	// The death was injected into the health feed during the solve;
	// the next control-loop step cordons the victim.
	f.Tick()
	f.Quiesce()
	st := f.Stats()
	if st.Distributed.Deaths != 1 {
		t.Errorf("Distributed.Deaths = %d, want 1", st.Distributed.Deaths)
	}
	if got := st.Devices[victim].State; got != fleet.StateDead {
		t.Errorf("victim device state = %v after Tick+drain, want dead", got)
	}
	if st.Cordons != 1 {
		t.Errorf("Cordons = %d, want 1", st.Cordons)
	}

	// Survivors keep serving distributed solves: the partition is a
	// function of the fleet width, so the degraded fleet reproduces the
	// same bits.
	res2, err := f.SolveDistributed(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Live) != devices-1 {
		t.Fatalf("post-cordon live set %v, want %d survivors", res2.Live, devices-1)
	}
	for i := range ref {
		if res2.X[i] != ref[i] {
			t.Fatalf("post-cordon element %d differs bitwise: %x vs %x",
				i, math.Float64bits(res2.X[i]), math.Float64bits(ref[i]))
		}
	}
}

// TestDistributedVerdict: the slab elimination never pivots, so a
// vanishing leading pivot or an all-zero matrix turns the distributed
// answer non-finite, and a zero separator row makes the reduced system
// singular. The distributed route then judges the answer as the pool
// route does: the rescuable batch comes back with the pool route's
// bits, the unsolvable ones fail with ErrUnrecoverable, and none
// returns NaN.
func TestDistributedVerdict(t *testing.T) {
	f, err := fleet.New(fleet.Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(context.Background())
	ctx := context.Background()

	rescuable := workload.Batch[float64](workload.DiagDominant, 1, 129, 5)
	rescuable.Diag[0] = 0
	res, err := f.SolveDistributed(ctx, rescuable)
	if err != nil {
		t.Fatalf("rescuable batch: %v", err)
	}
	if !res.Report.NonFinite {
		t.Error("a vanishing pivot did not flag the distributed report NonFinite")
	}
	pool, err := f.Solve(ctx, rescuable)
	if err != nil {
		t.Fatalf("pool route, rescuable batch: %v", err)
	}
	if res.Rescued != 1 || pool.Rescued != 1 {
		t.Errorf("rescued: distributed %d, pool %d; want 1 on both", res.Rescued, pool.Rescued)
	}
	for i := range pool.X {
		if res.X[i] != pool.X[i] {
			t.Fatalf("x[%d]: distributed %v, pool %v; want the same rescued bits", i, res.X[i], pool.X[i])
		}
	}

	singular := &gputrid.Batch[float64]{M: 1, N: 129,
		Lower: make([]float64, 129), Diag: make([]float64, 129), Upper: make([]float64, 129), RHS: make([]float64, 129)}
	for i := range singular.RHS {
		singular.RHS[i] = 1
	}
	if res, err := f.SolveDistributed(ctx, singular); !errors.Is(err, gputrid.ErrUnrecoverable) {
		t.Fatalf("all-zero matrix: result %v, err %v; want ErrUnrecoverable", res, err)
	}
	part, err := core.NewPartition(129, 2)
	if err != nil {
		t.Fatal(err)
	}
	zeroSep := workload.Batch[float64](workload.DiagDominant, 1, 129, 7)
	sep := part.Separator(0)
	zeroSep.Lower[sep], zeroSep.Diag[sep], zeroSep.Upper[sep] = 0, 0, 0
	if res, err := f.SolveDistributed(ctx, zeroSep); !errors.Is(err, gputrid.ErrUnrecoverable) {
		t.Fatalf("zero separator row: result %v, err %v; want ErrUnrecoverable", res, err)
	}
	if st := f.Stats(); st.Served != 2 || st.Rejected != 2 {
		t.Errorf("served %d rejected %d, want 2 (pool and distributed rescues) and 2", st.Served, st.Rejected)
	}

	healthy := workload.Batch[float64](workload.DiagDominant, 2, 129, 6)
	if res, err := f.SolveDistributed(ctx, healthy); err != nil || res.Report.NonFinite || res.Rescued != 0 {
		t.Fatalf("healthy batch: err %v, result %+v", err, res)
	}
}

func TestFleetDistributedNoDevices(t *testing.T) {
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{Devices: 2}, ff, vc)
	for id := 0; id < 2; id++ {
		f.Inject(gpusim.HealthEvent{Device: id, Kind: gpusim.HealthXID, XID: 79})
	}
	f.Tick()
	f.Quiesce()

	b := workload.Batch[float64](workload.DiagDominant, 1, 64, 1)
	if _, err := f.SolveDistributed(context.Background(), b); !errors.Is(err, fleet.ErrNoDevices) {
		t.Fatalf("err = %v, want ErrNoDevices", err)
	}
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveDistributed(context.Background(), b); !errors.Is(err, fleet.ErrFleetClosed) {
		t.Fatalf("err = %v, want ErrFleetClosed", err)
	}
}

func TestFleetDistributedTopologyMismatch(t *testing.T) {
	topo, err := gpusim.UniformTopology(2, gpusim.PCIe2(), gpusim.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.New(fleet.Config{Devices: 3, DistTopology: topo}); err == nil {
		t.Fatal("accepted a topology narrower than the fleet")
	}
}

// drainBackend models the pool drain protocol the fleet relies on:
// Solve parks until the backend is drained (Close) or the request's
// context ends, so a cordon's force-cancel genuinely interrupts
// in-flight work and triggers re-routes.
type drainBackend struct {
	id      int
	drained chan struct{}
	once    sync.Once
}

func newDrainBackend(id int) *drainBackend {
	return &drainBackend{id: id, drained: make(chan struct{})}
}

func (b *drainBackend) Solve(ctx context.Context, _ *gputrid.Batch[float64]) (*gputrid.PoolResult[float64], error) {
	select {
	case <-b.drained:
		return nil, gputrid.ErrPoolClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *drainBackend) SolveMegabatch(ctx context.Context, _ *gputrid.Megabatch[float64]) error {
	select {
	case <-b.drained:
		return gputrid.ErrPoolClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *drainBackend) Warm(m, n int) error              { return nil }
func (b *drainBackend) Stats() gputrid.PoolStats         { return gputrid.PoolStats{} }
func (b *drainBackend) Breaker() gputrid.BreakerSnapshot { return gputrid.BreakerSnapshot{} }
func (b *drainBackend) Close(ctx context.Context) error {
	b.once.Do(func() { close(b.drained) })
	return nil
}

// TestCloseRacesDrainReroute is the shutdown goroutine-settle test: a
// cordon-triggered drain force-fails in-flight solves, whose requests
// re-route to the other device — and Fleet.Close lands in the middle
// of that re-route storm. Whatever interleaving the race takes, every
// request goroutine and every internal drain goroutine must exit: the
// process settles back to its pre-fleet goroutine count.
func TestCloseRacesDrainReroute(t *testing.T) {
	baseline := runtime.NumGoroutine()

	vc := clock.NewVirtualClock(time.Unix(0, 0))
	cfg := fleet.Config{
		Devices:      2,
		Clock:        vc,
		DrainTimeout: 50 * time.Millisecond,
		Factory:      func(id int) (fleet.Backend, error) { return newDrainBackend(id), nil },
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Park a pile of requests across both devices.
	b := workload.Batch[float64](workload.DiagDominant, 1, 8, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every outcome is an error here (the backends never
			// complete a solve); the assertion is purely that the call
			// returns.
			_, _ = f.Solve(context.Background(), b)
		}()
	}

	// Cordon device 0: its drain force-fails the parked solves, which
	// re-route onto device 1 — while Close races the whole thing.
	f.Inject(gpusim.HealthEvent{Device: 0, Kind: gpusim.HealthXID, XID: 79})
	var closeWG sync.WaitGroup
	closeWG.Add(2)
	go func() {
		defer closeWG.Done()
		f.Tick()
	}()
	go func() {
		defer closeWG.Done()
		_ = f.Close(context.Background())
	}()
	closeWG.Wait()
	wg.Wait()

	// Settle: every fleet goroutine (drains, request retries) must be
	// gone. Allow a generous window — the drain timeout bounds the
	// slowest exit path.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		var buf strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
		t.Fatalf("goroutines did not settle: %d > baseline %d\n%s", got, baseline, buf.String())
	}
}
