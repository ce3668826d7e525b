package fleet_test

import (
	"context"
	"math"
	"testing"
	"time"

	"gputrid/internal/clock"
	"gputrid/internal/core"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// grayTopo builds the distributed fabric for gray-failure tests:
// `devices` GTX480s on an NVLink mesh, with one silent straggler
// (SlowFactor, no health event) and/or one flaky link (seeded
// corruption on every transfer touching the victim device).
func grayTopo(t *testing.T, devices, straggler int, slow float64, flaky int, rate float64) *gpusim.Topology {
	t.Helper()
	devs := make([]*gpusim.Device, devices)
	for i := range devs {
		devs[i] = gpusim.GTX480()
		if i == straggler {
			devs[i].SlowFactor = slow
		}
	}
	topo, err := gpusim.NewTopology(gpusim.NVLinkMesh(), devs...)
	if err != nil {
		t.Fatal(err)
	}
	if flaky >= 0 {
		topo.Links = &gpusim.LinkInjector{
			Seed:    99,
			Rate:    rate,
			Devices: []int{flaky},
		}
	}
	return topo
}

// A silently slow device — correct answers, no driver event, just a
// SlowFactor on its modeled kernel time — must be diagnosed from
// distributed-solve latency residue and cordoned by the control loop,
// while every response stays bitwise identical to the fault-free
// fleet's.
func TestGrayStragglerDetectedAndCordoned(t *testing.T) {
	const devices, straggler = 4, 2
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{
		Devices:      devices,
		DistTopology: grayTopo(t, devices, straggler, 20, -1, 0),
		// Hedging off so the straggler keeps its slab and its latency
		// signature stays in the per-device observations.
		DistHedge: core.HedgePolicy{Disable: true},
	}, ff, vc)

	const m, n = 2, 193
	b := workload.Batch[float64](workload.DiagDominant, m, n, 11)
	ref := distReference(t, devices, b)

	for i := 0; i < 3; i++ {
		res, err := f.SolveDistributed(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if res.X[j] != ref[j] {
				t.Fatalf("solve %d element %d differs bitwise from fault-free reference: %x vs %x",
					i, j, math.Float64bits(res.X[j]), math.Float64bits(ref[j]))
			}
		}
		vc.Advance(10 * time.Millisecond)
		f.Tick()
	}
	f.Quiesce()

	st := f.Stats()
	if st.Gray.Stragglers != 1 {
		t.Fatalf("Gray.Stragglers = %d, want 1", st.Gray.Stragglers)
	}
	if got := st.Devices[straggler].State; got != fleet.StateDead && got != fleet.StateCordoned {
		t.Fatalf("straggler device state %v, want cordoned/dead", got)
	}
	if st.Devices[straggler].Gray.LatencyRatio < 2.5 {
		t.Fatalf("straggler EWMA ratio %.2f, want >= 2.5", st.Devices[straggler].Gray.LatencyRatio)
	}
	for id, d := range st.Devices {
		if id != straggler && d.State != fleet.StateActive {
			t.Fatalf("healthy device %d left active (state %v)", id, d.State)
		}
	}
	if st.Cordons != 1 {
		t.Fatalf("Cordons = %d, want exactly the straggler's", st.Cordons)
	}
}

// A link that keeps corrupting transfers — every corruption caught
// and repaired by the solver's checksum layer, so no answer is ever
// wrong — must still get its device cordoned once the integrity-retry
// residue crosses the policy limit.
func TestGrayFlakyLinkDetectedAndCordoned(t *testing.T) {
	const devices, victim = 4, 1
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	f := newTestFleet(t, fleet.Config{
		Devices:      devices,
		DistTopology: grayTopo(t, devices, -1, 0, victim, 0.45),
		DistHedge:    core.HedgePolicy{Disable: true},
		Gray:         fleet.GrayPolicy{IntegrityLimit: 3},
	}, ff, vc)

	const m, n = 2, 257
	b := workload.Batch[float64](workload.DiagDominant, m, n, 23)
	ref := distReference(t, devices, b)

	degraded := 0
	for i := 0; i < 8; i++ {
		res, err := f.SolveDistributed(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		degraded += len(res.Report.Degraded)
		if len(res.Report.Degraded) == 0 {
			// Every corruption was repaired in place: the response must
			// be bitwise identical to the fault-free fleet's.
			for j := range ref {
				if res.X[j] != ref[j] {
					t.Fatalf("solve %d element %d differs bitwise: %x vs %x",
						i, j, math.Float64bits(res.X[j]), math.Float64bits(ref[j]))
				}
			}
		}
		for j := range res.X {
			if math.IsNaN(res.X[j]) {
				t.Fatalf("solve %d: NaN escaped into a served response", i)
			}
		}
		vc.Advance(10 * time.Millisecond)
		f.Tick()
		if f.Stats().Gray.FlakyLinks > 0 {
			break
		}
	}
	f.Quiesce()

	st := f.Stats()
	if st.Gray.FlakyLinks != 1 {
		t.Fatalf("Gray.FlakyLinks = %d, want 1 (degraded slabs seen: %d)", st.Gray.FlakyLinks, degraded)
	}
	if got := st.Devices[victim].State; got != fleet.StateDead && got != fleet.StateCordoned {
		t.Fatalf("flaky-link device state %v, want cordoned/dead", got)
	}
	if st.Distributed.IntegrityRetries < 3 {
		t.Fatalf("Distributed.IntegrityRetries = %d, want >= IntegrityLimit", st.Distributed.IntegrityRetries)
	}
	if st.Devices[victim].Gray.IntegrityRetries < 3 {
		t.Fatalf("victim attributed %d integrity retries, want >= 3", st.Devices[victim].Gray.IntegrityRetries)
	}
	for id, d := range st.Devices {
		if id != victim && d.Gray.IntegrityRetries != 0 {
			t.Fatalf("healthy device %d attributed %d integrity retries", id, d.Gray.IntegrityRetries)
		}
	}
}

// A revived device starts with a clean gray slate: the diagnosis
// belonged to the hardware state the reset wiped, so stale evidence
// must not re-cordon it on its first healthy solve.
func TestGrayEvidenceResetOnRevive(t *testing.T) {
	const devices, straggler = 4, 0
	vc := clock.NewVirtualClock(time.Unix(0, 0))
	ff := &fakeFactory{}
	topo := grayTopo(t, devices, straggler, 20, -1, 0)
	f := newTestFleet(t, fleet.Config{
		Devices:      devices,
		DistTopology: topo,
		DistHedge:    core.HedgePolicy{Disable: true},
		Probation:    10 * time.Millisecond,
	}, ff, vc)

	b := workload.Batch[float64](workload.DiagDominant, 2, 129, 3)
	for i := 0; i < 3; i++ {
		if _, err := f.SolveDistributed(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		vc.Advance(time.Millisecond)
		f.Tick()
	}
	f.Quiesce()
	if st := f.Stats(); st.Gray.Stragglers != 1 {
		t.Fatalf("setup: Gray.Stragglers = %d, want 1", st.Gray.Stragglers)
	}

	// The operator replaces the card (the modeled slowdown is gone)
	// and heals the device.
	topo.Device(straggler).SlowFactor = 0
	f.Inject(gpusim.HealthEvent{Device: straggler, Kind: gpusim.HealthHealed})
	vc.Advance(time.Millisecond)
	f.Tick()
	f.Quiesce()

	st := f.Stats()
	if st.Devices[straggler].State != fleet.StateProbation && st.Devices[straggler].State != fleet.StateActive {
		t.Fatalf("healed device state %v, want probation/active", st.Devices[straggler].State)
	}
	if st.Devices[straggler].Gray.LatencyRatio != 0 {
		t.Fatalf("revived device kept stale gray ratio %.2f", st.Devices[straggler].Gray.LatencyRatio)
	}
}
