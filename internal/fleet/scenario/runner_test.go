package scenario

import (
	"testing"

	"gputrid/internal/fleet"
)

// TestDeviceDeathScenario is the acceptance scenario: 3 devices under
// sustained load, device 1 killed by a fatal XID at t=5s while its
// queue holds live requests, healed at t=8s. Every served response
// must be bitwise identical to its route's reference, rejections stay
// bounded, the dead device's traffic re-routes, and the device returns
// through probation to active — all on a virtual clock, replayable.
func TestDeviceDeathScenario(t *testing.T) {
	rep, err := RunFile("testdata/device_death.yaml", t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	// Beyond the file's own assertions, pin the story's key beats.
	if rep.Incorrect != 0 {
		t.Fatalf("incorrect responses: %d", rep.Incorrect)
	}
	if rep.Stats.Cordons != 1 || rep.Stats.Heals != 1 {
		t.Fatalf("cordons/heals = %d/%d, want 1/1", rep.Stats.Cordons, rep.Stats.Heals)
	}
	if rep.Stats.Rerouted == 0 {
		t.Fatal("no re-routes: the death did not land under live traffic")
	}
	if st := rep.Stats.Devices[1].State; st != fleet.StateActive {
		t.Fatalf("device 1 final state = %v, want active", st)
	}
	if rep.Stats.Devices[1].Served == 0 {
		t.Fatal("device 1 served nothing after healing")
	}
	t.Logf("\n%s", rep.Summary())
}

// TestDistributedDeviceDeathScenario is the distributed acceptance
// scenario: a huge-N batch is solved across all three devices' slice
// of the interconnect fabric while device 1 is armed to die on its
// first kernel launch of the solve. The solve must complete bitwise
// identical to the fault-free reference (verified unconditionally by
// the runner), the death must surface mid-solve so the next tick
// cordons the device while the solve is in flight, and the serving
// plane must stay correct throughout.
func TestDistributedDeviceDeathScenario(t *testing.T) {
	rep, err := RunFile("testdata/distributed_device_death.yaml", t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Incorrect != 0 || rep.DistFailed != 0 {
		t.Fatalf("incorrect %d / distributed failures %d, want 0/0", rep.Incorrect, rep.DistFailed)
	}
	if rep.Stats.Distributed.Solves != 1 || rep.Stats.Distributed.Deaths != 1 {
		t.Fatalf("dist solves/deaths = %d/%d, want 1/1", rep.Stats.Distributed.Solves, rep.Stats.Distributed.Deaths)
	}
	if rep.Stats.Distributed.Migrations == 0 {
		t.Fatal("no slab migrations: the death cost no live work")
	}
	if st := rep.Stats.Devices[1].State; st != fleet.StateDead {
		t.Fatalf("device 1 final state = %v, want dead", st)
	}
	t.Logf("\n%s", rep.Summary())
}

// TestGrayFailureScenario is the gray-failure acceptance scenario: a
// silent straggler and a flaky (corrupting) link, neither of which
// ever raises a driver event, must both be diagnosed from
// distributed-solve evidence and cordoned within the file's asserted
// tick bounds — while every accepted response stays bitwise identical
// to the fault-free reference (every corruption caught by checksum
// and repaired, straggler slabs hedged onto healthy devices, zero
// slabs degraded off the bit-exact device path).
func TestGrayFailureScenario(t *testing.T) {
	rep, err := RunFile("testdata/gray_failure.yaml", t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Incorrect != 0 || rep.DistFailed != 0 {
		t.Fatalf("incorrect %d / distributed failures %d, want 0/0", rep.Incorrect, rep.DistFailed)
	}
	// 100% corruption catch: every injected corrupt transfer was
	// noticed by a checksum and re-exchanged (an uncaught corruption
	// would have surfaced as an Incorrect response instead).
	if rep.Stats.Distributed.IntegrityRetries == 0 {
		t.Fatal("no integrity retries: the flaky link never hit a verified transfer")
	}
	if rep.Stats.Distributed.Degraded != 0 {
		t.Fatalf("%d slabs degraded to the host path; the scenario is tuned for in-place recovery", rep.Stats.Distributed.Degraded)
	}
	if rep.Stats.Gray.Stragglers != 1 || rep.Stats.Gray.FlakyLinks != 1 {
		t.Fatalf("detector flagged %d stragglers / %d flaky links, want 1/1",
			rep.Stats.Gray.Stragglers, rep.Stats.Gray.FlakyLinks)
	}
	if rep.Stats.Distributed.Hedges == 0 || rep.Stats.Distributed.HedgeWins == 0 {
		t.Fatalf("hedges/wins = %d/%d: the straggler never lost a slab race",
			rep.Stats.Distributed.Hedges, rep.Stats.Distributed.HedgeWins)
	}
	// Nothing died — both cordons came from synthesized gray events.
	if rep.Stats.Distributed.Deaths != 0 {
		t.Fatalf("dist deaths = %d, want 0", rep.Stats.Distributed.Deaths)
	}
	t.Logf("\n%s", rep.Summary())
}

// TestThermalAutoscaleScenario: a load surge scales standby capacity
// in, a thermal throttle deprioritizes (never drains) a device, and
// the post-surge lull scales back down.
func TestThermalAutoscaleScenario(t *testing.T) {
	rep, err := RunFile("testdata/thermal_autoscale.yaml", t.Logf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scenario failed:\n%s", rep.Summary())
	}
	if rep.Stats.ScaleUps == 0 || rep.Stats.ScaleDowns == 0 {
		t.Fatalf("scale ups/downs = %d/%d, want both > 0", rep.Stats.ScaleUps, rep.Stats.ScaleDowns)
	}
	t.Logf("\n%s", rep.Summary())
}

// TestScenarioDeterminism replays one scenario twice and demands
// identical control-plane outcomes: same cordons, heals, scale
// actions, final device states, and zero incorrect responses both
// times. (Data-plane tallies that depend on goroutine interleaving —
// exact reroute counts — are deliberately not compared.)
func TestScenarioDeterminism(t *testing.T) {
	src := []byte(`
name: determinism
seed: 9
tick: 250ms
duration: 4s
shape: {m: 4, n: 48}
variants: 2
devices: {count: 3, initial: 3, min_active: 2}
pool: {capacity: 2, queue: 64}
policy: {probation: 500ms}
load:
  - {from: 0s, to: 4s, rps: 60}
events:
  - {at: 1s, device: 2, kind: xid, xid: 48}
  - {at: 2500ms, device: 2, kind: healed}
`)
	type outcome struct {
		cordons, heals, ups, downs uint64
		incorrect, issued          int
		states                     [3]fleet.DeviceState
	}
	run := func() outcome {
		sc, err := Decode(src)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		rep, err := Run(sc, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("scenario failed:\n%s", rep.Summary())
		}
		o := outcome{
			cordons: rep.Stats.Cordons, heals: rep.Stats.Heals,
			ups: rep.Stats.ScaleUps, downs: rep.Stats.ScaleDowns,
			incorrect: rep.Incorrect, issued: rep.Issued,
		}
		for i, d := range rep.Stats.Devices {
			o.states[i] = d.State
		}
		return o
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("outcomes differ across replays:\n a: %+v\n b: %+v", a, b)
	}
	if a.cordons != 1 || a.heals != 1 || a.incorrect != 0 {
		t.Fatalf("unexpected outcome: %+v", a)
	}
	// Healed at 2.5s + 500ms probation => promoted by the 3s tick.
	if a.states[2] != fleet.StateActive {
		t.Fatalf("device 2 = %v, want active", a.states[2])
	}
}

// TestRunnerFaultInjection arms the per-device transient-fault
// injectors: recovered solves must still be bitwise identical to the
// fault-free reference (one-shot faults, retried), and sustained
// fault-layer activity must escalate through synthesized corrected-ECC
// events into control-plane action.
func TestRunnerFaultInjection(t *testing.T) {
	sc, err := Decode([]byte(`
name: faulty
seed: 3
tick: 250ms
duration: 3s
shape: {m: 4, n: 48}
variants: 2
devices: {count: 2, initial: 2, min_active: 1}
pool: {capacity: 2, queue: 64}
faults: {rate: 0.02}
load:
  - {from: 0s, to: 3s, rps: 80}
`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	rep, err := Run(sc, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Incorrect != 0 {
		t.Fatalf("fault recovery broke bitwise identity: %d incorrect\n%s", rep.Incorrect, rep.Summary())
	}
	if rep.Served == 0 {
		t.Fatal("nothing served")
	}
}
