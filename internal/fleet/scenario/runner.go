package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gputrid"
	"gputrid/internal/clock"
	"gputrid/internal/core"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// Report is the outcome of one scenario run. Failures lists every
// violated assertion; an empty list means the scenario passed.
type Report struct {
	Scenario string
	// Ticks is the number of control-loop steps executed.
	Ticks int
	// Issued counts requests offered; Served/Rejected their outcomes.
	Issued, Served, Rejected int
	// Incorrect counts served responses whose solution was not bitwise
	// identical to the route's reference — the one counter that must
	// be zero in every scenario, always.
	Incorrect int
	// DeviceRoute / FallbackRoute split Served by serving path.
	DeviceRoute, FallbackRoute int
	// DistFailed counts distributed solves that returned an error (a
	// completed-but-wrong distributed solve counts into Incorrect).
	DistFailed int
	// CordonTicks records, per device, the 0-based control-loop tick
	// at which the device was first observed cordoned (or dead) — the
	// gray-failure detector's measured detection latency.
	CordonTicks map[int]int
	// Stats is the fleet's final snapshot.
	Stats fleet.Stats
	// Failures lists violated assertions; Timeline is the narrative
	// event log (injections, end-of-run census).
	Failures []string
	Timeline []string
}

// OK reports whether every assertion held.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Summary is a one-paragraph human rendering of the run.
func (r *Report) Summary() string {
	var sb strings.Builder
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&sb, "scenario %s: %s\n", r.Scenario, status)
	fmt.Fprintf(&sb, "  %d ticks, %d issued, %d served (%d device / %d fallback), %d rejected, %d incorrect\n",
		r.Ticks, r.Issued, r.Served, r.DeviceRoute, r.FallbackRoute, r.Rejected, r.Incorrect)
	fmt.Fprintf(&sb, "  cordons %d, heals %d, reroutes %d, scale up/down %d/%d, forced drains %d\n",
		r.Stats.Cordons, r.Stats.Heals, r.Stats.Rerouted, r.Stats.ScaleUps, r.Stats.ScaleDowns, r.Stats.ForcedDrains)
	if ds := r.Stats.Distributed; ds.Solves > 0 || r.DistFailed > 0 {
		fmt.Fprintf(&sb, "  distributed: %d solved, %d failed, %d deaths, %d migrations, %d degraded\n",
			ds.Solves, r.DistFailed, ds.Deaths, ds.Migrations, ds.Degraded)
	}
	if ds, g := r.Stats.Distributed, r.Stats.Gray; ds.IntegrityRetries > 0 || ds.Hedges > 0 ||
		g.Stragglers > 0 || g.FlakyLinks > 0 {
		fmt.Fprintf(&sb, "  gray: %d integrity retries, %d hedges (%d won), %d stragglers flagged, %d flaky links flagged\n",
			ds.IntegrityRetries, ds.Hedges, ds.HedgeWins, g.Stragglers, g.FlakyLinks)
	}
	for _, d := range r.Stats.Devices {
		fmt.Fprintf(&sb, "  device %d: %s (served %d, failed %d)\n", d.ID, d.State, d.Served, d.Failed)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "  FAIL: %s\n", f)
	}
	return sb.String()
}

// RunFile loads and runs a scenario file.
func RunFile(path string, logf func(format string, args ...any)) (*Report, error) {
	sc, err := Load(path)
	if err != nil {
		return nil, err
	}
	return Run(sc, logf)
}

// Run replays a scenario against a real fleet on a virtual clock and
// evaluates its assertions. logf, when non-nil, receives progress
// lines (tests pass t.Logf, the CLI passes log.Printf).
//
// The replay is a stepped loop over Tick-sized virtual intervals. Each
// step launches the interval's offered load asynchronously, *then*
// injects the interval's health events and runs the control loop —
// so a fatal event lands while that interval's requests are queued and
// in flight on the dying device, and the drain/re-route machinery is
// exercised under genuine traffic, not against an idle pool. The step
// then waits for the interval's requests and any drains to settle
// before advancing the virtual clock, so every control decision
// happens at a deterministic virtual instant.
//
// Every served response is verified bitwise against a precomputed
// reference for its route: the hybrid device solve for device routes,
// the host pivoting solve for breaker-fallback routes. With a
// faults.rate armed, the injector stays one-shot (Repeat 1), which the
// retry layer recovers bitwise-identically — so "zero incorrect
// responses" holds even in fault-injecting scenarios.
//
// Control-plane outcomes (cordons, heals, scale events, final device
// states) are deterministic across runs; data-plane tallies that
// depend on goroutine interleaving (exact reroute and rejection
// counts) are asserted through bounds, not equality.
func Run(sc *Scenario, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Scenario: sc.Name}
	var sayMu sync.Mutex // the distributed-solve goroutine narrates too
	say := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		sayMu.Lock()
		rep.Timeline = append(rep.Timeline, line)
		sayMu.Unlock()
		logf("%s", line)
	}

	// References: `Variants` distinct batches of the scenario shape,
	// each with its device-route and fallback-route reference solution.
	batches := make([]*gputrid.Batch[float64], sc.Variants)
	deviceRef := make([][]float64, sc.Variants)
	cpuRef := make([][]float64, sc.Variants)
	for v := 0; v < sc.Variants; v++ {
		b := workload.Batch[float64](workload.DiagDominant, sc.M, sc.N, sc.Seed+uint64(v)*7919+1)
		res, err := gputrid.SolveBatchCtx(context.Background(), b)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: device reference %d: %w", sc.Name, v, err)
		}
		x, err := gputrid.SolveCPUPivoting(b)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: pivot reference %d: %w", sc.Name, v, err)
		}
		batches[v], deviceRef[v], cpuRef[v] = b, res.X, x
	}

	// Distributed stanza: the fault-free reference is the same
	// distributed solve on a clean topology of the same width — the
	// bitwise contract says deaths and migrations must reproduce these
	// exact bits. The run's own topology arms each victim with a
	// permanent abort, so it dies on its first kernel launch of the
	// solve and stays dead for every retry.
	var distTopo *gpusim.Topology
	var distBatch *gputrid.Batch[float64]
	var distRef []float64
	if ds := sc.Distributed; ds != nil {
		distBatch = workload.Batch[float64](workload.DiagDominant, ds.M, ds.N, sc.Seed*31+17)
		clean, err := gpusim.UniformTopology(sc.Devices, gpusim.NVLinkMesh(), gpusim.GTX480())
		if err != nil {
			return nil, fmt.Errorf("scenario %s: distributed reference topology: %w", sc.Name, err)
		}
		refSolver, err := core.NewDistSolver[float64](core.DistConfig{
			Topology: clean, Slabs: sc.Devices,
		}, ds.M, ds.N)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: distributed reference solver: %w", sc.Name, err)
		}
		distRef = make([]float64, ds.M*ds.N)
		if _, err := refSolver.SolveInto(context.Background(), distRef, distBatch); err != nil {
			return nil, fmt.Errorf("scenario %s: distributed reference solve: %w", sc.Name, err)
		}
		_ = refSolver.Close()
		distTopo, err = gpusim.UniformTopology(sc.Devices, gpusim.NVLinkMesh(), gpusim.GTX480())
		if err != nil {
			return nil, fmt.Errorf("scenario %s: distributed topology: %w", sc.Name, err)
		}
		for _, v := range ds.Victims {
			distTopo.Device(v).Faults = &gpusim.Injector{
				Schedule: []gpusim.ScheduledFault{{Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
			}
		}
		// Gray arming: a silent straggler (modeled slowdown, no event,
		// no error) and/or a flaky link (seeded corruption on every
		// transfer touching the device — each one caught by the
		// solver's checksums and repaired, so the reference stays
		// bitwise authoritative).
		if g := sc.Gray; g != nil {
			if g.Straggler >= 0 {
				distTopo.Device(g.Straggler).SlowFactor = g.StragglerFactor
			}
			if g.Flaky >= 0 {
				distTopo.Links = &gpusim.LinkInjector{
					Seed:    sc.Seed*0x9E3779B9 + 1,
					Rate:    g.FlakyRate,
					Devices: []int{g.Flaky},
				}
			}
		}
	}

	// The factory builds each device's real serving pool, wrapped in a
	// gatedBackend (see gate.go) so the runner can pin a fatal-event
	// tick's requests in flight while the cordon lands. Revives go
	// through the same factory, so healed devices get fresh pools and
	// fresh (disarmed) gates.
	vc := clock.NewVirtualClock(time.Unix(0, 0).UTC())
	var gates gateSet
	factory := func(id int) (fleet.Backend, error) {
		// The pools share the run's virtual clock, so control-plane
		// time (idle-eviction stamps, deadline feasibility) replays
		// identically too.
		pc := gputrid.PoolConfig{Capacity: sc.Capacity, QueueLimit: sc.Queue, Clock: vc}
		if sc.FaultRate > 0 {
			pc.SolverOptions = []gputrid.Option{gputrid.WithFaultInjection(&gputrid.FaultInjector{
				Seed: sc.Seed ^ uint64(id+1)*0x9E3779B97F4A7C15,
				Rate: sc.FaultRate, // Repeat stays 1: one-shot transients, bitwise-recoverable
			})}
		}
		p := gputrid.NewPool[float64](pc)
		if err := p.Warm(sc.M, sc.N); err != nil {
			_ = p.Close(context.Background())
			return nil, err
		}
		g := &gatedBackend{inner: p}
		gates.put(id, g)
		return g, nil
	}
	fcfg := fleet.Config{
		Devices:       sc.Devices,
		InitialActive: sc.InitialActive,
		MinActive:     sc.MinActive,
		Clock:         vc,
		Factory:       factory,
		Probation:     sc.Probation,
		DrainTimeout:  sc.DrainTimeout,
		ScaleCooldown: sc.ScaleCooldown,
		DistTopology:  distTopo,
	}
	if g := sc.Gray; g != nil {
		fcfg.Gray = fleet.GrayPolicy{IntegrityLimit: g.IntegrityLimit}
	}
	fl, err := fleet.New(fcfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	defer fl.Close(context.Background())

	var served, rejected, incorrect, devRoute, fbRoute atomic.Int64
	completed := func() int { return int(served.Load() + rejected.Load()) }
	solveOne := func(req int) {
		v := req % sc.Variants
		res, err := fl.Solve(context.Background(), batches[v])
		if err != nil {
			rejected.Add(1)
			return
		}
		served.Add(1)
		ref := deviceRef[v]
		if res.Route == gputrid.RouteFallback {
			ref = cpuRef[v]
			fbRoute.Add(1)
		} else {
			devRoute.Add(1)
		}
		for i := range ref {
			if res.X[i] != ref[i] {
				incorrect.Add(1)
				return
			}
		}
	}

	ticks := int(sc.Duration / sc.Tick)
	tickSec := sc.Tick.Seconds()
	var carry float64 // fractional requests carried between ticks
	nextEv := 0
	reqID := 0
	var distWG sync.WaitGroup
	var distFailed atomic.Int64
	distRemaining := 0
	var nextDistAt time.Duration
	if ds := sc.Distributed; ds != nil {
		distRemaining = ds.count()
		nextDistAt = ds.At
	}
	rep.CordonTicks = make(map[int]int)
	for t := 0; t < ticks; t++ {
		now := time.Duration(t) * sc.Tick

		// A tick that will deliver a fatal event pins its requests at
		// the device gates: they route (and are counted in flight)
		// but hold at the backend boundary until after the control
		// loop runs, so the cordon provably lands on a device with
		// live traffic and the held requests race its drain — some
		// drained gracefully, the rest re-routed off the closing pool.
		fatalTick := false
		for i := nextEv; i < len(sc.Events) && sc.Events[i].At <= now; i++ {
			if sc.Events[i].Kind.Severity() == gpusim.SeverityFatal {
				fatalTick = true
			}
		}
		if fatalTick {
			gates.armAll()
		}

		// 1. Offer this interval's load, asynchronously.
		for _, ph := range sc.Load {
			if now >= ph.From && now < ph.To {
				carry += ph.RPS * tickSec
			}
		}
		n := int(carry)
		carry -= float64(n)
		tickBase := completed()
		// A start gate releases the interval's requests simultaneously:
		// they must contend — filling device queues and raising the peak
		// concurrency the autoscaler reads — not trickle in one by one
		// as the launch loop schedules them.
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(req int) {
				defer wg.Done()
				<-start
				solveOne(req)
			}(reqID)
			reqID++
		}
		close(start)
		rep.Issued += n

		// 1b. Launch the distributed solve when its instant arrives,
		// then busy-wait (event-driven, no sleeps) until every armed
		// victim's death has surfaced in the health feed. The regular
		// Tick below therefore cordons the victims *while the
		// distributed solve is still in flight* — the issue's central
		// claim — and the solve's own migration machinery finishes the
		// answer on the survivors.
		if ds := sc.Distributed; ds != nil && distRemaining > 0 && now >= nextDistAt {
			first := distRemaining == ds.count()
			distRemaining--
			every := ds.Every
			if every <= 0 {
				every = sc.Tick
			}
			nextDistAt = now + every
			eventsBase := fl.Stats().Events
			if first {
				say("t=%v: launch distributed solve %dx%d, %d victims armed", now, ds.M, ds.N, len(ds.Victims))
			} else {
				say("t=%v: launch distributed solve %dx%d (%d of %d)", now, ds.M, ds.N, ds.count()-distRemaining, ds.count())
			}
			distWG.Add(1)
			go func() {
				defer distWG.Done()
				res, err := fl.SolveDistributed(context.Background(), distBatch)
				if err != nil {
					distFailed.Add(1)
					say("distributed solve failed: %v", err)
					return
				}
				for i := range distRef {
					if res.X[i] != distRef[i] {
						incorrect.Add(1)
						say("distributed solve diverged from fault-free reference at element %d", i)
						return
					}
				}
			}()
			// Armed victims die on their first kernel launch of the
			// first solve; later solves run on the survivors.
			if first {
				for fl.Stats().Events < eventsBase+uint64(len(ds.Victims)) {
					runtime.Gosched()
				}
				if len(ds.Victims) > 0 {
					say("t=%v: %d device death(s) surfaced mid-solve", now, len(ds.Victims))
				}
			}
			// With gray failures armed, the solve's statistical evidence
			// (latency residue, integrity retries) must reach the
			// detector before this tick's control loop runs — otherwise
			// the cordon tick would depend on a goroutine race and
			// cordoned_by assertions could not be deterministic.
			if sc.Gray != nil {
				distWG.Wait()
			}
		}

		// 2. Admission barrier: wait (event-driven, no sleeps) until
		// every request of the interval has been routed to a device
		// (counted in-flight) or already finished. Two things depend on
		// it. First, Tick's autoscaler reads how much load this interval
		// actually offered — without the barrier a Tick can observe an
		// empty interval under sustained load and spuriously scale down.
		// Second, events injected below land on a device with real
		// queued and running work — "a fatal event at t under load"
		// means *under load* — so the drained requests demonstrably
		// re-route. (Per-tick wg.Wait means no stragglers from earlier
		// intervals pollute the count.)
		for completed()-tickBase+int(fl.Stats().InFlight) < n {
			runtime.Gosched()
		}

		// 3. Inject the events due at this virtual instant — while the
		// interval's requests are live — and run the control loop.
		for nextEv < len(sc.Events) && sc.Events[nextEv].At <= now {
			ev := sc.Events[nextEv]
			say("t=%v: inject %s", now, gpusim.HealthEvent{
				Device: ev.Device, Kind: ev.Kind, XID: ev.XID, Temp: ev.Temp, Message: ev.Message,
			})
			fl.Inject(gpusim.HealthEvent{
				Device: ev.Device, Kind: ev.Kind, XID: ev.XID,
				Temp: ev.Temp, Message: ev.Message, Time: vc.Now(),
			})
			nextEv++
		}
		fl.Tick()
		if fatalTick {
			// A device this Tick cordoned keeps its gate shut: its
			// drain's Close opens it just before the pool stops
			// admitting, so the held requests race that close, not the
			// scheduling of the drain goroutine, which cheap solves
			// could lose entirely.
			var cordoned []int
			for _, d := range fl.Stats().Devices {
				if d.State == fleet.StateCordoned {
					cordoned = append(cordoned, d.ID)
				}
			}
			gates.releaseExcept(cordoned)
		}
		// Record each device's first observed cordon tick — the
		// detection-latency figure cordoned_by assertions bound.
		for _, d := range fl.Stats().Devices {
			if _, seen := rep.CordonTicks[d.ID]; !seen && (d.State == fleet.StateCordoned || d.State == fleet.StateDead) {
				rep.CordonTicks[d.ID] = t
				say("t=%v: device %d cordoned (tick %d)", now, d.ID, t)
			}
		}

		// 4. Settle the interval: requests complete (re-routing off any
		// device cordoned above), drains land, the distributed solve
		// (if launched this tick) delivers its recovered answer. No
		// wall-clock sleeps — all waits are event-driven.
		wg.Wait()
		distWG.Wait()
		fl.Quiesce()
		vc.Advance(sc.Tick)
		rep.Ticks++
	}
	// The timeline is the half-open interval [0, Duration): events and
	// probation expiries are serviced by the tick that covers them, and
	// the last tick's drains were already settled above. Deliberately
	// no extra settling Tick here — it would hand the autoscaler an
	// empty interval window and manufacture a spurious scale-down as
	// the run's final act.
	fl.Quiesce()

	rep.Served = int(served.Load())
	rep.Rejected = int(rejected.Load())
	rep.Incorrect = int(incorrect.Load())
	rep.DeviceRoute = int(devRoute.Load())
	rep.FallbackRoute = int(fbRoute.Load())
	rep.DistFailed = int(distFailed.Load())
	rep.Stats = fl.Stats()
	evaluate(sc, rep)
	say("t=%v: done — %d served, %d rejected, %d incorrect, cordons %d, heals %d",
		sc.Duration, rep.Served, rep.Rejected, rep.Incorrect, rep.Stats.Cordons, rep.Stats.Heals)
	return rep, nil
}

// evaluate applies the scenario's assertions to the finished run.
func evaluate(sc *Scenario, rep *Report) {
	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	a := sc.Assert

	// The unconditional assertion: a fleet may shed load, but a served
	// response is never wrong.
	if rep.Incorrect != 0 {
		fail("%d served responses were not bitwise identical to their reference", rep.Incorrect)
	}
	if rep.Served < a.MinServed {
		fail("served %d < min_served %d", rep.Served, a.MinServed)
	}
	if a.rejectedSet && rep.Issued > 0 {
		if frac := float64(rep.Rejected) / float64(rep.Issued); frac > a.MaxRejectedFrac {
			fail("rejected %d/%d = %.3f > max_rejected_frac %.3f", rep.Rejected, rep.Issued, frac, a.MaxRejectedFrac)
		}
	}
	if a.Cordons != nil && int(rep.Stats.Cordons) != *a.Cordons {
		fail("cordons = %d, want %d", rep.Stats.Cordons, *a.Cordons)
	}
	if a.MaxForcedDrains != nil && int(rep.Stats.ForcedDrains) > *a.MaxForcedDrains {
		fail("forced drains = %d > max %d", rep.Stats.ForcedDrains, *a.MaxForcedDrains)
	}
	if int(rep.Stats.ScaleUps) < a.MinScaleUps {
		fail("scale-ups = %d < min %d", rep.Stats.ScaleUps, a.MinScaleUps)
	}
	if int(rep.Stats.ScaleDowns) < a.MinScaleDowns {
		fail("scale-downs = %d < min %d", rep.Stats.ScaleDowns, a.MinScaleDowns)
	}
	if int(rep.Stats.Rerouted) < a.MinRerouted {
		fail("reroutes = %d < min_rerouted %d (the failure never hit live traffic?)", rep.Stats.Rerouted, a.MinRerouted)
	}
	// Like Incorrect, a failed distributed solve is unconditionally a
	// scenario failure: the whole point of the recovery machinery is
	// that device death never fails the solve.
	if rep.DistFailed != 0 {
		fail("%d distributed solves failed", rep.DistFailed)
	}
	ds := rep.Stats.Distributed
	if int(ds.Solves) < a.MinDistSolves {
		fail("distributed solves = %d < min_dist_solves %d", ds.Solves, a.MinDistSolves)
	}
	if a.DistDeaths != nil && int(ds.Deaths) != *a.DistDeaths {
		fail("distributed deaths = %d, want %d", ds.Deaths, *a.DistDeaths)
	}
	if int(ds.Migrations) < a.MinDistMigrations {
		fail("distributed migrations = %d < min_dist_migrations %d", ds.Migrations, a.MinDistMigrations)
	}
	if int(ds.IntegrityRetries) < a.MinIntegrityRetries {
		fail("integrity retries = %d < min_integrity_retries %d (the corruption never hit a verified transfer?)",
			ds.IntegrityRetries, a.MinIntegrityRetries)
	}
	if int(ds.Hedges) < a.MinHedges {
		fail("hedges = %d < min_hedges %d (the straggler never triggered speculation?)",
			ds.Hedges, a.MinHedges)
	}
	if a.MaxDistDegraded != nil && int(ds.Degraded) > *a.MaxDistDegraded {
		fail("distributed degraded slabs = %d > max_dist_degraded %d", ds.Degraded, *a.MaxDistDegraded)
	}
	for _, cb := range a.CordonedBy {
		tick, ok := rep.CordonTicks[cb.Device]
		if !ok {
			fail("device %d was never cordoned (cordoned_by tick %d)", cb.Device, cb.Tick)
		} else if tick > cb.Tick {
			fail("device %d cordoned at tick %d > cordoned_by %d", cb.Device, tick, cb.Tick)
		}
	}
	for _, fs := range a.FinalStates {
		got := rep.Stats.Devices[fs.Device].State.String()
		ok := false
		for _, want := range fs.States {
			if got == want {
				ok = true
			}
		}
		if !ok {
			fail("device %d final state = %s, want %s", fs.Device, got, strings.Join(fs.States, "|"))
		}
	}
}
