package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gputrid"
	"gputrid/internal/adi"
	"gputrid/internal/batcher"
	"gputrid/internal/core"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// tolerance is the largest relative error a result may have against
// its CPU reference.
const tolerance = 1e-9

// setupRuns is how many fresh-process set-ups setup_s is the median of.
const setupRuns = 15

// startTicker runs fl.Tick every tickInterval, as tridserve's control
// loop does, until the returned stop function is called; stop returns
// once the ticker goroutine has exited.
func startTicker(fl *fleet.Fleet) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(tickInterval)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				fl.Tick()
			case <-quit:
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}

// closeFleet drains a fleet, bounding the wait.
func closeFleet(fl *fleet.Fleet) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = fl.Close(ctx) // a drain timeout at exit loses nothing measured
}

// setFleet records the fleet-layer metrics between two snapshots.
func (o *outcome) setFleet(before, after fleet.Stats) {
	o.set("fleet.rerouted", float64(after.Rerouted-before.Rerouted))
	o.set("fleet.rejected", float64(after.Rejected-before.Rejected))
	served := make([]float64, len(after.Devices))
	for i, d := range after.Devices {
		served[i] = float64(d.Served)
		if i < len(before.Devices) {
			served[i] -= float64(before.Devices[i].Served)
		}
	}
	o.set("fleet.device_served_imbalance", maxOverMean(served))
}

// setBatcher records the batcher's flush metrics between two snapshots.
func (o *outcome) setBatcher(before, after batcher.Stats) {
	flushes := float64(after.Flushes() - before.Flushes())
	flushed := float64(after.FlushedSystems - before.FlushedSystems)
	padded := float64(after.PaddedSystems - before.PaddedSystems)
	o.set("batcher.flush_systems_mean", ratio(flushed, flushes))
	o.set("batcher.deadline_flush_share", ratio(float64(after.FlushesDeadline-before.FlushesDeadline), flushes))
	o.set("batcher.padding_share", ratio(padded, flushed+padded))
	o.set("batcher.shed", float64(after.Saturated-before.Saturated))
}

// setKernelModel records the gpusim-layer metrics of one solve of an
// m×n batch with k PCR steps (core.KAuto for the paper's heuristic),
// from the per-launch statistics core.Solve reports. Bytes are bus
// bytes: global transactions times their granularity.
func (o *outcome) setKernelModel(m, n, k int) error {
	_, rep, err := core.Solve(core.Config{K: k}, workload.Batch[float64](workload.DiagDominant, m, n, 1))
	if err != nil {
		return fmt.Errorf("modeling %dx%d: %w", m, n, err)
	}
	dev := gpusim.GTX480()
	var pcr, total float64
	for _, ks := range rep.Kernels {
		t := dev.EstimateBreakdown(ks, 8).Total
		total += t
		if strings.Contains(strings.ToLower(ks.Kernel), "pcr") {
			pcr += t
		}
	}
	bytes := float64(rep.Stats.TransactionBytes(dev.TransactionBytes))
	o.set("gpusim.global_mb_per_solve", bytes/1e6)
	o.set("gpusim.ops_per_byte", ratio(float64(rep.Stats.Flops), bytes))
	o.set("gpusim.bank_conflicts_per_solve", float64(rep.Stats.SharedBankConflicts))
	o.set("gpusim.pcr_share", ratio(pcr, total))
	o.set("gpusim.pcr_modeled_us", pcr*1e6)
	o.set("gpusim.pthomas_modeled_us", (total-pcr)*1e6)
	return nil
}

// zeroLayers sets the per-layer metrics of layers the workload never
// reaches; they read 0.
func (o *outcome) zeroLayers(prefixes ...string) {
	for _, m := range metricTable {
		if m.class != perLayer {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				o.set(m.name, 0)
			}
		}
	}
}

// spanDurations returns the durations, in ms, of the closed spans named
// name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// setSolve records core.solve_p50_ms, core.solve_p90_ms and
// core.solve_share from solve durations and op latencies, in ms. The
// share is the mean solve time over the mean op latency: each op waits
// on one solve.
func (o *outcome) setSolve(solves, lat []float64, solvesPerOp float64) error {
	share := ratio(mean(solves)*solvesPerOp, mean(lat))
	p50, err := percentile(solves, 0.50)
	if err != nil {
		return fmt.Errorf("core.solve_p50_ms: %w", err)
	}
	p90, err := percentile(solves, 0.90)
	if err != nil {
		return fmt.Errorf("core.solve_p90_ms: %w", err)
	}
	o.set("core.solve_p50_ms", p50)
	o.set("core.solve_p90_ms", p90)
	o.set("core.solve_share", share)
	return nil
}

// finishTrace writes the span file and keeps the self-time summary.
func (o *outcome) finishTrace(e *env, w *workloadSpec, tr *tracer) error {
	if err := os.MkdirAll(e.tracedir, 0o755); err != nil {
		return err
	}
	if n := tr.dropped.Load(); n > 0 {
		fmt.Fprintf(e.log, "tridload: %s: span buffer full, %d spans dropped\n", w.name, n)
	}
	o.spans = selfTimes(tr.recorded())
	return tr.write(filepath.Join(e.tracedir, w.name+".json"))
}

// minClosedOps is the fewest ops a measured closed-loop phase runs, so
// its p90s have ten samples beyond them however slow the host is.
const minClosedOps = 200

// closedLoop calls op back to back for d and at least minOps times,
// returning each op's latency and how long the caller took between one
// op's end and the next op's start (the closed loop's generator lag).
func closedLoop(d time.Duration, minOps int, op func(i int) error) (lat, lag []time.Duration, failed int, elapsed time.Duration) {
	t0 := time.Now()
	prevEnd := t0
	for i := 0; time.Since(t0) < d || i < minOps; i++ {
		start := time.Now()
		lag = append(lag, start.Sub(prevEnd))
		err := op(i)
		prevEnd = time.Now()
		lat = append(lat, prevEnd.Sub(start))
		if err != nil {
			failed++
		}
	}
	return lat, lag, failed, time.Since(t0)
}

// ---- coalesce-burst -------------------------------------------------

// coalesceSys is tridserve -fleet 2 -batch 32 without HTTP: a batcher
// whose flushes run through Fleet.SolveMegabatch.
type coalesceSys struct {
	fl       *fleet.Fleet
	bt       *batcher.Batcher[float64]
	stopTick func()
	// tr is the tracer of the current phase; the megabatch wrapper,
	// installed only in traced runs, reads it.
	tr      atomic.Pointer[tracer]
	flushes atomic.Int64
	xs      sync.Pool
}

func (s *coalesceSys) close() {
	s.bt.Close()
	s.stopTick()
	closeFleet(s.fl)
}

// tracedSolve wraps Fleet.SolveMegabatch in a span per flush.
func (s *coalesceSys) tracedSolve(ctx context.Context, mb *batcher.Megabatch[float64]) error {
	tr := s.tr.Load()
	sp := tr.begin("fleet.SolveMegabatch", -1, s.flushes.Add(1))
	err := s.fl.SolveMegabatch(ctx, mb)
	tr.end(sp)
	return err
}

func startCoalesce(e *env, w *workloadSpec) (system, error) {
	fl, err := fleet.New(fleet.Config{
		Devices: w.devices,
		Pool:    gputrid.PoolConfig{Capacity: 2, MaxShapes: 8},
	})
	if err != nil {
		return nil, err
	}
	s := &coalesceSys{fl: fl}
	s.xs.New = func() any { x := make([]float64, w.n); return &x }
	solve := batcher.SolveFunc[float64](fl.SolveMegabatch)
	if e.trace {
		solve = s.tracedSolve
	}
	s.bt, err = batcher.New(batcher.Config[float64]{
		MaxBatch: w.maxBatch, MaxWait: w.maxWait, MaxQueuedFlights: w.maxQueued, Solve: solve})
	if err != nil {
		closeFleet(fl)
		return nil, err
	}
	s.stopTick = startTicker(fl)
	// The first request builds the megabatch station and records its
	// kernels.
	b := optionBatch(w.n, volOf(e.seed, 0))
	x := make([]float64, w.n)
	if _, err := s.bt.Solve(context.Background(), &batcher.Request[float64]{
		M: 1, N: w.n, Lower: b.Lower, Diag: b.Diag, Upper: b.Upper, RHS: b.RHS, X: x,
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// coalescePhase is one open-loop phase through the batcher.
type coalescePhase struct {
	res       *openResult
	wait      []time.Duration
	incorrect atomic.Int64
	rejected  atomic.Int64
	cpu       time.Duration
	rt        [2]runtimeSnap
	fleet     [2]fleet.Stats
	batch     [2]batcher.Stats
}

func (s *coalesceSys) phase(picks []*body, sched []time.Duration, tr *tracer) *coalescePhase {
	p := &coalescePhase{wait: make([]time.Duration, len(sched))}
	xs := make([]*[]float64, len(sched))
	s.tr.Store(tr)
	p.fleet[0], p.batch[0], p.rt[0] = s.fl.Stats(), s.bt.Stats(), readRuntime()
	p.res = runSpawn(sched, func(i int) error {
		b := picks[i].batch
		xs[i] = s.xs.Get().(*[]float64)
		sp := tr.begin("batcher.Solve", -1, int64(i))
		res, err := s.bt.Solve(context.Background(), &batcher.Request[float64]{
			M: b.M, N: b.N, Lower: b.Lower, Diag: b.Diag, Upper: b.Upper, RHS: b.RHS, X: *xs[i],
		})
		tr.end(sp)
		p.wait[i] = res.Wait
		if errors.Is(err, gputrid.ErrOverloaded) {
			p.rejected.Add(1)
		}
		return err
	}, func(i int, err error) {
		if err == nil && !(relErr(*xs[i], picks[i].ref) <= tolerance) {
			p.incorrect.Add(1)
		}
		s.xs.Put(xs[i])
	})
	p.fleet[1], p.batch[1], p.rt[1] = s.fl.Stats(), s.bt.Stats(), readRuntime()
	p.cpu = p.rt[1].cpu - p.rt[0].cpu
	return p
}

func runCoalesce(e *env, w *workloadSpec) (*outcome, error) {
	o := newOutcome()
	if !e.trace {
		setup, err := measureSetup(e, w, setupRuns)
		if err != nil {
			return nil, err
		}
		o.set("setup_s", setup)
	}
	bodies, err := buildBodies(e.seed, 64, w.share)
	if err != nil {
		return nil, err
	}
	sysi, err := w.start(e, w)
	if err != nil {
		return nil, err
	}
	s := sysi.(*coalesceSys)
	defer s.close()

	phase := func(seed uint64, rate float64, d time.Duration, tr *tracer) *coalescePhase {
		sched := poissonSchedule(seed, rate, d)
		return s.phase(bodies.mix(seed, len(sched), w.share), sched, tr)
	}
	// Warm-up, not measured; its outputs are still checked.
	o.incorrect += int(phase(derive(e.seed, 1000), w.rate, time.Second, nil).incorrect.Load())
	count := func(p *coalescePhase) {
		p.res.logErrors(e.log, w.name)
		o.count(len(p.res.lat), p.res.errorCount(), int(p.incorrect.Load()))
	}

	if e.trace {
		d := e.fixedPhase(true)
		plain := phase(derive(e.seed, 200), w.rate, d, nil)
		tr := newTracer(4 * len(plain.res.lat))
		p := phase(derive(e.seed, 201), w.rate, d, tr)
		count(plain)
		count(p)
		if err := o.finishTrace(e, w, tr); err != nil {
			return nil, err
		}
		lat := p.res.okLatencies()
		if err := o.setTraceOverhead(plain.res.okLatencies(), lat); err != nil {
			return nil, err
		}
		if err := o.setSolve(spanDurations(tr.recorded(), "fleet.SolveMegabatch"), lat, 1); err != nil {
			return nil, err
		}
		o.set("batcher.wait_share", ratio(mean(msOf(p.wait)), mean(lat)))
		if w50, err := percentile(msOf(p.wait), 0.5); err == nil {
			o.set("batcher.wait_p50_ms", w50)
		}
		o.setBatcher(p.batch[0], p.batch[1])
		o.setFleet(p.fleet[0], p.fleet[1])
		o.set("pool.rejected", float64(p.rejected.Load()))
		o.zeroLayers("tridserve.", "pool.wait_share", "pool.fallback_share", "core.dist.", "adi.")
		o.setRuntime(p.rt[0], p.rt[1], len(p.res.lat))
		if err := o.setKernelModel(w.maxBatch, w.n, 0); err != nil {
			return nil, err
		}
		o.setLag(p.res.lagMS(), w.slo)
		o.set("load.samples", float64(len(lat)))
		o.set("load.build_s", e.buildS)
		return o, nil
	}

	var win windowed
	var rt [2]runtimeSnap
	for k := 0; k < fixedWindows; k++ {
		if err := win.window("self", func() error {
			p := phase(derive(e.seed, k), w.rate, e.fixedPhase(true)/fixedWindows, nil)
			count(p)
			win.addOpen(p.res, p.cpu)
			if k == 0 {
				rt[0] = p.rt[0]
			}
			rt[1] = p.rt[1]
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := o.setFixed(&win); err != nil {
		return nil, err
	}
	o.setRuntime(rt[0], rt[1], win.ops)
	o.setLag(win.lag, w.slo)

	knee := searchKnee(e, w, &win, func(seed uint64, rate float64, d time.Duration) []float64 {
		pr := phase(seed, rate, d, nil)
		o.incorrect += int(pr.incorrect.Load())
		return pr.res.sloLatencies()
	})
	o.set("max_rps_at_slo", knee)
	return o, nil
}

// searchKnee runs the knee search from the fixed phase's result. Each
// probe gets an equal share of the knee budget, or longer when
// minProbeRequests take longer; probe receives the probe's own schedule
// seed and returns its requests' SLO latencies, in which failed
// requests miss.
func searchKnee(e *env, w *workloadSpec, fixed *windowed, probe func(seed uint64, rate float64, d time.Duration) []float64) float64 {
	per := e.kneeBudget() / kneeProbes
	limit := float64(w.slo) / 1e6
	n := 0
	return kneeSearch(w.rate, missShare(fixed.slo, limit), func(rate float64) float64 {
		n++
		m := missShare(probe(derive(e.seed, 100+n), rate, max(per, time.Duration(minProbeRequests/rate*float64(time.Second)))), limit)
		fmt.Fprintf(e.log, "tridload: %s knee probe %.0f req/s: %.2f%% over the %v SLO\n", w.name, rate, 100*m, w.slo)
		return m
	})
}

// ---- adi-step -------------------------------------------------------

// adiSys is one Heat2D stepper whose backend is one reused Solver.
type adiSys struct {
	solver *gputrid.Solver[float64]
	h      *adi.Heat2D[float64]
	u0, u  []float64
	f      []float64
	dst    []float64
	steps  int
	tr     *tracer
	parent int32 // the step span the backend's solve spans belong to
	step   int64
}

func (s *adiSys) close() { _ = s.solver.Close() }

func startADI(e *env, w *workloadSpec) (system, error) {
	solver, err := gputrid.NewSolver[float64](w.n, w.n)
	if err != nil {
		return nil, err
	}
	s := &adiSys{solver: solver, dst: make([]float64, w.n*w.n), parent: -1}
	s.u0, s.f = heatField(w.n, e.seed)
	s.u = append([]float64(nil), s.u0...)
	s.h = &adi.Heat2D[float64]{Grid: adi.NewGrid2D(w.n, w.n), Alpha: 1,
		Backend: func(b *matrix.Batch[float64]) ([]float64, error) {
			sp := s.tr.begin("gputrid.Solver.SolveBatchInto", s.parent, s.step)
			err := s.solver.SolveBatchInto(s.dst, b)
			s.tr.end(sp)
			return s.dst, err
		}}
	// The first step runs the Solver's recording solves.
	if err := s.stepOnce(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *adiSys) stepOnce() error {
	s.parent = s.tr.begin("adi.Heat2D.Step", -1, s.step)
	err := s.h.Step(s.u, s.f, heatDT)
	s.tr.end(s.parent)
	s.steps++
	s.step++
	return err
}

// verify steps a CPU-backed Heat2D from the same start for as many
// steps and compares the fields.
func (s *adiSys) verify(n int) (bool, error) {
	ref := append([]float64(nil), s.u0...)
	h := &adi.Heat2D[float64]{Grid: adi.NewGrid2D(n, n), Alpha: 1, Backend: adi.CPUBackend[float64]()}
	for i := 0; i < s.steps; i++ {
		if err := h.Step(ref, s.f, heatDT); err != nil {
			return false, err
		}
	}
	return relErr(s.u, ref) <= tolerance, nil
}

// closedPhase is one closed-loop phase.
type closedPhase struct {
	lat, lag []time.Duration
	failed   int
	elapsed  time.Duration
	rt       [2]runtimeSnap
}

func runClosed(d time.Duration, minOps int, op func(i int) error) *closedPhase {
	p := &closedPhase{}
	p.rt[0] = readRuntime()
	p.lat, p.lag, p.failed, p.elapsed = closedLoop(d, minOps, op)
	p.rt[1] = readRuntime()
	return p
}

// runClosedWindows runs a closed-loop fixed phase of d as fixedWindows
// consecutive windows, together at least minClosedOps ops.
func runClosedWindows(d time.Duration, op func(i int) error) (win windowed, rt [2]runtimeSnap, failed int, err error) {
	for k := 0; k < fixedWindows; k++ {
		err = win.window("self", func() error {
			p := runClosed(d/fixedWindows, minClosedOps/fixedWindows, op)
			win.addClosed(p)
			failed += p.failed
			if k == 0 {
				rt[0] = p.rt[0]
			}
			rt[1] = p.rt[1]
			return nil
		})
		if err != nil {
			return win, rt, failed, err
		}
	}
	return win, rt, failed, nil
}

func runADI(e *env, w *workloadSpec) (*outcome, error) {
	o := newOutcome()
	if !e.trace {
		setup, err := measureSetup(e, w, setupRuns)
		if err != nil {
			return nil, err
		}
		o.set("setup_s", setup)
	}
	sysi, err := w.start(e, w)
	if err != nil {
		return nil, err
	}
	s := sysi.(*adiSys)
	defer s.close()
	step := func(int) error { return s.stepOnce() }
	runClosed(0, 10, step) // warm-up, not measured

	if e.trace {
		d := e.fixedPhase(false)
		plain := runClosed(d, minClosedOps, step)
		s.tr = newTracer(4 * (len(plain.lat) + 16))
		p := runClosed(d, minClosedOps, step)
		tr := s.tr
		s.tr = nil
		if err := o.finishTrace(e, w, tr); err != nil {
			return nil, err
		}
		lat := msOf(p.lat)
		if err := o.setTraceOverhead(msOf(plain.lat), lat); err != nil {
			return nil, err
		}
		spans := tr.recorded()
		solves := spanDurations(spans, "gputrid.Solver.SolveBatchInto")
		if err := o.setSolve(solves, lat, 2); err != nil {
			return nil, err
		}
		// A step's own time is its span minus its two solves.
		perStep := make(map[int64]float64)
		for _, sp := range spans {
			d := float64(sp.End-sp.Start) / 1e6
			if sp.Name == "adi.Heat2D.Step" {
				perStep[sp.Req] += d
			} else {
				perStep[sp.Req] -= d
			}
		}
		build := make([]float64, 0, len(perStep))
		for _, v := range perStep {
			build = append(build, v)
		}
		o.set("adi.build_share", ratio(sum(build), sum(lat)))
		if b50, err := percentile(build, 0.5); err == nil {
			o.set("adi.build_p50_ms", b50)
		}
		o.zeroLayers("tridserve.", "batcher.", "pool.", "fleet.", "core.dist.")
		o.setRuntime(p.rt[0], p.rt[1], len(p.lat))
		if err := o.setKernelModel(w.n, w.n, core.KAuto); err != nil {
			return nil, err
		}
		o.setLag(msOf(p.lag), 0)
		o.set("load.samples", float64(len(lat)))
		o.set("load.build_s", e.buildS)
		o.count(len(plain.lat)+len(p.lat), plain.failed+p.failed, 0)
	} else {
		win, rt, failed, err := runClosedWindows(e.fixedPhase(false), step)
		if err != nil {
			return nil, err
		}
		o.count(win.ops, failed, 0)
		if err := o.setFixed(&win); err != nil {
			return nil, err
		}
		rate := median(win.rate)
		o.set("rows_per_s", rate*2*float64(w.n*w.n))
		o.set("modeled_ms", 2*ms(s.solver.ModeledTime()))
		o.setRuntime(rt[0], rt[1], win.ops)
		o.setLag(win.lag, 0)
	}
	ok, err := s.verify(w.n)
	if err != nil {
		return nil, err
	}
	if !ok {
		o.incorrect++
	}
	return o, nil
}

// ---- dist-huge ------------------------------------------------------

// distSys is a 4-device fleet serving one huge system distributed.
type distSys struct {
	fl       *fleet.Fleet
	stopTick func()
	b        *gputrid.Batch[float64]
	first    *fleet.DistResult
	tr       *tracer
}

func (s *distSys) close() {
	s.stopTick()
	closeFleet(s.fl)
}

func startDist(e *env, w *workloadSpec) (system, error) {
	fl, err := fleet.New(fleet.Config{Devices: w.devices})
	if err != nil {
		return nil, err
	}
	s := &distSys{fl: fl, stopTick: startTicker(fl),
		b: workload.Batch[float64](workload.DiagDominant, 1, w.n, e.seed)}
	// The first solve builds the distributed solver and its slab
	// pipelines.
	if s.first, err = fl.SolveDistributed(context.Background(), s.b); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// distTotals accumulates the reports of a phase's solves.
type distTotals struct {
	solves                        int
	commBytes                     int64
	serial, pipelined             time.Duration
	busyImbalance                 float64
	integrity, hedges, migrations int
	mismatched                    int
}

func (t *distTotals) add(rep *core.DistReport) {
	t.solves++
	t.commBytes += rep.Comm.TotalBytes()
	t.serial += rep.ModeledSerial
	t.pipelined += rep.ModeledPipelined
	busy := make([]float64, len(rep.PerDevice))
	for i, d := range rep.PerDevice {
		busy[i] = d.ModeledBusy
	}
	t.busyImbalance += maxOverMean(busy)
	t.integrity += rep.IntegrityRetries
	t.hedges += rep.Hedges
	t.migrations += rep.Migrations
}

// setDist records the distributed layer's per-solve metrics: totals
// over the phase divided by the solves in it, never by its length.
func (o *outcome) setDist(t *distTotals) {
	n := float64(max(t.solves, 1))
	o.set("core.dist.comm_mb_per_solve", float64(t.commBytes)/1e6/n)
	o.set("core.dist.overlap_ratio", 1-ratio(float64(t.pipelined), float64(t.serial)))
	o.set("core.dist.busy_imbalance", t.busyImbalance/n)
	o.set("core.dist.integrity_retries_per_solve", float64(t.integrity)/n)
	o.set("core.dist.hedges_per_solve", float64(t.hedges)/n)
	o.set("core.dist.migrations_per_solve", float64(t.migrations)/n)
}

func runDist(e *env, w *workloadSpec) (*outcome, error) {
	o := newOutcome()
	if !e.trace {
		setup, err := measureSetup(e, w, setupRuns)
		if err != nil {
			return nil, err
		}
		o.set("setup_s", setup)
	}
	sysi, err := w.start(e, w)
	if err != nil {
		return nil, err
	}
	s := sysi.(*distSys)
	defer s.close()
	ref, err := gputrid.SolveCPUPivoting(s.b)
	if err != nil {
		return nil, err
	}
	if !(relErr(s.first.X, ref) <= tolerance) {
		o.incorrect++
	}

	var tot *distTotals
	solve := func(i int) error {
		sp := s.tr.begin("fleet.SolveDistributed", -1, int64(i))
		r, err := s.fl.SolveDistributed(context.Background(), s.b)
		s.tr.end(sp)
		if err != nil {
			return err
		}
		for j, x := range r.X {
			if math.Float64bits(x) != math.Float64bits(s.first.X[j]) {
				tot.mismatched++
				break
			}
		}
		tot.add(&r.Report)
		return nil
	}
	phase := func(d time.Duration, minOps int) (*closedPhase, *distTotals, [2]fleet.Stats) {
		tot = &distTotals{}
		var fs [2]fleet.Stats
		fs[0] = s.fl.Stats()
		p := runClosed(d, minOps, solve)
		fs[1] = s.fl.Stats()
		o.incorrect += tot.mismatched
		return p, tot, fs
	}
	phase(0, 5) // warm-up, not measured; its outputs are still checked

	if e.trace {
		d := e.fixedPhase(false)
		plain, _, _ := phase(d, minClosedOps)
		s.tr = newTracer(2*len(plain.lat) + 64)
		p, t, fs := phase(d, minClosedOps)
		o.count(len(plain.lat)+len(p.lat), plain.failed+p.failed, 0)
		tr := s.tr
		s.tr = nil
		if err := o.finishTrace(e, w, tr); err != nil {
			return nil, err
		}
		lat := msOf(p.lat)
		if err := o.setTraceOverhead(msOf(plain.lat), lat); err != nil {
			return nil, err
		}
		if err := o.setSolve(spanDurations(tr.recorded(), "fleet.SolveDistributed"), lat, 1); err != nil {
			return nil, err
		}
		o.setDist(t)
		o.setFleet(fs[0], fs[1])
		// The slab kernels inside DistSolver report no per-launch
		// statistics, so the gpusim layer reads 0 here.
		o.zeroLayers("tridserve.", "batcher.", "pool.", "adi.", "gpusim.")
		o.setRuntime(p.rt[0], p.rt[1], len(p.lat))
		o.setLag(msOf(p.lag), 0)
		o.set("load.samples", float64(len(lat)))
		o.set("load.build_s", e.buildS)
		return o, nil
	}

	tot = &distTotals{}
	win, rt, failed, err := runClosedWindows(e.fixedPhase(false), solve)
	if err != nil {
		return nil, err
	}
	o.count(win.ops, failed, tot.mismatched)
	if err := o.setFixed(&win); err != nil {
		return nil, err
	}
	rate := median(win.rate)
	o.set("rows_per_s", rate*float64(w.n))
	o.set("modeled_ms", ms(s.first.Report.ModeledPipelined))
	o.setRuntime(rt[0], rt[1], win.ops)
	o.setLag(win.lag, 0)
	return o, nil
}
