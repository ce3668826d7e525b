package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputrid/internal/cpu"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Typed failures of the distributed solve path.
var (
	// ErrNoLiveDevices reports a distributed solve requested with an
	// empty live-device set.
	ErrNoLiveDevices = errors.New("core: distributed solve has no live devices")
	// ErrDistBusy is returned when SolveOn is called while another
	// distributed solve is in flight on the same solver.
	ErrDistBusy = errors.New("core: distributed solver is already executing a solve")
	// ErrDistClosed is returned by SolveOn after Close.
	ErrDistClosed = errors.New("core: distributed solver is closed")
)

// DistConfig configures a DistSolver.
type DistConfig struct {
	// Topology is the simulated multi-device fabric; required.
	Topology *gpusim.Topology
	// Slabs is the partition width D. It fixes the arithmetic: the
	// partition is a function of (N, Slabs) only, never of which
	// devices are live, so a solve on fewer (or migrated) devices is
	// bitwise identical to the fault-free full-fleet run. 0 means one
	// slab per topology device.
	Slabs int
	// Slab templates the per-slab local solver (see Config). Device is
	// ignored — each slab runs on its assigned topology device — and K
	// is pinned per slab length from Topology.Device(0), so identical
	// devices execute identical launch geometry regardless of
	// assignment.
	Slab Config
	// Retry bounds per-slab recovery: a slab whose device dies is
	// migrated to a survivor up to RetryPolicy.MaxRetries times per
	// phase (local reduce, back-substitution), with the policy's
	// seeded-jitter backoff between attempts, then degraded to the host
	// pivoting GTSV path — or failed with ErrFaulted under NoDegrade.
	// The zero value is the production default.
	Retry RetryPolicy
	// Hedge controls the speculative re-execution of straggler slabs
	// after the reduce phase; the zero value enables it (outliers past
	// 3× the median modeled phase time are re-launched on the
	// least-loaded survivor). See HedgePolicy.
	Hedge HedgePolicy
	// Health, when non-nil, receives a HealthXID event the moment a
	// device is declared dead mid-solve — before the slab is migrated —
	// so a fleet control plane can cordon the device while this solve
	// is still completing. Must be safe for concurrent use.
	Health func(gpusim.HealthEvent)
}

// DistReport describes one distributed solve.
type DistReport struct {
	// Slabs is the partition width D.
	Slabs int
	// Devices is the final topology device of each slab; -1 marks a
	// slab degraded to the host path.
	Devices []int
	// Deaths lists (ascending) the topology devices declared dead
	// during the solve.
	Deaths []int
	// Migrations counts slabs whose in-progress work was lost to a
	// device death and re-run on a survivor.
	Migrations int
	// Retries counts slab re-executions after lost work: one per
	// device attempt a death cut short, re-run on a survivor or, once
	// the budget is spent, on the host. A fault-free solve reports 0.
	Retries int
	// Degraded lists (ascending) the slabs re-solved on the host
	// because no retry budget, no survivor, or no trustworthy link
	// remained.
	Degraded []int
	// IntegrityRetries counts transfers whose ABFT checksum mismatched
	// (a link silently corrupted the payload) and were re-exchanged.
	// Every one of these is a silent corruption caught before it could
	// reach a caller.
	IntegrityRetries int
	// SlabResolves counts reduce-phase slabs re-executed because
	// re-exchanging alone could not produce a clean interface transfer
	// (rung two of the escalation ladder).
	SlabResolves int
	// Hedges counts speculative re-launches of straggler slabs;
	// HedgeWins how many were adopted (the speculative run completed
	// first in modeled time); HedgesCancelled how many were discarded
	// (incumbent won, speculation failed, or the solve was cancelled
	// mid-hedge).
	Hedges          int
	HedgeWins       int
	HedgesCancelled int
	// PerDevice is what this solve observed about each topology device
	// it touched — slab executions, modeled busy time, integrity
	// retries, hedged-away slabs — the raw feed for a gray-failure
	// detector. Sorted by device.
	PerDevice []DeviceObservation
	// Comm is the interconnect traffic this solve charged, attributed
	// exactly to this solve via a per-solve CommScope even when
	// concurrent solves share the topology.
	Comm gpusim.CommStats
	// ModeledSerial and ModeledPipelined are the modeled device-side
	// makespans of the final (post-recovery) assignment: serial runs
	// each slab's upload→compute→download back to back; pipelined
	// overlaps transfers with interior elimination on each device's
	// copy/compute engines. Both take the max over devices, which run
	// concurrently.
	ModeledSerial    time.Duration
	ModeledPipelined time.Duration
}

// distSlab is the per-slab solve state.
type distSlab struct {
	idx       int
	dev       int  // current topology device; -1 = degraded to host
	homeDev   int  // device holding the slab's u,v,w planes after phase A
	attempts  int  // device attempts in the current phase
	degraded  bool // moved to the host path for the rest of the solve
	redone    bool // lost work at least once (counts as migration)
	integrity int  // checksum-mismatched transfers re-exchanged
	resolves  int  // reduce re-executions forced by the integrity ladder
	timing    gpusim.SlabTiming
	outcome   slabOutcome // result of the current runPhase round
	err       error       // the death behind outcome slabLost
}

// slabOutcome is what one runPhase round did with a slab.
type slabOutcome uint8

const (
	slabQueued    slabOutcome = iota // assigned, not run: its device died first
	slabDone                         // ran and verified
	slabLost                         // its device died under it
	slabUntrusted                    // its link stayed corrupt: host path
)

// distDev is one topology device's state within a solve: indexed by
// topology device, owned by the solver, reset at the start of every
// solve.
type distDev struct {
	alive bool
	// runPhase, per round (reset as each round starts): the device's
	// slabs in slab order, whether a launch killed it, and a failure
	// that ends the solve.
	group []*distSlab
	died  bool
	err   error
	// load is hedgePhase's modeled load of the current assignment.
	load float64
	// timings are the final assignment's slab timings, for the modeled
	// makespan.
	timings []gpusim.SlabTiming
	// obs accumulates the device's gray-failure observations.
	obs devObs
}

type pipeKey struct {
	dev, length int
}

// DistSolver solves batches of M tridiagonal systems of N rows across
// the devices of a simulated topology, surviving device death
// mid-solve.
//
// The algorithm is separator-based domain decomposition (the SPIKE /
// Wang family the multi-GPU tridiagonal literature builds on): the N
// rows split into D slabs with one separator row between adjacent
// slabs. Each slab solves three local systems through the paper's
// hybrid pipeline — u = T⁻¹ d, plus the responses v, w to its left and
// right separator couplings — producing six interface scalars per
// (system, slab). Substituting those into the separator rows yields a
// genuinely tridiagonal reduced system of order D-1 per batch system,
// solved on the host with the pivoting GTSV. Back-substitution
// x = u + v·x_left + w·x_right then completes each slab on its device.
//
// Robustness: each slab is a checkpointed failure domain. Its inputs
// live on the host and are never mutated, so when a device dies
// (aborts, hangs, or corrupts a launch), only that slab's in-flight
// work is lost: the death surfaces immediately through DistConfig.
// Health, the device is excluded from the solve, and the slab re-runs
// on a survivor — bitwise identical, because the partition and launch
// geometry never depended on the assignment. With no survivors (or an
// exhausted retry budget) the slab degrades to the host pivoting GTSV
// unless RetryPolicy.NoDegrade demands ErrFaulted.
//
// A solver is single-flight, like Pipeline: concurrent SolveOn calls
// return ErrDistBusy.
type DistSolver[T num.Real] struct {
	cfg  DistConfig
	topo *gpusim.Topology
	m, n int
	part Partition

	// Per-slab host arenas. slabIn holds the 3M local systems of each
	// slab's reduce (plane-major: u systems 0..M-1, v, then w); slabX
	// their solutions; slabOut the back-substituted slab rows; sepL and
	// sepR the per-system separator values feeding the backsub.
	slabIn  []*matrix.Batch[T]
	slabX   [][]T
	slabOut [][]T
	sepL    [][]T
	sepR    [][]T

	// iface stages each slab's six interface scalars per system (the
	// halo the reduce phase downloads), laid out i*6 + {uF,vF,wF,uL,
	// vL,wL}; ifaceShadow and outShadow model the device-resident
	// copies the verified downloads restore from after a corrupted
	// delivery.
	iface       [][]T
	ifaceShadow [][]T
	outShadow   [][]T

	// Hedging scratch: the speculative re-execution of a straggler slab
	// works entirely here, so a losing hedge touches no solve state.
	// Hedges run sequentially, so one set suffices.
	hedgeSlab   distSlab
	hedgeX      []T
	hedgeIface  []T
	hedgeShadow []T
	// testHookHedgeStart, when non-nil, runs before every speculative
	// hedge (test instrumentation).
	testHookHedgeStart func()

	// scope attributes this solver's interconnect traffic exactly, even
	// when concurrent solves share the topology.
	scope gpusim.CommScope

	// Per-solve state, reset by begin: the slabs, the topology devices
	// (nLive of them live), runPhase's pending queue and hedgePhase's
	// sample of modeled slab times. obsMu guards every devs[i].obs. all
	// lists every topology device, SolveInto's live set.
	slabs   []distSlab
	devs    []distDev
	nLive   int
	pending []*distSlab
	times   []float64
	obsMu   sync.Mutex
	all     []int

	// Reduced interface system, system-major: system i's D-1 rows at
	// [i*(D-1), (i+1)*(D-1)).
	redA, redB, redC, redD, redX []T

	gtsvRed  *cpu.GTSVWorkspace[T] // order D-1 reduced solves
	gtsvSlab *cpu.GTSVWorkspace[T] // degraded host slab solves

	// kByLen pins the PCR step count per slab length (resolved once
	// against device 0) so every device launches identical geometry.
	kByLen map[int]int

	// bsArgs wraps each slab's phase-C arrays as device globals once:
	// the host arenas behind them never move.
	bsArgs []backsubArgs[T]

	// pipes caches the per-(device, slab length) local-reduce
	// pipelines and backsubs the back-substitution kernels; both are
	// populated lazily under mu as assignments happen.
	mu       sync.Mutex
	pipes    map[pipeKey]*Pipeline[T]
	backsubs map[pipeKey]*backsubKernel[T]

	inUse  atomic.Bool
	closed bool
}

// NewDistSolver builds a distributed solver for batches of m systems
// of n rows over cfg.Topology.
func NewDistSolver[T num.Real](cfg DistConfig, m, n int) (*DistSolver[T], error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: DistConfig.Topology is required")
	}
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("core: invalid distributed shape %dx%d", m, n)
	}
	slabs := cfg.Slabs
	if slabs == 0 {
		slabs = cfg.Topology.NumDevices()
	}
	part, err := NewPartition(n, slabs)
	if err != nil {
		return nil, err
	}
	s := &DistSolver[T]{
		cfg:      cfg,
		topo:     cfg.Topology,
		m:        m,
		n:        n,
		part:     part,
		pipes:    make(map[pipeKey]*Pipeline[T]),
		backsubs: make(map[pipeKey]*backsubKernel[T]),
		kByLen:   make(map[int]int),
	}
	d := part.NumSlabs()
	s.slabs = make([]distSlab, d)
	s.pending = make([]*distSlab, 0, d)
	s.times = make([]float64, 0, d)
	s.devs = make([]distDev, cfg.Topology.NumDevices())
	s.all = make([]int, len(s.devs))
	for i := range s.all {
		s.all[i] = i
	}
	s.slabIn = make([]*matrix.Batch[T], d)
	s.slabX = make([][]T, d)
	s.slabOut = make([][]T, d)
	s.sepL = make([][]T, d)
	s.sepR = make([][]T, d)
	s.iface = make([][]T, d)
	s.ifaceShadow = make([][]T, d)
	s.outShadow = make([][]T, d)
	s.bsArgs = make([]backsubArgs[T], d)
	maxL := 0
	for p, sl := range part.Slabs {
		L := sl.Len()
		maxL = max(maxL, L)
		s.slabIn[p] = matrix.NewBatch[T](3*m, L)
		s.slabX[p] = make([]T, 3*m*L)
		s.slabOut[p] = make([]T, m*L)
		s.sepL[p] = make([]T, m)
		s.sepR[p] = make([]T, m)
		s.iface[p] = make([]T, 6*m)
		s.ifaceShadow[p] = make([]T, 6*m)
		s.outShadow[p] = make([]T, m*L)
		x := s.slabX[p]
		s.bsArgs[p] = backsubArgs[T]{
			u:     gpusim.NewGlobal(x[:m*L]),
			v:     gpusim.NewGlobal(x[m*L : 2*m*L]),
			w:     gpusim.NewGlobal(x[2*m*L:]),
			xl:    gpusim.NewGlobal(s.sepL[p]),
			xr:    gpusim.NewGlobal(s.sepR[p]),
			out:   gpusim.NewGlobal(s.slabOut[p]),
			total: m * L,
			rows:  L,
		}
		if _, ok := s.kByLen[L]; !ok {
			kcfg := s.slabConfig(L)
			kcfg.Device = s.topo.Device(0)
			s.kByLen[L] = kcfg.resolveK(3*m, L)
		}
	}
	s.hedgeX = make([]T, 3*m*maxL)
	s.hedgeIface = make([]T, 6*m)
	s.hedgeShadow = make([]T, 6*m)
	if d > 1 {
		s.redA = make([]T, m*(d-1))
		s.redB = make([]T, m*(d-1))
		s.redC = make([]T, m*(d-1))
		s.redD = make([]T, m*(d-1))
		s.redX = make([]T, m*(d-1))
		s.gtsvRed = cpu.NewGTSVWorkspace[T](d - 1)
	}
	return s, nil
}

// slabConfig is the local-reduce pipeline configuration for one slab
// length: the caller's template, with fail-fast recovery (the
// distributed layer owns retries: a faulted launch means the device is
// dead, not that the slab should retry in place).
func (s *DistSolver[T]) slabConfig(length int) Config {
	cfg := s.cfg.Slab
	cfg.Retry = RetryPolicy{MaxRetries: -1, NoDegrade: true}
	if k, ok := s.kByLen[length]; ok {
		cfg.K = k
	}
	return cfg
}

// pipeline returns (building if needed) the local-reduce pipeline for
// slabs of the given length on topology device dev.
func (s *DistSolver[T]) pipeline(dev, length int) (*Pipeline[T], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := pipeKey{dev, length}
	if p, ok := s.pipes[key]; ok {
		return p, nil
	}
	cfg := s.slabConfig(length)
	cfg.Device = s.topo.Device(dev)
	p, err := NewPipeline[T](cfg, 3*s.m, length)
	if err != nil {
		return nil, err
	}
	s.pipes[key] = p
	return p, nil
}

// backsub returns (building if needed) the back-substitution kernel
// for slabs of the given length on topology device dev.
func (s *DistSolver[T]) backsub(dev, length int) (*backsubKernel[T], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := pipeKey{dev, length}
	if k, ok := s.backsubs[key]; ok {
		return k, nil
	}
	d := s.topo.Device(dev)
	if backsubThreads > d.MaxThreadsPerBlock {
		return nil, fmt.Errorf("core: distBacksub: %d threads/block exceeds device limit %d",
			backsubThreads, d.MaxThreadsPerBlock)
	}
	k := newBacksubKernel[T](d, s.m, length)
	s.backsubs[key] = k
	return k, nil
}

// Shape returns the fixed batch shape (M systems, N rows).
func (s *DistSolver[T]) Shape() (m, n int) { return s.m, s.n }

// Partition returns the solver's fixed row partition.
func (s *DistSolver[T]) Partition() Partition { return s.part }

// Close releases the solver's pipelines. Close against an in-flight
// solve returns ErrDistBusy; repeat calls return nil.
func (s *DistSolver[T]) Close() error {
	if !s.inUse.CompareAndSwap(false, true) {
		return ErrDistBusy
	}
	defer s.inUse.Store(false)
	if s.closed {
		return nil
	}
	s.closed = true
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pipes {
		_ = p.Close()
	}
	s.pipes, s.backsubs = nil, nil
	return nil
}

// SolveInto solves the batch across every topology device.
func (s *DistSolver[T]) SolveInto(ctx context.Context, dst []T, b *matrix.Batch[T]) (*DistReport, error) {
	return s.SolveOn(ctx, dst, b, s.all)
}

// SolveOn solves the batch using only the given live topology devices
// (a fleet passes its servable members). dst receives the solutions in
// natural order (system i at [i*N, (i+1)*N)); it must not alias the
// batch. The returned report describes the assignment, recovery
// activity, interconnect traffic, and modeled time of this solve.
func (s *DistSolver[T]) SolveOn(ctx context.Context, dst []T, b *matrix.Batch[T], live []int) (*DistReport, error) {
	if b.M != s.m || b.N != s.n {
		return nil, fmt.Errorf("%w: batch is %dx%d, solver wants %dx%d", ErrShapeMismatch, b.M, b.N, s.m, s.n)
	}
	if len(dst) != s.m*s.n {
		return nil, fmt.Errorf("%w: dst has %d elements, solver wants %d", ErrShapeMismatch, len(dst), s.m*s.n)
	}
	if !s.inUse.CompareAndSwap(false, true) {
		return nil, ErrDistBusy
	}
	defer s.inUse.Store(false)
	if s.closed {
		return nil, ErrDistClosed
	}
	if err := s.begin(live); err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}

	d := s.part.NumSlabs()
	rep := &DistReport{Slabs: d, Devices: make([]int, d)}
	s.scope.Reset()
	for p := range s.slabs {
		s.buildSlabInput(p, b)
	}

	// Phase A: local reductions, with migration on device death.
	if err := s.runPhase(ctx, rep, s.reduceOne, s.reduceHost); err != nil {
		return nil, err
	}

	// Straggler hedging: slabs whose modeled phase time is an outlier
	// are speculatively re-run on the least-loaded survivor, first
	// verified (modeled-time) result wins.
	if err := s.hedgePhase(ctx, rep); err != nil {
		return nil, err
	}

	// Phase B: assemble and solve the reduced interface system on the
	// host, then scatter separator values.
	if err := s.solveReduced(b, dst); err != nil {
		return nil, err
	}

	// Phase C: per-slab back-substitution, device-side, same recovery.
	for p := range s.slabs {
		s.slabs[p].homeDev = s.slabs[p].dev // where the u,v,w planes are resident
	}
	if err := s.runPhase(ctx, rep, s.backsubOne, s.backsubHost); err != nil {
		return nil, err
	}
	s.scatterOutputs(dst)

	// Report: final assignment, comm delta, modeled makespans.
	for p := range s.slabs {
		sl := &s.slabs[p]
		rep.Devices[p] = sl.dev
		if sl.degraded {
			rep.Degraded = append(rep.Degraded, p)
		} else {
			s.devs[sl.dev].timings = append(s.devs[sl.dev].timings, sl.timing)
		}
		if sl.redone {
			rep.Migrations++
		}
		rep.IntegrityRetries += sl.integrity
		rep.SlabResolves += sl.resolves
	}
	sort.Ints(rep.Deaths)
	var serial, pipelined float64
	for dev := range s.devs {
		ser, pip := gpusim.PipelinedMakespan(s.devs[dev].timings)
		serial = max(serial, ser)
		pipelined = max(pipelined, pip)
	}
	rep.ModeledSerial = time.Duration(serial * float64(time.Second))
	rep.ModeledPipelined = time.Duration(pipelined * float64(time.Second))
	rep.PerDevice = s.observations()
	rep.Comm = s.scope.Stats()
	return rep, nil
}

// begin resets the per-solve state and marks the given devices live,
// validating them against the topology. Duplicates count once.
func (s *DistSolver[T]) begin(live []int) error {
	for dev := range s.devs {
		d := &s.devs[dev]
		d.alive, d.timings, d.obs = false, d.timings[:0], devObs{}
	}
	s.nLive = 0
	for _, dev := range live {
		if dev < 0 || dev >= len(s.devs) {
			return fmt.Errorf("core: live device %d out of range [0, %d)", dev, len(s.devs))
		}
		if !s.devs[dev].alive {
			s.devs[dev].alive = true
			s.nLive++
		}
	}
	if s.nLive == 0 {
		return ErrNoLiveDevices
	}
	for p := range s.slabs {
		s.slabs[p] = distSlab{idx: p, dev: -1, homeDev: -1}
	}
	return nil
}

// phaseFn runs one slab's device work for the current phase, returning
// the device error (a wrapped LaunchError means the device is dead).
type phaseFn[T num.Real] func(ctx context.Context, sl *distSlab, dev int) error

// hostFn is the phase's degraded host-side re-solve.
type hostFn[T num.Real] func(sl *distSlab) error

// runPhase executes one device phase over all slabs with the recovery
// protocol: slabs are assigned round-robin over the live devices in
// ascending order (a pure function of the live set, so replays are
// exact), each device runs its slabs sequentially while devices run in
// parallel, and a faulted launch kills its device — the death is
// published through DistConfig.Health before the victim slab migrates
// to a survivor under the phase's jittered retry budget. Slabs
// degraded in an earlier phase go straight to the host path.
func (s *DistSolver[T]) runPhase(ctx context.Context, rep *DistReport, run phaseFn[T], host hostFn[T]) error {
	maxR := s.cfg.Retry.maxRetries()
	pending := s.pending[:0]
	for p := range s.slabs {
		sl := &s.slabs[p]
		sl.attempts = 0
		if !sl.degraded {
			pending = append(pending, sl)
		} else if err := host(sl); err != nil {
			return err
		}
	}

	for len(pending) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return cancelled(err)
			}
		}
		if s.nLive == 0 {
			// No survivors: every remaining slab degrades or the solve
			// fails hard.
			if s.cfg.Retry.NoDegrade {
				return fmt.Errorf("%w: no live devices remain for %d slab(s)", ErrFaulted, len(pending))
			}
			for _, sl := range pending {
				if err := s.degrade(sl, host, nil); err != nil {
					return err
				}
			}
			return nil
		}

		// Deterministic assignment; each device's group in slab order.
		for dev := range s.devs {
			d := &s.devs[dev]
			d.group, d.died, d.err = d.group[:0], false, nil
		}
		dev := -1
		for _, sl := range pending {
			dev = s.nextLive(dev)
			sl.dev, sl.outcome = dev, slabQueued
			s.devs[dev].group = append(s.devs[dev].group, sl)
		}
		var wg sync.WaitGroup
		for dev := range s.devs {
			if d := &s.devs[dev]; len(d.group) > 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.runGroup(ctx, d, run)
				}()
			}
		}
		wg.Wait()
		for dev := range s.devs {
			if err := s.devs[dev].err; err != nil {
				return err
			}
		}
		// Deaths in device order, so multi-death rounds emit a
		// deterministic event sequence.
		for dev := range s.devs {
			if s.devs[dev].died {
				s.kill(rep, dev)
			}
		}

		next := pending[:0]
		for _, sl := range pending {
			switch sl.outcome {
			case slabUntrusted:
				// Integrity exhaustion: re-exchange and re-solve could not
				// get a clean transfer through, so the slab falls to the
				// host path — the data there never crossed the
				// untrustworthy link.
				if err := s.degrade(sl, host, errLinkIntegrity); err != nil {
					return err
				}
			case slabLost:
				sl.redone = true
				rep.Retries++
				if sl.attempts > maxR {
					if err := s.degrade(sl, host, fmt.Errorf("exhausted %d migration attempts: %w", sl.attempts, sl.err)); err != nil {
						return err
					}
					continue
				}
				next = append(next, sl)
			case slabQueued:
				// Untried behind a death: requeue without burning an
				// attempt.
				next = append(next, sl)
			}
		}
		pending = next
	}
	return nil
}

// runGroup runs one device's slabs of a runPhase round in order,
// stopping at the first failure that is not the link's. It writes only
// d and d's slabs, so devices run it concurrently.
func (s *DistSolver[T]) runGroup(ctx context.Context, d *distDev, run phaseFn[T]) {
	for _, sl := range d.group {
		if sl.attempts > 0 {
			// Re-attempt after lost work: jittered backoff keyed on the
			// slab, so simultaneous victims spread out instead of
			// stampeding survivors.
			if err := sleepBackoff(ctx, s.cfg.Retry.backoff(sl.attempts-1, uint64(sl.idx)+1)); err != nil {
				d.err = cancelled(err)
				return
			}
		}
		sl.attempts++
		err := run(ctx, sl, sl.dev)
		switch {
		case err == nil:
			sl.outcome = slabDone
		case errors.Is(err, errLinkIntegrity):
			// The link, not the device, failed: the device keeps its
			// remaining slabs.
			sl.outcome = slabUntrusted
		case isDeviceDeath(err):
			sl.outcome, sl.err = slabLost, err
			d.died = true
			return
		default:
			d.err = err
			return
		}
	}
}

// nextLive returns the first live device after dev in ascending order,
// wrapping around; dev -1 starts from device 0. There must be one.
func (s *DistSolver[T]) nextLive(dev int) int {
	for {
		if dev = (dev + 1) % len(s.devs); s.devs[dev].alive {
			return dev
		}
	}
}

// degrade moves sl to the host path for the rest of the solve, or
// fails the solve with ErrFaulted under NoDegrade. why is the failure
// behind it, for that error.
func (s *DistSolver[T]) degrade(sl *distSlab, host hostFn[T], why error) error {
	if s.cfg.Retry.NoDegrade {
		return fmt.Errorf("%w: slab %d: %v", ErrFaulted, sl.idx, why)
	}
	sl.dev, sl.degraded = -1, true
	return host(sl)
}

// isDeviceDeath classifies a slab failure: any launch fault means the
// device is lost for this solve (abort/hang/corrupt all poison the
// device's checkpointed work).
func isDeviceDeath(err error) bool {
	var le *gpusim.LaunchError
	return errors.Is(err, ErrFaulted) || errors.As(err, &le)
}

// kill is the one death path, for runPhase and hedges alike: it takes
// dev out of the live set, records it in rep.Deaths and publishes the
// death through the health callback. A device already dead is left be.
func (s *DistSolver[T]) kill(rep *DistReport, dev int) {
	if !s.devs[dev].alive {
		return
	}
	s.devs[dev].alive = false
	s.nLive--
	rep.Deaths = append(rep.Deaths, dev)
	if s.cfg.Health != nil {
		s.cfg.Health(gpusim.HealthEvent{
			Device:  dev,
			Kind:    gpusim.HealthXID,
			XID:     79,
			Message: fmt.Sprintf("device died mid-distributed-solve (topology device %d)", dev),
		})
	}
}

// buildSlabInput fills slab p's 3M local systems from the batch:
// plane u (systems 0..M-1) carries the slab's RHS, plane v (M..2M-1)
// the left-separator coupling -a[first]·e_first, plane w (2M..3M-1)
// the right-separator coupling -c[last]·e_last. Coefficients are the
// slab's rows, identical across planes. The first slab has no left
// separator and the last no right one, so their coupling planes are
// exactly zero — the hybrid's elimination of an all-zero RHS yields
// bitwise zero, which is what makes the reduced system's boundary
// terms vanish without special cases.
func (s *DistSolver[T]) buildSlabInput(p int, b *matrix.Batch[T]) {
	sl := s.part.Slabs[p]
	L := sl.Len()
	in := s.slabIn[p]
	first, last := p == 0, p == s.part.NumSlabs()-1
	for i := 0; i < s.m; i++ {
		src := i*s.n + sl.Start
		for plane := 0; plane < 3; plane++ {
			q := plane*s.m + i
			dst := q * L
			copy(in.Lower[dst:dst+L], b.Lower[src:src+L])
			copy(in.Diag[dst:dst+L], b.Diag[src:src+L])
			copy(in.Upper[dst:dst+L], b.Upper[src:src+L])
			rhs := in.RHS[dst : dst+L]
			switch plane {
			case 0:
				copy(rhs, b.RHS[src:src+L])
			case 1:
				clear(rhs)
				if !first {
					rhs[0] = -b.Lower[src]
				}
			case 2:
				clear(rhs)
				if !last {
					rhs[L-1] = -b.Upper[src+L-1]
				}
			}
		}
	}
}

// reduceOne runs slab sl's local reduction on device dev, into the
// solver's per-slab arenas.
func (s *DistSolver[T]) reduceOne(ctx context.Context, sl *distSlab, dev int) error {
	return s.reduceSlab(ctx, sl, dev, s.slabX[sl.idx], s.iface[sl.idx], s.ifaceShadow[sl.idx])
}

// reduceSlab runs slab sl's local reduction on device dev: verified
// coefficient upload, the 3M-system hybrid, extraction of the six
// interface scalars per system into iface, and the verified halo
// download. Both transfers carry ABFT sum checks; a corrupted delivery
// escalates re-exchange → re-solve-slab → errLinkIntegrity (the caller
// degrades the slab to the host). x/iface/shadow are parameters so a
// hedge's speculative run can execute into scratch buffers.
func (s *DistSolver[T]) reduceSlab(ctx context.Context, sl *distSlab, dev int, x, iface, shadow []T) error {
	p := sl.idx
	L := s.part.Slabs[p].Len()
	m := s.m
	elem := int64(num.SizeOf[T]())
	in := s.slabIn[p]
	// Upload: 3 coefficient planes + 3 RHS planes of M×L each. (The
	// coefficient replication is a modeling convenience — a real
	// implementation uploads them once — so charge the unreplicated 4
	// planes: a, b, c, d, and checksum exactly those.)
	mL := m * L
	up, err := s.verifiedUp(sl, dev, 4*int64(mL)*elem,
		in.Lower[:mL], in.Diag[:mL], in.Upper[:mL], in.RHS[:mL])
	if err != nil {
		return err
	}
	pipe, err := s.pipeline(dev, L)
	if err != nil {
		return err
	}
	if err := pipe.SolveIntoCtx(ctx, x, in); err != nil {
		return err
	}
	compute := s.topo.Device(dev).EstimateTime(pipe.Report().Stats, num.SizeOf[T]())
	s.extractInterface(x, iface, L)

	// Download the halo: 6 interface scalars per system, sum-checked.
	// If re-exchanging cannot produce a clean copy, rung two re-solves
	// the slab (fresh device state, fresh link draws) and tries again.
	down, err := s.verifiedDown(sl, dev, 6*int64(m)*elem, iface, shadow)
	if err != nil {
		sl.resolves++
		if err := pipe.SolveIntoCtx(ctx, x, in); err != nil {
			return err
		}
		compute += s.topo.Device(dev).EstimateTime(pipe.Report().Stats, num.SizeOf[T]())
		s.extractInterface(x, iface, L)
		var d2 float64
		d2, err = s.verifiedDown(sl, dev, 6*int64(m)*elem, iface, shadow)
		down += d2
		if err != nil {
			return err
		}
	}
	sl.timing = gpusim.SlabTiming{Upload: up, Compute: compute, Download: down}
	s.noteBusy(dev, sl.timing.Total())
	return nil
}

// extractInterface pulls the six interface scalars per system out of a
// slab's solved planes: first-row and last-row values of u, v, w, laid
// out i*6 + {uF, vF, wF, uL, vL, wL}.
func (s *DistSolver[T]) extractInterface(x, iface []T, L int) {
	m := s.m
	for i := 0; i < m; i++ {
		base := i * 6
		iface[base+0] = x[(0*m+i)*L]
		iface[base+1] = x[(1*m+i)*L]
		iface[base+2] = x[(2*m+i)*L]
		iface[base+3] = x[(0*m+i)*L+L-1]
		iface[base+4] = x[(1*m+i)*L+L-1]
		iface[base+5] = x[(2*m+i)*L+L-1]
	}
}

// reduceHost is the degraded local reduction: the slab's 3M systems go
// through the host pivoting GTSV. Not bitwise-comparable to the device
// path — degradation is a last resort, reported per slab.
func (s *DistSolver[T]) reduceHost(sl *distSlab) error {
	p := sl.idx
	L := s.part.Slabs[p].Len()
	if s.gtsvSlab == nil {
		s.gtsvSlab = cpu.NewGTSVWorkspace[T](L) // grows on demand for longer slabs
	}
	in := s.slabIn[p]
	for q := 0; q < 3*s.m; q++ {
		lo, hi := q*L, (q+1)*L
		sys := matrix.System[T]{
			Lower: in.Lower[lo:hi], Diag: in.Diag[lo:hi],
			Upper: in.Upper[lo:hi], RHS: in.RHS[lo:hi],
		}
		if err := cpu.SolveGTSVInto(&sys, s.slabX[p][lo:hi], s.gtsvSlab); err != nil {
			return fmt.Errorf("%w: degraded reduce of slab %d system %d: %v", ErrFaulted, p, q, err)
		}
	}
	// No link was crossed, but phase B reads the staged interface.
	s.extractInterface(s.slabX[p], s.iface[p], L)
	return nil
}

// solveReduced assembles the reduced interface system from the
// separator rows and the slabs' interface scalars, solves each batch
// system's D-1 unknowns with the pivoting GTSV, writes the separator
// values into dst, and distributes them to the slabs' backsub inputs.
func (s *DistSolver[T]) solveReduced(b *matrix.Batch[T], dst []T) error {
	d := s.part.NumSlabs()
	if d == 1 {
		clear(s.sepL[0])
		clear(s.sepR[0])
		return nil
	}
	r := d - 1
	for i := 0; i < s.m; i++ {
		base := i * r
		for p := 0; p < r; p++ {
			sep := s.part.Separator(p)
			gi := i*s.n + sep
			aa, bb, cc, dd := b.Lower[gi], b.Diag[gi], b.Upper[gi], b.RHS[gi]
			// Interface scalars come from the staged, checksum-verified
			// halo downloads, never straight off a device buffer.
			uL := s.iface[p][i*6+3]
			vL := s.iface[p][i*6+4]
			wL := s.iface[p][i*6+5]
			uF := s.iface[p+1][i*6+0]
			vF := s.iface[p+1][i*6+1]
			wF := s.iface[p+1][i*6+2]
			s.redA[base+p] = aa * vL
			s.redB[base+p] = bb + aa*wL + cc*vF
			s.redC[base+p] = cc * wF
			s.redD[base+p] = dd - aa*uL - cc*uF
		}
		sys := matrix.System[T]{
			Lower: s.redA[base : base+r], Diag: s.redB[base : base+r],
			Upper: s.redC[base : base+r], RHS: s.redD[base : base+r],
		}
		if err := cpu.SolveGTSVInto(&sys, s.redX[base:base+r], s.gtsvRed); err != nil {
			return fmt.Errorf("core: reduced interface system %d: %w", i, err)
		}
		for p := 0; p < r; p++ {
			dst[i*s.n+s.part.Separator(p)] = s.redX[base+p]
		}
	}
	// Scatter separator values to each slab's backsub inputs.
	for p := 0; p < d; p++ {
		for i := 0; i < s.m; i++ {
			if p == 0 {
				s.sepL[p][i] = 0
			} else {
				s.sepL[p][i] = s.redX[i*r+p-1]
			}
			if p == d-1 {
				s.sepR[p][i] = 0
			} else {
				s.sepR[p][i] = s.redX[i*r+p]
			}
		}
	}
	return nil
}

// backsubThreads is the distBacksub block size: one thread per slab
// row, a flat grid over the slab's M·L rows.
const backsubThreads = 128

// backsubArgs are one slab's phase-C device arrays: the u, v, w planes
// of its local solves, the separator values on either side, and the
// back-substituted output, total = M·L elements of rows = L per system.
type backsubArgs[T num.Real] struct {
	u, v, w, xl, xr, out gpusim.Global[T]
	total, rows          int
}

// backsubKernel is the cached distBacksub launch for one (topology
// device, slab length): its driver and the kernel closures, built once
// so a back-substitution allocates nothing. Like Pipeline it records
// once per process: the kernel has no data-dependent control flow and
// Global arrays are 512-byte aligned, so the stats recorded for one
// slab of this shape describe every later run on any device with the
// same recording fields. The driver runs it as every recorded kernel
// (driver.go); its twin is backsubRows.
//
// A kernel is driven by one goroutine at a time: runPhase runs each
// device's slabs sequentially, and hedges never back-substitute.
type backsubKernel[T num.Real] struct {
	drv    driver[T]
	launch [1]launch

	// args and blk are the slab and block being run, read by the
	// launch's body; binding them here keeps the closures
	// allocation-free.
	args *backsubArgs[T]
	blk  *gpusim.Block
	body func(t *gpusim.Thread)
}

// newBacksubKernel builds the kernel for slabs of m systems of rows
// rows on dev.
func newBacksubKernel[T num.Real](dev *gpusim.Device, m, rows int) *backsubKernel[T] {
	k := &backsubKernel[T]{}
	k.body = func(t *gpusim.Thread) {
		a := k.args
		idx := k.blk.ID*backsubThreads + t.ID
		if idx >= a.total {
			return
		}
		sys := idx / a.rows
		r := a.u.Load(t, idx) + a.v.Load(t, idx)*a.xl.Load(t, sys) + a.w.Load(t, idx)*a.xr.Load(t, sys)
		t.Flops(4)
		a.out.Store(t, idx, r)
	}
	kern := func(b *gpusim.Block) {
		k.blk = b
		b.PhaseNoSync(k.body)
	}
	grid := num.CeilDiv(m*rows, backsubThreads)
	k.launch[0] = launch{"distBacksub", backsubThreads, grid, kern, k.class}
	k.drv = newDriver[T](dev, recordKey{m: m, rows: rows, elem: num.SizeOf[T]()}, k, k.launch[:])
	return k
}

// class keys a block of the bound slab whose rows all belong to one
// system by the byte offsets of its first row and of that system's
// separators, which all its threads load. A block that crosses a
// system boundary or the slab's end is a class of its own.
func (k *backsubKernel[T]) class(blk int) (classKey, bool) {
	a, elem, tx := k.args, num.SizeOf[T](), k.drv.dev.TransactionBytes
	lo, hi := blk*backsubThreads, (blk+1)*backsubThreads
	if sys := lo / a.rows; hi <= a.total && sys == (hi-1)/a.rows {
		return classKey{lead: txOffset(sys, elem, tx), off: txOffset(lo, elem, tx)}, true
	}
	return classKey{}, false
}

// blockRows is where a block writes the bound slab's output: its
// backsubThreads rows, the tail block fewer.
func (k *backsubKernel[T]) blockRows(_, blk int) (lo, hi, stride int) {
	total := k.args.total
	return blk * backsubThreads, min((blk+1)*backsubThreads, total), total
}

// bindRecording binds nothing: a recording reads the bound slab, as
// the twin does.
func (k *backsubKernel[T]) bindRecording(bool) {}

// outputs is the bound slab's output, which the audit compares.
func (k *backsubKernel[T]) outputs() [][]T { return [][]T{k.args.out.Data} }

// backsubOne back-substitutes slab sl on device dev with a real
// simulated kernel, so phase C is a fault-injectable failure domain
// like the reduce. The kernel is a pure function of host-held
// (u, v, w, separators), so a migrated backsub re-runs bit-exactly.
// Both transfers are checksum-verified; a link that stays corrupt
// degrades the slab to the host backsub, which computes the same
// expression in the same order — bitwise identical output.
func (s *DistSolver[T]) backsubOne(ctx context.Context, sl *distSlab, dev int) error {
	p := sl.idx
	L := s.part.Slabs[p].Len()
	m := s.m
	elem := int64(num.SizeOf[T]())
	// Upload: the separator values always; the u,v,w planes too when
	// the backsub runs on a different device than the reduce (they
	// were resident on the dead device and re-stage from the host).
	bytes := 2 * int64(m) * elem
	parts := [][]T{s.sepL[p], s.sepR[p]}
	if dev != sl.homeDev {
		bytes += 3 * int64(m) * int64(L) * elem
		parts = append(parts, s.slabX[p])
	}
	up, err := s.verifiedUp(sl, dev, bytes, parts...)
	if err != nil {
		return err
	}

	k, err := s.backsub(dev, L)
	if err != nil {
		return err
	}
	// The twin asks the injector about the whole grid at attempt 0, as
	// Device.Launch keys it: the distributed layer retries by
	// migrating, never in place.
	a := &s.bsArgs[p]
	k.args = a
	err = k.drv.run(ctx, func() (bool, error) {
		if _, le := k.drv.fault(0, a.out.Data, nil); le != nil {
			return false, le
		}
		return false, backsubRows(ctx, a)
	})
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return cancelled(ctx.Err())
		}
		return err
	}
	down, err := s.verifiedDown(sl, dev, int64(a.total)*elem, s.slabOut[p], s.outShadow[p])
	if err != nil {
		return err
	}
	compute := s.topo.Device(dev).EstimateTime(&k.drv.kern[0], num.SizeOf[T]())
	sl.timing.Upload += up
	sl.timing.Compute += compute
	sl.timing.Download += down
	s.noteBusy(dev, up+compute+down)
	return nil
}

// backsubHost is the degraded back-substitution: the kernel's host
// twin, run unconditionally.
func (s *DistSolver[T]) backsubHost(sl *distSlab) error {
	return backsubRows(nil, &s.bsArgs[sl.idx])
}

// scatterOutputs copies each slab's back-substituted rows into dst.
func (s *DistSolver[T]) scatterOutputs(dst []T) {
	for p := range s.slabs {
		sl := s.part.Slabs[p]
		L := sl.Len()
		for i := 0; i < s.m; i++ {
			copy(dst[i*s.n+sl.Start:i*s.n+sl.End], s.slabOut[p][i*L:(i+1)*L])
		}
	}
}
