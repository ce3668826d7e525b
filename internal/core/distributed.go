package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputrid/internal/cpu"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pthomas"
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
	// NonFinite reports Inf or NaN in a sum the solve already takes —
	// of a download, of a degraded back-substitution's rows, of the
	// reduced solution — which every answer row passes through; a
	// vanishing pivot shows up here. Unset, the answer is finite.
	NonFinite bool
	// Comm is the interconnect traffic this solve charged, attributed
	// exactly to this solve even when concurrent solves share the
	// topology. It sums each slab's traffic in slab order after the
	// hedges' in hedge order, so its float sums are the same on every
	// run of one schedule.
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
	nonFinite bool // a download or host result of the slab summed to Inf/NaN
	resolves  int  // reduce re-executions forced by the integrity ladder
	timing    gpusim.SlabTiming
	comm      gpusim.CommStats // the slab's transfers, charged by one goroutine at a time
	outcome   slabOutcome      // result of the current runPhase round
	err       error            // the death behind outcome slabLost
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
	// start runs group on the device's goroutine of a round; it is
	// bound once in NewDistSolver, so starting a round allocates
	// nothing.
	start func()
	// load is hedgePhase's modeled load of the current assignment.
	load float64
	// timings are the final assignment's slab timings, for the modeled
	// makespan.
	timings []gpusim.SlabTiming
	// obs accumulates the device's gray-failure observations.
	obs devObs
}

// kernelKey names a cached slab kernel: its topology device and slab
// length.
type kernelKey struct {
	dev, length int
}

// distPhase is one device phase of the solve: a slab's device work,
// returning the device error (a wrapped LaunchError means the device is
// dead), and its degraded host-side re-solve.
type distPhase struct {
	run  func(ctx context.Context, sl *distSlab, dev int) error
	host func(sl *distSlab) error
}

// DistSolver solves batches of M tridiagonal systems of N rows across
// the devices of a simulated topology, surviving device death
// mid-solve.
//
// The algorithm is separator-based domain decomposition (the SPIKE /
// Wang family the multi-GPU tridiagonal literature builds on): the N
// rows split into D slabs with one separator row between adjacent
// slabs. Each slab solves three local systems through the paper's k = 0
// p-Thomas — u = T⁻¹ d, plus the responses v, w to its left and right
// separator couplings — producing six interface scalars per (system,
// slab). Substituting those into the separator rows yields a
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

	// The solve's binding, nil between solves: the caller's batch, whose
	// slab rows the local reduces read in place, and its solution.
	b   *matrix.Batch[T]
	dst []T

	// Per-slab host arenas. slabX holds the solutions of each slab's 3M
	// local systems (plane-major: u systems 0..M-1, v, then w); slabOut
	// the back-substituted slab rows; sepL and sepR the per-system
	// separator values feeding the backsub.
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

	// Per-solve state, reset by begin: the slabs, the topology devices
	// (nLive of them live), runPhase's pending queue and hedgePhase's
	// sample of modeled slab times. all lists every topology device,
	// SolveInto's live set.
	slabs   []distSlab
	devs    []distDev
	nLive   int
	pending []*distSlab
	times   []float64
	all     []int

	// Reduced interface system, system-major: system i's D-1 rows at
	// [i*(D-1), (i+1)*(D-1)).
	redA, redB, redC, redD, redX []T

	gtsvRed  *cpu.GTSVWorkspace[T] // order D-1 reduced solves
	gtsvSlab *cpu.GTSVWorkspace[T] // degraded host slab solves
	gtsvRHS  []T                   // their right-hand side, one system's

	// bsArgs wraps each slab's phase-C arrays as device globals once:
	// the host arenas behind them never move.
	bsArgs []backsubArgs[T]

	// reduce and backsubst are runPhase's two phases, bound once.
	// phaseCtx and phase are the running phase's, which every device's
	// start reads; wg waits for a round's devices.
	reduce, backsubst distPhase
	phaseCtx          context.Context
	phase             distPhase
	wg                sync.WaitGroup

	// reducers caches the per-(device, slab length) local-reduce kernels
	// and backsubs the back-substitution kernels; both are populated
	// lazily under mu as assignments happen.
	mu       sync.Mutex
	reducers map[kernelKey]*slabKernel[T]
	backsubs map[kernelKey]*backsubKernel[T]

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
		reducers: make(map[kernelKey]*slabKernel[T]),
		backsubs: make(map[kernelKey]*backsubKernel[T]),
	}
	s.reduce = distPhase{s.reduceOne, s.reduceHost}
	s.backsubst = distPhase{s.backsubOne, s.backsubHost}
	d := part.NumSlabs()
	s.slabs = make([]distSlab, d)
	s.pending = make([]*distSlab, 0, d)
	s.times = make([]float64, 0, d)
	s.devs = make([]distDev, cfg.Topology.NumDevices())
	for dev := range s.devs {
		d := &s.devs[dev]
		d.start = func() {
			defer s.wg.Done()
			s.runGroup(s.phaseCtx, d, s.phase)
		}
	}
	s.all = make([]int, len(s.devs))
	for i := range s.all {
		s.all[i] = i
	}
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

// reducer returns (building if needed) the local-reduce kernel for
// slabs of the given length on topology device dev.
func (s *DistSolver[T]) reducer(dev, length int) *slabKernel[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := kernelKey{dev, length}
	k, ok := s.reducers[key]
	if !ok {
		k = newSlabKernel[T](s.topo.Device(dev), s.m, length)
		s.reducers[key] = k
	}
	return k
}

// backsub returns (building if needed) the back-substitution kernel
// for slabs of the given length on topology device dev.
func (s *DistSolver[T]) backsub(dev, length int) (*backsubKernel[T], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := kernelKey{dev, length}
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

// Close releases the solver's kernels. Close against an in-flight
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
	s.reducers, s.backsubs = nil, nil
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
	defer s.release()
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
	s.b, s.dst = b, dst

	// Phase A: local reductions, with migration on device death.
	if err := s.runPhase(ctx, rep, s.reduce); err != nil {
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
	s.solveReduced(b, dst)
	rep.NonFinite = !num.IsFinite(sumParts(0, s.redX))

	// Phase C: per-slab back-substitution, device-side, same recovery;
	// each slab copies its rows into dst once they are verified.
	for p := range s.slabs {
		s.slabs[p].homeDev = s.slabs[p].dev // where the u,v,w planes are resident
	}
	if err := s.runPhase(ctx, rep, s.backsubst); err != nil {
		return nil, err
	}

	// Report: final assignment, traffic, modeled makespans.
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
		rep.NonFinite = rep.NonFinite || sl.nonFinite
		rep.IntegrityRetries += sl.integrity
		rep.SlabResolves += sl.resolves
		rep.Comm.Add(sl.comm)
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
	return rep, nil
}

// release ends a solve: it unbinds the caller's batch, solution and
// context, so the solver keeps none alive between solves, and drops
// the busy flag.
func (s *DistSolver[T]) release() {
	s.b, s.dst, s.phaseCtx = nil, nil, nil
	s.inUse.Store(false)
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

// runPhase executes one device phase over all slabs with the recovery
// protocol: slabs are assigned round-robin over the live devices in
// ascending order (a pure function of the live set, so replays are
// exact), each device runs its slabs sequentially while devices run in
// parallel, and a faulted launch kills its device — the death is
// published through DistConfig.Health before the victim slab migrates
// to a survivor under the phase's jittered retry budget. Slabs
// degraded in an earlier phase go straight to the host path.
func (s *DistSolver[T]) runPhase(ctx context.Context, rep *DistReport, ph distPhase) error {
	maxR := s.cfg.Retry.maxRetries()
	s.phaseCtx, s.phase = ctx, ph
	pending := s.pending[:0]
	for p := range s.slabs {
		sl := &s.slabs[p]
		sl.attempts = 0
		if !sl.degraded {
			pending = append(pending, sl)
		} else if err := ph.host(sl); err != nil {
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
				if err := s.degrade(sl, ph, nil); err != nil {
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
		for dev := range s.devs {
			if d := &s.devs[dev]; len(d.group) > 0 {
				s.wg.Add(1)
				go d.start()
			}
		}
		s.wg.Wait()
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
				if err := s.degrade(sl, ph, errLinkIntegrity); err != nil {
					return err
				}
			case slabLost:
				sl.redone = true
				rep.Retries++
				if sl.attempts > maxR {
					if err := s.degrade(sl, ph, fmt.Errorf("exhausted %d migration attempts: %w", sl.attempts, sl.err)); err != nil {
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
func (s *DistSolver[T]) runGroup(ctx context.Context, d *distDev, ph distPhase) {
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
		err := ph.run(ctx, sl, sl.dev)
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

// degrade moves sl to phase ph's host path for the rest of the solve,
// or fails the solve with ErrFaulted under NoDegrade. why is the
// failure behind it, for that error.
func (s *DistSolver[T]) degrade(sl *distSlab, ph distPhase, why error) error {
	if s.cfg.Retry.NoDegrade {
		return fmt.Errorf("%w: slab %d: %v", ErrFaulted, sl.idx, why)
	}
	sl.dev, sl.degraded = -1, true
	return ph.host(sl)
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

// reduceOne runs slab sl's local reduction on device dev, into the
// solver's per-slab arenas.
func (s *DistSolver[T]) reduceOne(ctx context.Context, sl *distSlab, dev int) error {
	return s.reduceSlab(ctx, sl, dev, s.slabX[sl.idx], s.iface[sl.idx], s.ifaceShadow[sl.idx])
}

// reduceSlab runs slab sl's local reduction on device dev: verified
// coefficient upload, the slab kernel over its 3M systems, extraction
// of the six interface scalars per system into iface, and the verified
// halo download. Both transfers carry ABFT sum checks; a corrupted
// delivery escalates re-exchange → re-solve-slab → errLinkIntegrity
// (the caller degrades the slab to the host). x/iface/shadow are
// parameters so a hedge's speculative run can execute into scratch
// buffers.
func (s *DistSolver[T]) reduceSlab(ctx context.Context, sl *distSlab, dev int, x, iface, shadow []T) error {
	rows := s.slab(sl.idx)
	L, m := rows.rows, s.m
	elem := int64(num.SizeOf[T]())
	// Upload: the slab's rows of a, b, c and d, M×L each, checksummed in
	// place should a delivery come back corrupt. The kernel reads the
	// coefficients once per plane, but a real implementation uploads
	// them once, so only these four are charged.
	up, err := s.verifiedUp(sl, dev, 4*int64(m*L)*elem, rows.sum)
	if err != nil {
		return err
	}
	k := s.reducer(dev, L)
	if err := k.solve(ctx, rows, x); err != nil {
		return err
	}
	compute := s.topo.Device(dev).EstimateTime(&k.drv.total, num.SizeOf[T]())
	s.extractInterface(x, iface, L)

	// Download the halo: 6 interface scalars per system, sum-checked.
	// If re-exchanging cannot produce a clean copy, rung two re-solves
	// the slab (fresh device state, fresh link draws) and tries again.
	down, err := s.verifiedDown(sl, dev, 6*int64(m)*elem, iface, shadow)
	if err != nil {
		sl.resolves++
		if err := k.solve(ctx, rows, x); err != nil {
			return err
		}
		compute += s.topo.Device(dev).EstimateTime(&k.drv.total, num.SizeOf[T]())
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
// through the host pivoting GTSV, each gathered from the caller's rows.
// Not bitwise-comparable to the device path — degradation is a last
// resort, reported per slab.
func (s *DistSolver[T]) reduceHost(sl *distSlab) error {
	p := sl.idx
	rows := s.slab(p)
	L := rows.rows
	if s.gtsvSlab == nil {
		s.gtsvSlab = cpu.NewGTSVWorkspace[T](L) // grows on demand for longer slabs
	}
	if len(s.gtsvRHS) < L {
		s.gtsvRHS = make([]T, L)
	}
	b := rows.b
	for q := 0; q < 3*s.m; q++ {
		lo, hi := rows.span(q % s.m)
		sys := matrix.System[T]{
			Lower: b.Lower[lo:hi], Diag: b.Diag[lo:hi],
			Upper: b.Upper[lo:hi], RHS: s.gtsvRHS[:L],
		}
		rows.rhs(q, sys.RHS)
		if err := cpu.SolveGTSVInto(&sys, s.slabX[p][q*L:(q+1)*L], s.gtsvSlab); err != nil {
			return fmt.Errorf("%w: degraded reduce of slab %d system %d: %v", ErrFaulted, p, q, err)
		}
	}
	// No link was crossed, but phase B reads the staged interface.
	s.extractInterface(s.slabX[p], s.iface[p], L)
	return nil
}

// slabRows is one slab of a bound batch: rows [start, start+rows) of
// every system, and whether the slab is the first (no left separator)
// or the last (no right one).
type slabRows[T num.Real] struct {
	b           *matrix.Batch[T]
	start, rows int
	first, last bool
}

// slab is slab p of the bound batch.
func (s *DistSolver[T]) slab(p int) slabRows[T] {
	sl := s.part.Slabs[p]
	return slabRows[T]{b: s.b, start: sl.Start, rows: sl.Len(), first: p == 0, last: p == s.part.NumSlabs()-1}
}

// span is where system i's slab rows sit in the batch's planes.
func (r *slabRows[T]) span(i int) (lo, hi int) {
	lo = i*r.b.N + r.start
	return lo, lo + r.rows
}

// couplings are system i's two coupling entries: v = -a at the slab's
// first row, the left separator's, and w = -c at its last, the right
// separator's. The first slab has no left separator and the last no
// right one, so there v or w is +0 and that coupling system is exactly
// zero — the elimination of an all-zero RHS yields bitwise zero, which
// is what makes the reduced system's boundary terms vanish without
// special cases.
func (r *slabRows[T]) couplings(i int) (v, w T) {
	lo, hi := r.span(i)
	if !r.first {
		v = -r.b.Lower[lo]
	}
	if !r.last {
		w = -r.b.Upper[hi-1]
	}
	return v, w
}

// rhs writes the right-hand side of the slab's local system q into dst
// (rows elements). Of the slab's 3M systems, which all share system
// q mod M's coefficients, u systems 0..M-1 carry the slab's rows of d,
// v systems M..2M-1 their left coupling in the first row and w systems
// 2M..3M-1 their right coupling in the last, every other entry +0.
func (r *slabRows[T]) rhs(q int, dst []T) {
	m := r.b.M
	lo, hi := r.span(q % m)
	if q < m {
		copy(dst, r.b.RHS[lo:hi])
		return
	}
	clear(dst)
	switch v, w := r.couplings(q % m); q / m {
	case 1:
		dst[0] = v
	default:
		dst[r.rows-1] = w
	}
}

// sum is the ABFT checksum of the slab's upload (sumParts): its rows
// of a, b, c and d, one plane after another, each in system order.
// verifiedUp takes it only on a corrupt delivery.
func (r *slabRows[T]) sum() float64 {
	var sum float64
	for _, plane := range [4][]T{r.b.Lower, r.b.Diag, r.b.Upper, r.b.RHS} {
		for i := 0; i < r.b.M; i++ {
			lo, hi := r.span(i)
			sum = sumParts(sum, plane[lo:hi])
		}
	}
	return sum
}

// slabKernel is the cached local reduce for one (topology device, slab
// length): the k = 0 p-Thomas launch over a slab's 3M systems of L rows
// — the u, v and w systems of slabRows.rhs — with its driver, built
// once so a reduce allocates nothing. It is the launch, class key and
// memo key a Pipeline over the same 3M×L batch builds (k0Launch), so
// the two share a recording and its Stats. Only a recording reads the
// interleaved planes the kernel coalesces over; bindRecording builds
// them from the bound slab and drops them after. Every solve computes
// its answer on the twin, which solves the slab's three systems per
// batch system from the caller's rows in place (twin).
//
// A kernel is driven by one goroutine at a time: runPhase runs each
// device's slabs sequentially, and hedges run after it on the calling
// goroutine.
type slabKernel[T num.Real] struct {
	drv     driver[T]
	launch  [1]launch
	m, rows int // batch systems M, slab length L

	// The solve's binding: the slab and its 3M·L solution, plane-major
	// like the systems. cp is the twin's c', one system's rows.
	slab slabRows[T]
	x    []T
	cp   []T

	// The kernel's arrays, bound only while a recording runs: the 3M
	// interleaved systems, c' and d'; the kernel writes x interleaved.
	iv   *matrix.Interleaved[T]
	bufs pthomas.Bufs[T]
}

// newSlabKernel builds the local reduce for slabs of rows rows of an
// m-system batch on dev.
func newSlabKernel[T num.Real](dev *gpusim.Device, m, rows int) *slabKernel[T] {
	k := &slabKernel[T]{m: m, rows: rows, cp: make([]T, rows)}
	var key recordKey
	k.launch[0], key = k0Launch(dev, &k.bufs, 3*m, rows, (&Config{}).c())
	k.drv = newDriver[T](dev, key, k, k.launch[:])
	return k
}

// solve runs the local reduce of slab into x: the driver records on
// the kernel's first use, then the twin runs. The twin asks the
// injector about the whole grid at attempt 0, as Device.Launch keys it:
// the distributed layer retries by migrating, never in place.
func (k *slabKernel[T]) solve(ctx context.Context, slab slabRows[T], x []T) error {
	k.slab, k.x = slab, x
	err := k.drv.run(ctx, func() (bool, error) {
		if _, le := k.drv.fault(0, x, nil); le != nil {
			return false, le
		}
		return false, k.twin(ctx)
	})
	k.slab, k.x = slabRows[T]{}, nil
	if err != nil && ctxErr(ctx) != nil {
		return cancelled(ctx.Err())
	}
	return err
}

// twin is the slab kernel's host twin: per batch system, one coupled
// Thomas (pthomas.SolveCoupledInto) over the slab's rows of the
// caller's batch solves its u, v and w systems into their rows of x,
// one c' chain and three d' chains, bit for bit the kernel's three
// threads. The context is checked between systems.
//
//tridlint:hotpath
func (k *slabKernel[T]) twin(ctx context.Context) error {
	r, x, m, L := &k.slab, k.x, k.m, k.rows
	b := r.b
	for i := 0; i < m; i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		lo, hi := r.span(i)
		v, w := r.couplings(i)
		u, vx, wx := i*L, (m+i)*L, (2*m+i)*L
		pthomas.SolveCoupledInto(b.Lower[lo:hi], b.Diag[lo:hi], b.Upper[lo:hi], b.RHS[lo:hi], v, w,
			x[u:u+L], x[vx:vx+L], x[wx:wx+L], k.cp)
	}
	return nil
}

// blockRows is where a block writes the bound solution: its systems'
// rows, as the twin lays them out.
func (k *slabKernel[T]) blockRows(_, blk int) (lo, hi, stride int) {
	return k0Rows(blk, k.launch[0].tpb, 3*k.m, k.rows)
}

// bindRecording builds the kernel's planes from the bound slab (on):
// system q of the 3M takes system q mod M's coefficients and
// slabRows.rhs's right-hand side, interleaved, with c' and d' planes
// beside them. off drops them; under the audit it first deinterleaves
// the kernel's x, through the RHS plane, to meet the twin's rows.
func (k *slabKernel[T]) bindRecording(on bool) {
	q, L := 3*k.m, k.rows
	if !on {
		if auditTwin {
			matrix.DeinterleaveVectorInto(k.iv.RHS, k.x, q, L)
			copy(k.x, k.iv.RHS)
		}
		k.iv, k.bufs = nil, pthomas.Bufs[T]{}
		return
	}
	iv, b, rhs := matrix.NewInterleaved[T](q, L), k.slab.b, make([]T, L)
	for sys := range q {
		lo, _ := k.slab.span(sys % k.m)
		k.slab.rhs(sys, rhs)
		for j := range L {
			at := j*q + sys
			iv.Lower[at], iv.Diag[at], iv.Upper[at], iv.RHS[at] = b.Lower[lo+j], b.Diag[lo+j], b.Upper[lo+j], rhs[j]
		}
	}
	k.iv = iv
	k.bufs = pthomas.NewBufs(iv.Lower, iv.Diag, iv.Upper, iv.RHS, make([]T, q*L), make([]T, q*L), k.x)
}

// outputs is the bound solution, which the audit compares.
func (k *slabKernel[T]) outputs() [][]T { return [][]T{k.x} }

// solveReduced assembles the reduced interface system from the
// separator rows and the slabs' interface scalars, solves each batch
// system's D-1 unknowns with the pivoting GTSV, writes the separator
// values into dst, and distributes them to the slabs' backsub inputs.
// A singular reduced system leaves NaN separators, so the answer's
// verdict, not this phase, decides what the system gets.
func (s *DistSolver[T]) solveReduced(b *matrix.Batch[T], dst []T) {
	d := s.part.NumSlabs()
	if d == 1 {
		clear(s.sepL[0])
		clear(s.sepR[0])
		return
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
		if cpu.SolveGTSVInto(&sys, s.redX[base:base+r], s.gtsvRed) != nil {
			fill(s.redX[base:base+r], T(math.NaN()))
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
		r := a.u.Load(t, idx) + T(a.v.Load(t, idx)*a.xl.Load(t, sys)) + T(a.w.Load(t, idx)*a.xr.Load(t, sys))
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
	restage := dev != sl.homeDev
	if restage {
		bytes += 3 * int64(m) * int64(L) * elem
	}
	up, err := s.verifiedUp(sl, dev, bytes, func() float64 {
		sum := sumParts(0, s.sepL[p], s.sepR[p])
		if restage {
			sum = sumParts(sum, s.slabX[p])
		}
		return sum
	})
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
	s.scatter(p)
	return nil
}

// backsubHost is the degraded back-substitution: the kernel's host
// twin, run unconditionally, then the slab's rows into the solution.
// No download sums these rows, so it sums them itself.
func (s *DistSolver[T]) backsubHost(sl *distSlab) error {
	if err := backsubRows(nil, &s.bsArgs[sl.idx]); err != nil {
		return err
	}
	sl.nonFinite = sl.nonFinite || !num.IsFinite(sumParts(0, s.slabOut[sl.idx]))
	s.scatter(sl.idx)
	return nil
}

// scatter copies slab p's back-substituted rows into the bound
// solution. Slabs own disjoint rows, so devices scatter concurrently.
func (s *DistSolver[T]) scatter(p int) {
	sl := s.part.Slabs[p]
	L := sl.Len()
	for i := 0; i < s.m; i++ {
		copy(s.dst[i*s.n+sl.Start:i*s.n+sl.End], s.slabOut[p][i*L:(i+1)*L])
	}
}
