package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gputrid"
	"gputrid/internal/core"
	"gputrid/internal/gpusim"
	"gputrid/internal/guard"
)

// DistResult is one fleet-served distributed solve: the solution plus
// the core layer's full recovery report and the fleet devices the
// solve started on.
type DistResult struct {
	// X is the solution, M contiguous N-row systems.
	X []float64
	// Report is the distributed solve's recovery report: final slab
	// assignment, deaths, migrations, degradations, interconnect
	// traffic, and modeled makespans.
	Report core.DistReport
	// Live is the (ascending) fleet device set the solve was launched
	// across — the servable devices at admission time. Devices that
	// died mid-solve are still listed here; Report.Deaths says which.
	Live []int
	// Rescued counts the systems the verdict re-solved on the host
	// pivoting path after the solve reported a non-finite answer.
	Rescued int
}

// distPlane is the fleet's simulated multi-device fabric and the
// shape-keyed distributed solvers over it. It is lazily built on the
// first SolveDistributed call so fleets that never serve huge-N
// requests pay nothing.
//
// The plane maps topology device i to fleet device i, one to one: a
// device death during a distributed solve surfaces as a HealthEvent
// whose Device is the fleet id, so the next Tick cordons exactly the
// failure domain that died — while the in-flight distributed solve
// completes on the survivors.
type distPlane struct {
	mu      sync.Mutex
	topo    *gpusim.Topology
	solvers map[[2]int]*distEntry
}

// distEntry serializes one shape's solver: DistSolver is single-flight
// (ErrDistBusy), so concurrent same-shape fleet requests queue on the
// entry mutex instead of failing.
type distEntry struct {
	mu sync.Mutex
	s  *core.DistSolver[float64]
}

// SolveDistributed solves one batch across every servable device's
// share of the simulated interconnect fabric, using separator-based
// domain decomposition (see core.DistSolver). The partition width is
// always Config.Devices — a pure function of the fleet size, never of
// which devices happen to be live — so the answer is bitwise identical
// whether the solve runs on the full fleet, a degraded remnant, or
// migrates slabs mid-solve after a device death.
//
// A device that dies mid-solve is reported to the fleet's health feed
// immediately (before its slab is migrated), so the next Tick cordons
// it while this solve is still completing on the survivors. The solve
// itself only fails when the caller's context ends, recovery is
// exhausted with NoDegrade semantics, or the input is unsolvable.
//
// The slab elimination never pivots, so a vanishing pivot turns into
// Inf/NaN. An answer the solve reports non-finite (DistReport.NonFinite)
// gets the pool's verdict: a rescued system carries the pool route's
// bits, and an unsolvable one fails the request with ErrUnrecoverable.
// A finite answer is not judged, so a healthy solve adds no pass.
func (f *Fleet) SolveDistributed(ctx context.Context, b *gputrid.Batch[float64]) (*DistResult, error) {
	live, err := f.admitDistributed(int64(b.M))
	if err != nil {
		return nil, err
	}
	defer f.inflightTotal.Add(-int64(b.M))

	ent, err := f.distEntry(b.M, b.N)
	if err != nil {
		f.rejected.Add(1)
		return nil, err
	}

	dst := make([]float64, b.M*b.N)
	ent.mu.Lock()
	rep, err := ent.s.SolveOn(ctx, dst, b, live)
	ent.mu.Unlock()
	if err != nil {
		f.rejected.Add(1)
		return nil, err
	}
	f.distSolves.Add(1)
	f.distDeaths.Add(uint64(len(rep.Deaths)))
	f.distMigrations.Add(uint64(rep.Migrations))
	f.distDegraded.Add(uint64(len(rep.Degraded)))
	f.distIntegrity.Add(uint64(rep.IntegrityRetries))
	f.distHedges.Add(uint64(rep.Hedges))
	f.distHedgeWins.Add(uint64(rep.HedgeWins))
	// Feed the gray-failure detector: silent stragglers and flaky
	// links leave no driver event, only statistical residue in these
	// reports.
	f.observeGray(rep)
	rescued := 0
	if rep.NonFinite {
		var errs []error
		guard.Judge(b.Strided(dst), b.M, nil, false, func(r guard.SystemReport) {
			if r.Err != nil {
				errs = append(errs, r.Err)
			} else if r.Stage == guard.StagePivot {
				rescued++
			}
		})
		if errs != nil {
			f.rejected.Add(1)
			return nil, fmt.Errorf("fleet: %w", errors.Join(errs...))
		}
	}
	f.served.Add(1)
	return &DistResult{X: dst, Report: *rep, Live: live, Rescued: rescued}, nil
}

// admitDistributed snapshots the servable device set and charges the
// request's weight (M systems) through pick's chargeLocked, so the
// autoscaler and stats see distributed load too.
func (f *Fleet) admitDistributed(weight int64) ([]int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrFleetClosed
	}
	var live []int
	for _, d := range f.devices {
		if d.state.servable() && d.backend != nil {
			live = append(live, d.id)
		}
	}
	if len(live) == 0 {
		f.noDevice.Add(1)
		return nil, ErrNoDevices
	}
	f.chargeLocked(weight)
	return live, nil
}

// distEntry returns the serialized distributed solver for a shape,
// building the simulation plane and the solver on first use.
func (f *Fleet) distEntry(m, n int) (*distEntry, error) {
	f.dist.mu.Lock()
	defer f.dist.mu.Unlock()
	if f.dist.topo == nil {
		topo := f.cfg.DistTopology
		if topo == nil {
			var err error
			topo, err = gpusim.UniformTopology(f.cfg.Devices, gpusim.NVLinkMesh(), gpusim.GTX480())
			if err != nil {
				return nil, err
			}
		}
		f.dist.topo = topo
		f.dist.solvers = make(map[[2]int]*distEntry)
	}
	key := [2]int{m, n}
	if ent, ok := f.dist.solvers[key]; ok {
		return ent, nil
	}
	s, err := core.NewDistSolver[float64](core.DistConfig{
		Topology: f.dist.topo,
		Slabs:    f.cfg.Devices,
		Hedge:    f.cfg.DistHedge,
		// Topology device i is fleet device i, so death events land on
		// the failure domain that died.
		Health: f.Inject,
	}, m, n)
	if err != nil {
		return nil, err
	}
	ent := &distEntry{s: s}
	f.dist.solvers[key] = ent
	return ent, nil
}

// closeDistributed tears down the shape-keyed distributed solvers.
func (f *Fleet) closeDistributed() {
	f.dist.mu.Lock()
	defer f.dist.mu.Unlock()
	for _, ent := range f.dist.solvers {
		ent.mu.Lock()
		_ = ent.s.Close()
		ent.mu.Unlock()
	}
	f.dist.solvers = nil
	f.dist.topo = nil
}
