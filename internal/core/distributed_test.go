package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputrid/internal/cpu"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

func distTopo(t *testing.T, n int, ic gpusim.Interconnect) *gpusim.Topology {
	t.Helper()
	topo, err := gpusim.UniformTopology(n, ic, gpusim.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func gtsvReference(t *testing.T, b *matrix.Batch[float64]) []float64 {
	t.Helper()
	ref := make([]float64, b.M*b.N)
	ws := cpu.NewGTSVWorkspace[float64](b.N)
	for i := 0; i < b.M; i++ {
		if err := cpu.SolveGTSVInto(b.System(i), ref[i*b.N:(i+1)*b.N], ws); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func maxRelErr(x, ref []float64) float64 {
	worst := 0.0
	for i := range x {
		denom := math.Abs(ref[i])
		if denom < 1 {
			denom = 1
		}
		if e := math.Abs(x[i]-ref[i]) / denom; e > worst {
			worst = e
		}
	}
	return worst
}

// TestDistributedMatchesReference checks the separator decomposition
// against the pivoting GTSV on a well-conditioned batch, across slab
// counts and both interconnect presets.
func TestDistributedMatchesReference(t *testing.T) {
	const m, n = 3, 257
	b := workload.Batch[float64](workload.DiagDominant, m, n, 42)
	ref := gtsvReference(t, b)
	for _, slabs := range []int{1, 2, 3, 4, 7} {
		topo := distTopo(t, 4, gpusim.NVLinkMesh())
		s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs}, m, n)
		if err != nil {
			t.Fatalf("slabs=%d: %v", slabs, err)
		}
		dst := make([]float64, m*n)
		rep, err := s.SolveInto(context.Background(), dst, b)
		if err != nil {
			t.Fatalf("slabs=%d: %v", slabs, err)
		}
		if e := maxRelErr(dst, ref); e > 1e-10 {
			t.Errorf("slabs=%d: max rel err %.3e vs GTSV reference", slabs, e)
		}
		if rep.Slabs != slabs || len(rep.Deaths) != 0 || len(rep.Degraded) != 0 {
			t.Errorf("slabs=%d: unexpected report %+v", slabs, rep)
		}
		if slabs > 1 && rep.Comm.TotalBytes() == 0 {
			t.Errorf("slabs=%d: no interconnect traffic charged", slabs)
		}
		if rep.ModeledPipelined > rep.ModeledSerial {
			t.Errorf("slabs=%d: pipelined makespan %v exceeds serial %v", slabs, rep.ModeledPipelined, rep.ModeledSerial)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistributedAssignmentInvariance pins the bitwise contract behind
// the recovery protocol: the partition is a function of (N, Slabs)
// only, so running all slabs on one device, on two, or on four
// produces bit-identical solutions — which is exactly why a migrated
// slab reproduces the fault-free bits.
func TestDistributedAssignmentInvariance(t *testing.T) {
	const m, n = 2, 131
	b := workload.Batch[float64](workload.DiagDominant, m, n, 7)
	topo := distTopo(t, 4, gpusim.PCIe2())
	s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: 4}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	solveOn := func(live []int) []float64 {
		dst := make([]float64, m*n)
		if _, err := s.SolveOn(context.Background(), dst, b, live); err != nil {
			t.Fatalf("live=%v: %v", live, err)
		}
		return dst
	}
	full := solveOn([]int{0, 1, 2, 3})
	for _, live := range [][]int{{0}, {2}, {1, 3}, {0, 1, 2}} {
		got := solveOn(live)
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("live=%v: element %d differs bitwise: %x vs %x",
					live, i, math.Float64bits(got[i]), math.Float64bits(full[i]))
			}
		}
	}
}

// TestDistributedDeviceDeath kills one device permanently mid-solve
// (its first pThomas launch and every retry abort) and requires: the
// solve completes, the result is bitwise identical to the fault-free
// run, the death surfaced exactly one HealthXID event before
// completion, and the report names the death and the migrations.
func TestDistributedDeviceDeath(t *testing.T) {
	const m, n = 2, 263
	const victim = 1
	b := workload.Batch[float64](workload.DiagDominant, m, n, 11)

	solve := func(kill bool) ([]float64, *DistReport, []gpusim.HealthEvent) {
		topo := distTopo(t, 3, gpusim.NVLinkMesh())
		if kill {
			topo.Device(victim).Faults = &gpusim.Injector{
				Schedule: []gpusim.ScheduledFault{{Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
			}
		}
		var (
			mu  sync.Mutex
			evs []gpusim.HealthEvent
		)
		s, err := NewDistSolver[float64](DistConfig{
			Topology: topo,
			Slabs:    3,
			Retry:    RetryPolicy{BaseBackoff: time.Microsecond},
			Health: func(ev gpusim.HealthEvent) {
				mu.Lock()
				evs = append(evs, ev)
				mu.Unlock()
			},
		}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dst := make([]float64, m*n)
		rep, err := s.SolveInto(context.Background(), dst, b)
		if err != nil {
			t.Fatalf("kill=%v: %v", kill, err)
		}
		return dst, rep, evs
	}

	clean, cleanRep, cleanEvs := solve(false)
	if len(cleanEvs) != 0 || len(cleanRep.Deaths) != 0 {
		t.Fatalf("fault-free run reported deaths: %+v, events %v", cleanRep, cleanEvs)
	}
	got, rep, evs := solve(true)
	for i := range got {
		if got[i] != clean[i] {
			t.Fatalf("element %d differs bitwise from fault-free run: %x vs %x",
				i, math.Float64bits(got[i]), math.Float64bits(clean[i]))
		}
	}
	if len(rep.Deaths) != 1 || rep.Deaths[0] != victim {
		t.Errorf("Deaths = %v, want [%d]", rep.Deaths, victim)
	}
	if rep.Migrations == 0 {
		t.Error("no migrations recorded for a mid-solve death")
	}
	if len(rep.Degraded) != 0 {
		t.Errorf("slabs degraded despite live survivors: %v", rep.Degraded)
	}
	if len(evs) != 1 {
		t.Fatalf("got %d health events, want exactly 1: %v", len(evs), evs)
	}
	if ev := evs[0]; ev.Kind != gpusim.HealthXID || ev.Device != victim {
		t.Errorf("health event = %+v, want XID on device %d", ev, victim)
	}
	for p, dev := range rep.Devices {
		if dev == victim {
			t.Errorf("slab %d still assigned to dead device %d", p, victim)
		}
	}
}

// TestDistributedBacksubDeath kills a device only at the distBacksub
// kernel, proving phase C is its own recoverable failure domain.
func TestDistributedBacksubDeath(t *testing.T) {
	const m, n = 2, 131
	b := workload.Batch[float64](workload.DiagDominant, m, n, 23)
	topo := distTopo(t, 2, gpusim.PCIe2())
	topo.Device(0).Faults = &gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kernel: "distBacksub", Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
	}
	deaths := 0
	s, err := NewDistSolver[float64](DistConfig{
		Topology: topo,
		Slabs:    2,
		Retry:    RetryPolicy{BaseBackoff: time.Microsecond},
		Health:   func(gpusim.HealthEvent) { deaths++ },
	}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := make([]float64, m*n)
	rep, err := s.SolveInto(context.Background(), dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if deaths != 1 || len(rep.Deaths) != 1 || rep.Deaths[0] != 0 {
		t.Errorf("backsub death not surfaced: deaths=%d report=%+v", deaths, rep)
	}
	ref := gtsvReference(t, b)
	if e := maxRelErr(dst, ref); e > 1e-10 {
		t.Errorf("max rel err %.3e after backsub migration", e)
	}
}

// TestDistributedBacksubCorruptFault corrupts distBacksub on device 0
// only from the second solve on, so the fault hits a back-substitution
// kernel that already recorded and now replays with recording off. The
// replay must still poison its stores and report the fault: the death
// is announced once, the slab migrates, and the answer is bitwise the
// fault-free one.
func TestDistributedBacksubCorruptFault(t *testing.T) {
	const m, n = 2, 263
	b := workload.Batch[float64](workload.DiagDominant, m, n, 29)
	topo := distTopo(t, 3, gpusim.NVLinkMesh())
	var armed atomic.Bool
	topo.Device(0).Faults = &gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kernel: "distBacksub", Kind: gpusim.FaultCorrupt, Repeat: 1 << 30}},
		Gate:     armed.Load,
	}
	var deaths atomic.Int32
	s, err := NewDistSolver[float64](DistConfig{
		Topology: topo,
		Slabs:    3,
		Retry:    RetryPolicy{BaseBackoff: time.Microsecond},
		Health:   func(gpusim.HealthEvent) { deaths.Add(1) },
	}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clean := make([]float64, m*n)
	if _, err := s.SolveInto(context.Background(), clean, b); err != nil {
		t.Fatal(err)
	}
	if k := s.backsubs[kernelKey{0, s.part.Slabs[0].Len()}]; k == nil || !k.drv.recorded {
		t.Fatal("device 0's back-substitution did not record on the fault-free solve")
	}

	armed.Store(true)
	dst := make([]float64, m*n)
	rep, err := s.SolveInto(context.Background(), dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if deaths.Load() != 1 || len(rep.Deaths) != 1 || rep.Deaths[0] != 0 {
		t.Fatalf("corrupt backsub death not surfaced once: deaths=%d report=%+v", deaths.Load(), rep)
	}
	if rep.Migrations == 0 || len(rep.Degraded) != 0 {
		t.Errorf("migrations=%d degraded=%v, want a migration and no degradation", rep.Migrations, rep.Degraded)
	}
	if rep.Devices[0] == 0 {
		t.Error("slab 0 still assigned to the dead device")
	}
	requireBitwise(t, dst, clean, "corrupt replayed backsub")
}

// TestDistFaultFreeNoBackoff pins the per-phase retry budget on the
// clean path: a slab's reduce attempt is not lost work in the
// back-substitution, so a fault-free solve sleeps no backoff and
// reports no retries. With a one-minute backoff, any sleep would run
// the solve into its deadline.
func TestDistFaultFreeNoBackoff(t *testing.T) {
	const m, n, devs = 4, 1025, 4
	b := workload.Batch[float64](workload.DiagDominant, m, n, 13)
	s, err := NewDistSolver[float64](DistConfig{
		Topology: distTopo(t, devs, gpusim.NVLinkMesh()),
		Slabs:    devs,
		Retry:    RetryPolicy{BaseBackoff: time.Minute, MaxBackoff: time.Minute},
	}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dst := make([]float64, m*n)
	rep, err := s.SolveInto(ctx, dst, b)
	if err != nil {
		t.Fatalf("fault-free solve: %v", err)
	}
	if rep.Retries != 0 || rep.Migrations != 0 || len(rep.Deaths) != 0 {
		t.Errorf("fault-free solve reports retries=%d migrations=%d deaths=%v, want none",
			rep.Retries, rep.Migrations, rep.Deaths)
	}
}

// TestDistributedBacksubFaultMigrationBudget kills one device in the
// back-substitution under a one-migration budget. The budget is per
// phase, so the slab's reduce attempt does not spend it: the slab must
// migrate, not degrade, and the answer must be bitwise the fault-free
// one.
func TestDistributedBacksubFaultMigrationBudget(t *testing.T) {
	const m, n, devs, victim = 2, 263, 3, 1
	b := workload.Batch[float64](workload.DiagDominant, m, n, 31)
	topo := distTopo(t, devs, gpusim.NVLinkMesh())
	var armed atomic.Bool
	topo.Device(victim).Faults = &gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kernel: "distBacksub", Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
		Gate:     armed.Load,
	}
	s, err := NewDistSolver[float64](DistConfig{
		Topology: topo,
		Slabs:    devs,
		Retry:    RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond},
	}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clean := make([]float64, m*n)
	if _, err := s.SolveInto(context.Background(), clean, b); err != nil {
		t.Fatal(err)
	}

	// Armed, the abort fires only on distBacksub: phase A runs clean
	// and the victim dies at its first back-substitution.
	armed.Store(true)
	dst := make([]float64, m*n)
	rep, err := s.SolveInto(context.Background(), dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deaths) != 1 || rep.Deaths[0] != victim {
		t.Fatalf("deaths = %v, want [%d]", rep.Deaths, victim)
	}
	if rep.Migrations != 1 || rep.Retries != 1 || len(rep.Degraded) != 0 {
		t.Errorf("migrations=%d retries=%d degraded=%v, want one migration, one retry, no degradation",
			rep.Migrations, rep.Retries, rep.Degraded)
	}
	if rep.Devices[victim] == victim {
		t.Errorf("slab %d still assigned to the dead device", victim)
	}
	requireBitwise(t, dst, clean, "backsub fault under a one-migration budget")
}

// TestDistSolveAfterCancel reuses a solver whose previous solve was
// cancelled mid-recovery: the per-solve state a cancelled round leaves
// behind must not leak into the next solve, which must match the
// fault-free answer bitwise.
func TestDistSolveAfterCancel(t *testing.T) {
	const m, n = 2, 131
	b := workload.Batch[float64](workload.DiagDominant, m, n, 3)
	topo := distTopo(t, 2, gpusim.PCIe2())
	var armed atomic.Bool
	topo.Device(0).Faults = &gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
		Gate:     armed.Load,
	}
	s, err := NewDistSolver[float64](DistConfig{
		Topology: topo,
		Slabs:    2,
		Retry:    RetryPolicy{MaxRetries: 10, BaseBackoff: time.Minute, MaxBackoff: time.Minute},
	}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clean := make([]float64, m*n)
	if _, err := s.SolveInto(context.Background(), clean, b); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	dst := make([]float64, m*n)
	if _, err := s.SolveInto(ctx, dst, b); !errors.Is(err, ErrCancelled) {
		t.Fatalf("solve parked in backoff = %v, want ErrCancelled", err)
	}

	armed.Store(false)
	rep, err := s.SolveInto(context.Background(), dst, b)
	if err != nil {
		t.Fatalf("solve after a cancelled one: %v", err)
	}
	if len(rep.Deaths) != 0 || rep.Retries != 0 || len(rep.Degraded) != 0 {
		t.Errorf("solve after a cancelled one reports deaths=%v retries=%d degraded=%v, want a clean solve",
			rep.Deaths, rep.Retries, rep.Degraded)
	}
	requireBitwise(t, dst, clean, "solve after a cancelled one")
}

// TestDistSteadyStateAllocs pins the distributed steady state: once a
// solver has recorded its slab kernels and back-substitution kernels,
// a warm solve allocates only its report (the report, its Devices and
// PerDevice slices), independent of N: runPhase starts each device
// through a closure bound once and waits on the solver's WaitGroup, and
// a fault-free solve never sums its uploads. It also replays bitwise
// the recording solve with its modeled numbers.
func TestDistSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const m, devs, slabs, maxAllocs = 4, 4, 4, 3
	for _, n := range []int{4097, 131073} {
		b := workload.Batch[float64](workload.DiagDominant, m, n, 5)
		s, err := NewDistSolver[float64](DistConfig{Topology: distTopo(t, devs, gpusim.NVLinkMesh()), Slabs: slabs}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, m*n)
		wantRep, err := s.SolveInto(context.Background(), want, b)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, m*n)
		// The audit re-records, which allocates slot scratch.
		auditTwin = false
		allocs := testing.AllocsPerRun(5, func() {
			rep, err := s.SolveInto(context.Background(), dst, b)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ModeledSerial != wantRep.ModeledSerial || rep.ModeledPipelined != wantRep.ModeledPipelined ||
				rep.Comm != wantRep.Comm {
				t.Fatalf("N=%d: warm solve modeled %v/%v comm %+v, recording solve %v/%v comm %+v", n,
					rep.ModeledSerial, rep.ModeledPipelined, rep.Comm,
					wantRep.ModeledSerial, wantRep.ModeledPipelined, wantRep.Comm)
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("N=%d: element %d differs bitwise from the recording solve: %x vs %x",
						n, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
			}
		})
		auditTwin = true
		if allocs > maxAllocs {
			t.Errorf("N=%d: warm SolveInto allocates %.0f times, want <= %d", n, allocs, maxAllocs)
		}
		t.Logf("N=%d: %.0f allocs per warm solve", n, allocs)
		s.Close()
	}
}

// TestSlabKernelRecordsAsPipeline pins that a distributed slab's local
// reduce is the k = 0 launch a Pipeline builds over the slab's 3M
// systems, which its recording replaced. For a middle slab of an
// M-system batch, with the memo emptied: the slab kernel's first solve
// records once, sampled; a NewPipeline(Config{}, 3M, L) over the
// replicated batch (slabRows.rhs's systems) then finds those Stats in
// the memo and records nothing, and solves to the slab kernel's bits;
// and the slab kernel's sampled and full recordings and the pipeline's
// published Stats each equal the pipeline's full recording field for
// field.
func TestSlabKernelRecordsAsPipeline(t *testing.T) {
	dev := gpusim.GTX480()
	for _, m := range []int{1, 4} {
		for _, L := range []int{1, 2, 257, 32768} {
			recs := countRecordings(t, 3*m, L)
			b := workload.Batch[float64](workload.DiagDominant, m, L+2, uint64(m*L))
			slab := slabRows[float64]{b: b, start: 1, rows: L}
			k := newSlabKernel[float64](dev, m, L)
			x := make([]float64, 3*m*L)
			if err := k.solve(nil, slab, x); err != nil {
				t.Fatalf("M=%d L=%d: slab kernel: %v", m, L, err)
			}
			if got := recs.Load(); got != 1 {
				t.Fatalf("M=%d L=%d: the slab kernel's first solve recorded %d times, want 1", m, L, got)
			}

			repl := matrix.NewBatch[float64](3*m, L)
			for q := range 3 * m {
				lo, hi := slab.span(q % m)
				copy(repl.Lower[q*L:], b.Lower[lo:hi])
				copy(repl.Diag[q*L:], b.Diag[lo:hi])
				copy(repl.Upper[q*L:], b.Upper[lo:hi])
				slab.rhs(q, repl.RHS[q*L:(q+1)*L])
			}
			p, err := NewPipeline[float64](Config{}, 3*m, L)
			if err != nil {
				t.Fatal(err)
			}
			px := make([]float64, 3*m*L)
			if err := p.SolveInto(px, repl); err != nil {
				t.Fatal(err)
			}
			if got := recs.Load(); got != 1 {
				t.Errorf("M=%d L=%d: the pipeline recorded again: its memo key is not the slab kernel's", m, L)
			}
			if i := firstDiff(px, x); i >= 0 {
				t.Errorf("M=%d L=%d: slab kernel x[%d] = %#x, pipeline %#x", m, L, i, num.Bits(x[i]), num.Bits(px[i]))
			}

			full, err := p.RecordFull(repl)
			if err != nil {
				t.Fatal(err)
			}
			p.Close()
			var kFull [1]gpusim.Stats
			k.slab, k.x = slab, x
			if err := k.drv.record(nil, kFull[:], true); err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]*gpusim.Stats{
				"slab sampled": &k.drv.kern[0], "slab full": &kFull[0], "pipeline published": p.Report().Kernels[0],
			} {
				if *got != full[0] {
					t.Errorf("M=%d L=%d: %s Stats\n%+v\nwant the pipeline's full recording\n%+v", m, L, name, *got, full[0])
				}
			}
		}
	}
}

// TestDistributedDegrade kills every device: with degradation allowed
// the solve must still complete (host pivoting GTSV) and report every
// slab degraded; with NoDegrade it must fail with ErrFaulted.
func TestDistributedDegrade(t *testing.T) {
	const m, n = 2, 67
	b := workload.Batch[float64](workload.DiagDominant, m, n, 31)
	ref := gtsvReference(t, b)
	build := func(noDegrade bool) *DistSolver[float64] {
		topo := distTopo(t, 2, gpusim.PCIe2())
		for i := 0; i < 2; i++ {
			topo.Device(i).Faults = &gpusim.Injector{
				Schedule: []gpusim.ScheduledFault{{Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
			}
		}
		s, err := NewDistSolver[float64](DistConfig{
			Topology: topo,
			Slabs:    2,
			Retry:    RetryPolicy{BaseBackoff: time.Microsecond, NoDegrade: noDegrade},
		}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := build(false)
	defer s.Close()
	dst := make([]float64, m*n)
	rep, err := s.SolveInto(context.Background(), dst, b)
	if err != nil {
		t.Fatalf("degradable solve failed: %v", err)
	}
	if len(rep.Degraded) != 2 || len(rep.Deaths) != 2 {
		t.Errorf("report = %+v, want both slabs degraded and both devices dead", rep)
	}
	if e := maxRelErr(dst, ref); e > 1e-10 {
		t.Errorf("degraded solve rel err %.3e", e)
	}

	hard := build(true)
	defer hard.Close()
	if _, err := hard.SolveInto(context.Background(), dst, b); !errors.Is(err, ErrFaulted) {
		t.Errorf("NoDegrade all-dead solve = %v, want ErrFaulted", err)
	}
}

// TestDistributedMisuse covers the input validation and single-flight
// contract.
func TestDistributedMisuse(t *testing.T) {
	const m, n = 2, 67
	topo := distTopo(t, 2, gpusim.PCIe2())
	if _, err := NewDistSolver[float64](DistConfig{}, m, n); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: 40}, m, n); err == nil {
		t.Error("over-wide partition accepted")
	}
	s, err := NewDistSolver[float64](DistConfig{Topology: topo}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	b := workload.Batch[float64](workload.DiagDominant, m, n, 1)
	dst := make([]float64, m*n)
	if _, err := s.SolveOn(context.Background(), dst, b, nil); !errors.Is(err, ErrNoLiveDevices) {
		t.Errorf("empty live set = %v, want ErrNoLiveDevices", err)
	}
	if _, err := s.SolveOn(context.Background(), dst, b, []int{5}); err == nil {
		t.Error("out-of-range live device accepted")
	}
	if _, err := s.SolveInto(context.Background(), dst[:1], b); !errors.Is(err, ErrShapeMismatch) {
		t.Error("short dst accepted")
	}
	wrong := workload.Batch[float64](workload.DiagDominant, m, n+1, 1)
	if _, err := s.SolveInto(context.Background(), make([]float64, m*(n+1)), wrong); !errors.Is(err, ErrShapeMismatch) {
		t.Error("wrong-shape batch accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
	if _, err := s.SolveInto(context.Background(), dst, b); !errors.Is(err, ErrDistClosed) {
		t.Errorf("solve after Close = %v, want ErrDistClosed", err)
	}
}

// TestDistributedCancellation parks a dying solve in its migration
// backoff and cancels it; the solve must return promptly with an error
// matching both ErrCancelled and the context error.
func TestDistributedCancellation(t *testing.T) {
	const m, n = 2, 131
	b := workload.Batch[float64](workload.DiagDominant, m, n, 3)
	topo := distTopo(t, 2, gpusim.PCIe2())
	topo.Device(0).Faults = &gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
	}
	s, err := NewDistSolver[float64](DistConfig{
		Topology: topo,
		Slabs:    2,
		Retry:    RetryPolicy{MaxRetries: 10, BaseBackoff: time.Second, MaxBackoff: time.Minute},
	}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	dst := make([]float64, m*n)
	start := time.Now()
	_, err = s.SolveOn(ctx, dst, b, []int{0, 1})
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return from backoff", el)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled solve = %v, want ErrCancelled and DeadlineExceeded", err)
	}
}
