package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// grayReference solves the batch on a clean single-purpose topology and
// returns the fault-free distributed solution.
func grayReference(t *testing.T, m, n, devs, slabs int, b *matrix.Batch[float64]) []float64 {
	t.Helper()
	topo := distTopo(t, devs, gpusim.NVLinkMesh())
	s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := make([]float64, m*n)
	if _, err := s.SolveInto(context.Background(), ref, b); err != nil {
		t.Fatal(err)
	}
	return ref
}

func requireBitwise(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x",
				label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestDistributedLinkCorruptionRecovered runs a solve over a link that
// silently corrupts a third of one device's transfers and requires the
// full gray-failure contract: every corruption is caught by the sum
// checks (the report counts them), nothing reaches the caller — the
// result is bitwise identical to the fault-free run — and no device is
// declared dead (the device plane is innocent).
func TestDistributedLinkCorruptionRecovered(t *testing.T) {
	const m, n, devs, slabs = 3, 257, 4, 4
	const victim = 2
	b := workload.Batch[float64](workload.DiagDominant, m, n, 42)
	ref := grayReference(t, m, n, devs, slabs, b)

	topo := distTopo(t, devs, gpusim.NVLinkMesh())
	topo.Links = &gpusim.LinkInjector{
		Seed:    7,
		Rate:    0.35,
		Devices: []int{victim},
	}
	s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := make([]float64, m*n)
	rep, err := s.SolveInto(context.Background(), dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) == 0 {
		requireBitwise(t, dst, ref, "corrupted-then-recovered solve")
	}
	if rep.Comm.CorruptTransfers == 0 {
		t.Fatal("injector corrupted nothing at rate 0.35 — test is vacuous")
	}
	if rep.IntegrityRetries == 0 {
		t.Fatal("corrupt transfers charged but no integrity retries recorded")
	}
	if len(rep.Deaths) != 0 {
		t.Fatalf("link corruption misclassified as device death: %v", rep.Deaths)
	}
	// The retries must be attributed to the flaky device's links.
	for _, o := range rep.PerDevice {
		if o.Device != victim && o.IntegrityRetries != 0 {
			t.Errorf("device %d charged %d integrity retries; only %d has a flaky link",
				o.Device, o.IntegrityRetries, victim)
		}
	}
	// Accuracy holds regardless of degradation.
	if e := maxRelErr(dst, gtsvReference(t, b)); e > 1e-9 {
		t.Fatalf("recovered solve lost accuracy: max rel err %.3e", e)
	}
}

// TestDistCommReproducible repeats one 4-device solve over links that
// corrupt transfers on every device: each run must report the same
// traffic bit for bit, link-seconds of the re-exchanges included,
// although the devices charge it from concurrent goroutines.
func TestDistCommReproducible(t *testing.T) {
	const m, n, devs, slabs, runs = 3, 257, 4, 8, 20
	b := workload.Batch[float64](workload.DiagDominant, m, n, 9)
	dst := make([]float64, m*n)
	var want gpusim.CommStats
	for r := 0; r < runs; r++ {
		// A fresh topology per run: every run draws the same fault sites.
		topo := distTopo(t, devs, gpusim.NVLinkMesh())
		topo.Links = &gpusim.LinkInjector{Seed: 3, Rate: 0.3}
		s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.SolveInto(context.Background(), dst, b)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			want = rep.Comm
			if want.CorruptTransfers == 0 {
				t.Fatalf("no transfer corrupted — test is vacuous: %+v", want)
			}
			continue
		}
		if rep.Comm != want {
			t.Fatalf("run %d: Comm %+v, first run %+v", r, rep.Comm, want)
		}
	}
}

// TestDistributedLinkIntegrityDegrade pins the last rung of the
// escalation ladder: a link that corrupts every transfer to one device
// exhausts re-exchange and re-solve, and the slabs fall back to the
// host path — degraded and reported, never wrong, and never treated as
// a device death.
func TestDistributedLinkIntegrityDegrade(t *testing.T) {
	const m, n, devs, slabs = 2, 131, 2, 2
	const victim = 1
	b := workload.Batch[float64](workload.DiagDominant, m, n, 9)

	topo := distTopo(t, devs, gpusim.NVLinkMesh())
	topo.Links = &gpusim.LinkInjector{
		Schedule: []gpusim.ScheduledLinkFault{{
			Op: -1, From: gpusim.MatchAny, To: victim,
			Index: -1, Repeat: 1 << 30,
		}, {
			Op: -1, From: victim, To: gpusim.MatchAny,
			Index: -1, Repeat: 1 << 30,
		}},
	}
	s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := make([]float64, m*n)
	rep, err := s.SolveInto(context.Background(), dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) == 0 {
		t.Fatalf("permanently corrupt link did not degrade any slab: %+v", rep)
	}
	if len(rep.Deaths) != 0 {
		t.Fatalf("link corruption killed a device: %v", rep.Deaths)
	}
	for _, v := range dst {
		if math.IsNaN(v) {
			t.Fatal("poisoned payload escaped to the caller")
		}
	}
	if e := maxRelErr(dst, gtsvReference(t, b)); e > 1e-9 {
		t.Fatalf("degraded solve lost accuracy: max rel err %.3e", e)
	}

	// Under NoDegrade the same link fails the solve loudly instead.
	s2, err := NewDistSolver[float64](DistConfig{
		Topology: topo, Slabs: slabs,
		Retry: RetryPolicy{NoDegrade: true},
	}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.SolveInto(context.Background(), dst, b); !errors.Is(err, ErrFaulted) {
		t.Fatalf("NoDegrade integrity exhaustion returned %v, want ErrFaulted", err)
	}
}

// TestDistributedBlindUploadVerdict pins the blind branch of the
// upload check. Every device's first two uploads arrive corrupt. A
// batch with a NaN right-hand-side entry in slab 0 (device 0) makes
// that slab's coefficient upload and, through the NaN separator it
// produces, its separator upload sum to NaN: the check is blind, so
// each goes once, unverified, and device 0 is charged no integrity
// retry, while device 1's finite reduce upload re-exchanges twice. The
// report matches the one an eagerly summed upload gave, numbers
// pinned. Under the same schedule a finite batch retries every upload
// and recovers bit for bit.
func TestDistributedBlindUploadVerdict(t *testing.T) {
	const m, n, devs, slabs = 2, 129, 2, 2
	corruptUploads := func() *gpusim.Topology {
		topo := distTopo(t, devs, gpusim.NVLinkMesh())
		topo.Links = &gpusim.LinkInjector{Schedule: []gpusim.ScheduledLinkFault{{
			Op: gpusim.OpHostToDevice, From: gpusim.MatchAny, To: gpusim.MatchAny,
			Index: -1, Repeat: 2,
		}}}
		return topo
	}
	solve := func(topo *gpusim.Topology, b *matrix.Batch[float64]) (*DistReport, []float64) {
		s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dst := make([]float64, m*n)
		rep, err := s.SolveInto(context.Background(), dst, b)
		if err != nil {
			t.Fatal(err)
		}
		return rep, dst
	}
	retries := func(rep *DistReport) (per [devs]int) {
		for _, o := range rep.PerDevice {
			per[o.Device] = o.IntegrityRetries
		}
		return per
	}

	nan := workload.Batch[float64](workload.DiagDominant, m, n, 21)
	nan.RHS[5] = math.NaN() // system 0, slab 0
	cleanRep, cleanX := solve(distTopo(t, devs, gpusim.NVLinkMesh()), nan)
	rep, x := solve(corruptUploads(), nan)
	requireBitwise(t, x, cleanX, "blind-upload solve")
	// Device 0's two uploads went once each; device 1's reduce upload
	// took two re-exchanges, so two transfers more than the fault-free
	// solve's.
	if got, want := rep.Comm.Transfers, cleanRep.Comm.Transfers+2; got != want {
		t.Errorf("blind-upload solve made %d transfers, want %d", got, want)
	}
	if rep.Comm.CorruptTransfers != 4 || rep.IntegrityRetries != 2 || retries(rep) != [devs]int{0, 2} {
		t.Errorf("blind-upload solve: %d corrupt transfers, %d integrity retries (per device %v), want 4, 2 ([0 2])",
			rep.Comm.CorruptTransfers, rep.IntegrityRetries, retries(rep))
	}
	if rep.Comm.Transfers != 10 || rep.ModeledSerial != 50125 || rep.ModeledPipelined != 50125 ||
		rep.Comm.HostBytes != 18688 {
		t.Errorf("blind-upload solve: %d transfers, modeled %d/%d ns, %d host bytes; want 10, 50125/50125 ns, 18688",
			rep.Comm.Transfers, rep.ModeledSerial, rep.ModeledPipelined, rep.Comm.HostBytes)
	}

	fin := workload.Batch[float64](workload.DiagDominant, m, n, 21)
	ref := grayReference(t, m, n, devs, slabs, fin)
	frep, fx := solve(corruptUploads(), fin)
	requireBitwise(t, fx, ref, "finite batch over corrupting uploads")
	if frep.Comm.Transfers != 12 || frep.Comm.CorruptTransfers != 4 || retries(frep) != [devs]int{2, 2} {
		t.Errorf("finite batch: %d transfers, %d corrupt, integrity retries per device %v; want 12, 4, [2 2]",
			frep.Comm.Transfers, frep.Comm.CorruptTransfers, retries(frep))
	}
}

// TestDistributedHedging puts a silent straggler (SlowFactor, no
// health event, no launch error) in the topology and requires hedging
// to notice it: outlier slabs are speculatively re-run on a survivor,
// wins are adopted, the straggler's observation records the hedges,
// and the result stays bitwise identical to the fault-free run.
func TestDistributedHedging(t *testing.T) {
	const m, n, devs, slabs = 2, 257, 4, 4
	const straggler = 1
	b := workload.Batch[float64](workload.DiagDominant, m, n, 13)
	ref := grayReference(t, m, n, devs, slabs, b)

	solve := func(hedge HedgePolicy) (*DistReport, []float64) {
		topo := distTopo(t, devs, gpusim.NVLinkMesh())
		topo.Device(straggler).SlowFactor = 20
		s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs, Hedge: hedge}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dst := make([]float64, m*n)
		rep, err := s.SolveInto(context.Background(), dst, b)
		if err != nil {
			t.Fatal(err)
		}
		return rep, dst
	}

	rep, dst := solve(HedgePolicy{})
	requireBitwise(t, dst, ref, "hedged solve")
	if rep.Hedges == 0 || rep.HedgeWins == 0 {
		t.Fatalf("20x straggler triggered no hedge wins: %+v", rep)
	}
	hedged := 0
	for _, o := range rep.PerDevice {
		if o.Device == straggler {
			hedged = o.Hedged
		}
	}
	if hedged == 0 {
		t.Fatalf("straggler observation records no hedged-away slabs: %+v", rep.PerDevice)
	}
	off, dstOff := solve(HedgePolicy{Disable: true})
	requireBitwise(t, dstOff, ref, "hedging-disabled solve")
	if off.Hedges != 0 {
		t.Fatalf("Disable did not disable hedging: %+v", off)
	}
	if rep.ModeledPipelined >= off.ModeledPipelined {
		t.Fatalf("hedging did not improve the modeled makespan: %v (hedged) vs %v (unhedged)",
			rep.ModeledPipelined, off.ModeledPipelined)
	}
}

// TestHedgeCancellationSettles is the goroutine-settle test for hedged
// execution: a hedge runs on the solving goroutine, and no goroutine
// outlives the solve — both when the speculative run simply loses
// (winner already verified) and when the solve's context is cancelled
// mid-hedge, which must return ErrCancelled.
func TestHedgeCancellationSettles(t *testing.T) {
	const m, n, devs, slabs = 2, 257, 4, 4
	const straggler = 0
	b := workload.Batch[float64](workload.DiagDominant, m, n, 17)
	base := runtime.NumGoroutine()

	build := func() *DistSolver[float64] {
		topo := distTopo(t, devs, gpusim.NVLinkMesh())
		topo.Device(straggler).SlowFactor = 20
		s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: slabs}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Case 1: the winner is already verified when the hedge completes;
	// the speculative run loses and the solve returns.
	s := build()
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHookHedgeStart = func() {
		entered <- struct{}{}
		<-release
	}
	done := make(chan error, 1)
	dst := make([]float64, m*n)
	go func() {
		_, err := s.SolveInto(context.Background(), dst, b)
		done <- err
	}()
	<-entered // the solve is parked at the start of a hedge
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Case 2: the context dies mid-hedge; the speculative run is
	// cancelled and counted before SolveOn returns.
	s2 := build()
	entered2 := make(chan struct{}, 8)
	release2 := make(chan struct{})
	s2.testHookHedgeStart = func() {
		entered2 <- struct{}{}
		<-release2
	}
	ctx, cancel := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		_, err := s2.SolveInto(ctx, dst, b)
		done2 <- err
	}()
	<-entered2
	cancel()        // solve is now cancelled while the hedge is in flight
	close(release2) // let the speculative run observe it
	err := <-done2
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled mid-hedge returned %v, want ErrCancelled", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}

// TestDistCommScopeConcurrentSolves pins per-solve comm accounting:
// two solvers sharing one topology solve in parallel, and each report
// must charge exactly its own traffic, never the bytes the other solve
// moves meanwhile. Byte counts are deterministic per solver, so exact
// equality against a solo run is required.
func TestDistCommScopeConcurrentSolves(t *testing.T) {
	const devs = 4
	shapes := []struct{ m, n, slabs int }{
		{2, 257, 4},
		{3, 193, 3},
	}
	solo := make([]gpusim.CommStats, len(shapes))
	for i, sh := range shapes {
		topo := distTopo(t, devs, gpusim.NVLinkMesh())
		s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: sh.slabs}, sh.m, sh.n)
		if err != nil {
			t.Fatal(err)
		}
		b := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, uint64(i)+1)
		dst := make([]float64, sh.m*sh.n)
		rep, err := s.SolveInto(context.Background(), dst, b)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rep.Comm
		s.Close()
	}

	// Same solves, now racing on one shared topology, many rounds.
	shared := distTopo(t, devs, gpusim.NVLinkMesh())
	solvers := make([]*DistSolver[float64], len(shapes))
	for i, sh := range shapes {
		s, err := NewDistSolver[float64](DistConfig{Topology: shared, Slabs: sh.slabs}, sh.m, sh.n)
		if err != nil {
			t.Fatal(err)
		}
		solvers[i] = s
		defer s.Close()
	}
	const rounds = 5
	var wg sync.WaitGroup
	errs := make([]error, len(shapes))
	for i, sh := range shapes {
		wg.Add(1)
		go func(i int, m, n int) {
			defer wg.Done()
			b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(i)+1)
			dst := make([]float64, m*n)
			for r := 0; r < rounds; r++ {
				rep, err := solvers[i].SolveInto(context.Background(), dst, b)
				if err != nil {
					errs[i] = err
					return
				}
				if rep.Comm.TotalBytes() != solo[i].TotalBytes() ||
					rep.Comm.Transfers != solo[i].Transfers ||
					rep.Comm.HostBytes != solo[i].HostBytes {
					errs[i] = fmt.Errorf("shape %d round %d: comm cross-charged: got %+v want %+v",
						i, r, rep.Comm, solo[i])
					return
				}
			}
		}(i, sh.m, sh.n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzLinkFaultSchedule fuzzes the gray-failure plane end to end: any
// (seed, rate, victim) configuration must (a) reproduce exactly
// the same fault sites and charges on a second identically-seeded run,
// and (b) never let a corrupted transfer escape — the solve either
// matches the fault-free run bitwise or reports the slabs it degraded.
func FuzzLinkFaultSchedule(f *testing.F) {
	f.Add(uint64(1), 0.2, uint8(0))
	f.Add(uint64(42), 0.9, uint8(3))
	f.Add(uint64(7), 0.05, uint8(2))
	f.Add(uint64(999), 0.5, uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, rate float64, victim uint8) {
		const m, n, devs, slabs = 2, 131, 4, 4
		if rate < 0 || rate > 1 || rate != rate {
			t.Skip()
		}
		b := workload.Batch[float64](workload.DiagDominant, m, n, seed%1000+1)

		run := func() (*DistReport, []float64) {
			topo, err := gpusim.UniformTopology(devs, gpusim.NVLinkMesh(), gpusim.GTX480())
			if err != nil {
				t.Fatal(err)
			}
			topo.Links = &gpusim.LinkInjector{
				Seed: seed, Rate: rate,
				Devices: []int{int(victim) % devs},
			}
			s, err := NewDistSolver[float64](DistConfig{
				Topology: topo, Slabs: slabs,
				Hedge: HedgePolicy{Disable: true}, // keep modeled times comparable across runs
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
			return rep, dst
		}

		r1, x1 := run()
		r2, x2 := run()
		// Each report's ledger sums its slabs in slab order, so an
		// identically-seeded run charges the same bits, seconds included.
		if r1.Comm != r2.Comm {
			t.Fatalf("same seed, different comm stats:\n%+v\n%+v", r1.Comm, r2.Comm)
		}
		if r1.IntegrityRetries != r2.IntegrityRetries || r1.SlabResolves != r2.SlabResolves ||
			len(r1.Degraded) != len(r2.Degraded) {
			t.Fatalf("same seed, different recovery: %+v vs %+v", r1, r2)
		}
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("same seed, element %d differs bitwise", i)
			}
		}

		// Against fault-free: bitwise when nothing degraded; accurate
		// regardless; never NaN.
		for i, v := range x1 {
			if math.IsNaN(v) {
				t.Fatalf("corruption escaped: NaN at %d", i)
			}
		}
		if len(r1.Degraded) == 0 {
			topo, err := gpusim.UniformTopology(devs, gpusim.NVLinkMesh(), gpusim.GTX480())
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewDistSolver[float64](DistConfig{
				Topology: topo, Slabs: slabs, Hedge: HedgePolicy{Disable: true},
			}, m, n)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ref := make([]float64, m*n)
			if _, err := s.SolveInto(context.Background(), ref, b); err != nil {
				t.Fatal(err)
			}
			for i := range x1 {
				if x1[i] != ref[i] {
					t.Fatalf("recovered solve differs bitwise from fault-free at %d", i)
				}
			}
		}
	})
}
