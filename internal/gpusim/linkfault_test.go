package gpusim

import (
	"math"
	"sync"
	"testing"
)

// Two topologies with identically-seeded injectors must corrupt
// exactly the same transfers and charge the same stats for the same
// transfer sequence — the determinism contract everything downstream
// (bitwise replay, fuzzing) stands on.
func TestLinkInjectorDeterministic(t *testing.T) {
	type report struct {
		seconds float64
		corrupt bool
	}
	run := func() (CommStats, []report) {
		topo, err := UniformTopology(4, NVLinkMesh(), GTX480())
		if err != nil {
			t.Fatal(err)
		}
		topo.Links = &LinkInjector{Seed: 42, Rate: 0.3}
		var c CommStats
		var reps []report
		for i := 0; i < 75; i++ {
			secs, bad := topo.Transfer(&c, OpHostToDevice, -1, i%4, 1024)
			reps = append(reps, report{secs, bad})
			secs, bad = topo.Transfer(&c, OpDeviceToHost, (i+1)%4, -1, 4096)
			reps = append(reps, report{secs, bad})
		}
		return c, reps
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", c1, c2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("transfer %d: same seed, different report: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if c1.CorruptTransfers == 0 {
		t.Fatal("rate 0.3 over 150 transfers injected nothing")
	}
}

// A scheduled fault must hit exactly the pinned site and heal after its
// Repeat budget, and a corrupted transfer must cost what a clean one
// does.
func TestLinkInjectorScheduleAndCharges(t *testing.T) {
	topo, err := UniformTopology(2, PCIe2(), GTX480())
	if err != nil {
		t.Fatal(err)
	}
	topo.Links = &LinkInjector{
		Schedule: []ScheduledLinkFault{
			{Op: OpHostToDevice, From: MatchAny, To: 1, Index: 0},
			{Op: OpDeviceToHost, From: 0, To: MatchAny, Index: -1, Repeat: 2},
			{Op: OpDeviceToHost, From: 1, To: MatchAny, Index: 1},
		},
	}

	var c CommStats
	if _, bad := topo.Transfer(&c, OpHostToDevice, -1, 1, 100); !bad {
		t.Fatal("pinned corrupt fault did not fire")
	}
	if _, bad := topo.Transfer(&c, OpHostToDevice, -1, 1, 100); bad {
		t.Fatal("Index=0 fault fired again at seq 1")
	}
	if _, bad := topo.Transfer(&c, OpHostToDevice, -1, 0, 100); bad {
		t.Fatal("fault fired on unmatched endpoint")
	}

	clean := topo.Interconnect().Host.TransferTime(100)
	for seq := 0; seq < 2; seq++ {
		secs, bad := topo.Transfer(&c, OpDeviceToHost, 0, -1, 100)
		if !bad {
			t.Fatalf("Repeat=2 fault did not fire at seq %d", seq)
		}
		if secs != clean {
			t.Fatalf("corrupted download charged %g s, want the clean %g", secs, clean)
		}
	}
	if _, bad := topo.Transfer(&c, OpDeviceToHost, 0, -1, 100); bad {
		t.Fatal("Repeat=2 fault did not heal at seq 2")
	}
	if _, bad := topo.Transfer(&c, OpDeviceToHost, 1, -1, 100); bad {
		t.Fatal("Index=1 fault fired at seq 0")
	}
	if _, bad := topo.Transfer(&c, OpDeviceToHost, 1, -1, 100); !bad {
		t.Fatal("pinned Index=1 fault did not fire at seq 1")
	}

	if c.Transfers != 8 || c.HostBytes != 800 || c.CorruptTransfers != 4 {
		t.Fatalf("counters wrong: %+v", c)
	}
	if math.Abs(c.HostSeconds-8*clean) > 1e-15 {
		t.Fatalf("host seconds %g, want %g", c.HostSeconds, 8*clean)
	}
}

// A Transfer accumulator must receive exactly the traffic of its own
// transfers, even when concurrent solves hammer the shared topology:
// each worker's ledger equals the one a lone run of its transfers
// charges, bit for bit.
func TestTransferAccumulatorExactUnderConcurrency(t *testing.T) {
	topo, err := UniformTopology(4, NVLinkMesh(), GTX480())
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	accs := make([]CommStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				topo.Transfer(&accs[w], OpHostToDevice, -1, w%4, int64(100+w))
				topo.Transfer(&accs[w], OpDeviceToHost, w%4, -1, 64)
			}
		}(w)
	}
	wg.Wait()

	host := topo.Interconnect().Host
	for w, c := range accs {
		want := CommStats{Transfers: 2 * per, HostBytes: per * int64(100+w+64)}
		for i := 0; i < per; i++ {
			want.HostSeconds += host.TransferTime(int64(100 + w))
			want.HostSeconds += host.TransferTime(64)
		}
		if c != want {
			t.Fatalf("accumulator %d cross-charged:\ngot  %+v\nwant %+v", w, c, want)
		}
	}
}

// SlowFactor must scale EstimateTime uniformly and keep the
// EstimateBreakdown Total == EstimateTime contract exact.
func TestSlowFactorScalesEstimates(t *testing.T) {
	base := GTX480()
	slow := GTX480()
	slow.SlowFactor = 2.5

	s := &Stats{Launches: 3, Blocks: 64, ThreadsPerBlock: 128, Flops: 1 << 20,
		LoadTransactions: 1 << 12, LoadedBytes: 1 << 19,
		Barriers: 200, SharedLoads: 5000, SharedStores: 5000}
	t0 := base.EstimateTime(s, 8)
	t1 := slow.EstimateTime(s, 8)
	if math.Abs(t1-2.5*t0) > 1e-12*t0 {
		t.Fatalf("SlowFactor=2.5: time %g, want %g", t1, 2.5*t0)
	}
	for _, d := range []*Device{base, slow} {
		if bd := d.EstimateBreakdown(s, 8); bd.Total != d.EstimateTime(s, 8) {
			t.Fatalf("%s: breakdown total %g != estimate %g (SlowFactor=%g)",
				d.Name, bd.Total, d.EstimateTime(s, 8), d.SlowFactor)
		}
	}
	// No event, no error: the slowdown is silent by construction.
	if slow.Faults != nil {
		t.Fatal("slow device grew a fault injector")
	}
}
