package gpusim

import (
	"strings"
	"testing"
	"testing/quick"
)

func testDevice() *Device { return GTX480() }

func TestDeviceValidate(t *testing.T) {
	if err := testDevice().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testDevice()
	bad.NumSMs = 0
	if bad.Validate() == nil {
		t.Error("zero SMs accepted")
	}
	bad = testDevice()
	bad.GlobalBandwidth = 0
	if bad.Validate() == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = testDevice()
	bad.DPFlops = -1
	if bad.Validate() == nil {
		t.Error("negative flops accepted")
	}
}

func TestHardwareParallelism(t *testing.T) {
	d := testDevice()
	if got := d.HardwareParallelism(); got != 15*1536 {
		t.Errorf("P = %d, want %d", got, 15*1536)
	}
}

func TestOccupancyLimits(t *testing.T) {
	d := testDevice()
	// Thread-limited: 1024-thread blocks -> 1536/1024 = 1 per SM.
	if got := d.Occupancy(1024, 0); got != 1 {
		t.Errorf("occupancy(1024,0) = %d, want 1", got)
	}
	// Block-limited: tiny blocks capped at MaxBlocksPerSM.
	if got := d.Occupancy(32, 0); got != d.MaxBlocksPerSM {
		t.Errorf("occupancy(32,0) = %d, want %d", got, d.MaxBlocksPerSM)
	}
	// Shared-memory-limited: 24KB blocks -> 2 per SM.
	if got := d.Occupancy(64, 24*1024); got != 2 {
		t.Errorf("occupancy(64,24KB) = %d, want 2", got)
	}
	// Degenerate.
	if got := d.Occupancy(0, 0); got != 0 {
		t.Errorf("occupancy(0,0) = %d, want 0", got)
	}
}

func TestLaunchRejectsBadConfig(t *testing.T) {
	d := testDevice()
	if _, err := d.Launch("k", LaunchConfig{Grid: 0, Block: 32}, func(b *Block) {}); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := d.Launch("k", LaunchConfig{Grid: 1, Block: 2048}, func(b *Block) {}); err == nil {
		t.Error("oversized block accepted")
	}
}

func TestLaunchFunctional(t *testing.T) {
	d := testDevice()
	n := 1024
	in := make([]float64, n)
	out := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	gin, gout := NewGlobal(in), NewGlobal(out)
	blockSize := 128
	grid := n / blockSize
	st, err := d.Launch("scale", LaunchConfig{Grid: grid, Block: blockSize}, func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			i := b.ID*blockSize + th.ID
			gout.Store(th, i, 2*gin.Load(th, i))
			th.Flops(1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 2*float64(i) {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], 2*float64(i))
		}
	}
	if st.Flops != int64(n) {
		t.Errorf("flops = %d, want %d", st.Flops, n)
	}
	if st.Blocks != grid || st.ThreadsPerBlock != blockSize || st.Launches != 1 {
		t.Errorf("launch shape wrong: %+v", st)
	}
}

func TestCoalescingUnitStride(t *testing.T) {
	d := testDevice()
	n := 256 // 8 warps
	data := make([]float64, n)
	g := NewGlobal(data)
	st, err := d.Launch("load", LaunchConfig{Grid: 1, Block: n}, func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			g.Load(th, th.ID)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unit-stride float64: each 32-thread warp touches 32*8=256 bytes
	// = 2 transactions of 128B. 8 warps -> 16 transactions.
	if st.LoadTransactions != 16 {
		t.Errorf("unit-stride load transactions = %d, want 16", st.LoadTransactions)
	}
	if eff := st.LoadEfficiency(d.TransactionBytes); eff != 1 {
		t.Errorf("unit-stride efficiency = %g, want 1", eff)
	}
}

func TestCoalescingStrided(t *testing.T) {
	d := testDevice()
	n := 256
	stride := 16 // every access lands in its own 128B segment
	data := make([]float64, n*stride)
	g := NewGlobal(data)
	st, err := d.Launch("strided", LaunchConfig{Grid: 1, Block: n}, func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			g.Load(th, th.ID*stride)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadTransactions != int64(n) {
		t.Errorf("strided load transactions = %d, want %d", st.LoadTransactions, n)
	}
	if eff := st.LoadEfficiency(d.TransactionBytes); eff > 0.1 {
		t.Errorf("strided efficiency = %g, want <= 1/16", eff)
	}
}

func TestCoalescingBroadcast(t *testing.T) {
	// All threads of a warp reading the same element is one transaction.
	d := testDevice()
	data := make([]float64, 4)
	g := NewGlobal(data)
	st, err := d.Launch("bcast", LaunchConfig{Grid: 1, Block: 32}, func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			g.Load(th, 2)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadTransactions != 1 {
		t.Errorf("broadcast transactions = %d, want 1", st.LoadTransactions)
	}
}

func TestCoalescingSeparatesLoadsAndStores(t *testing.T) {
	d := testDevice()
	data := make([]float64, 64)
	g := NewGlobal(data)
	st, err := d.Launch("ldst", LaunchConfig{Grid: 1, Block: 32}, func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			v := g.Load(th, th.ID)
			g.Store(th, th.ID, v+1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadTransactions != 2 || st.StoreTransactions != 2 {
		t.Errorf("ld/st = %d/%d, want 2/2", st.LoadTransactions, st.StoreTransactions)
	}
}

func TestDistinctArraysDontShareTransactions(t *testing.T) {
	d := testDevice()
	a := NewGlobal(make([]float64, 32))
	b := NewGlobal(make([]float64, 32))
	st, err := d.Launch("two", LaunchConfig{Grid: 1, Block: 32}, func(blk *Block) {
		blk.PhaseNoSync(func(th *Thread) {
			a.Load(th, th.ID)
			b.Load(th, th.ID)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two arrays x 32 float64 = 2x256B = 4 transactions; if the arrays
	// shared addresses it could be fewer.
	if st.LoadTransactions != 4 {
		t.Errorf("transactions = %d, want 4", st.LoadTransactions)
	}
}

func TestPhaseBarrierCounting(t *testing.T) {
	d := testDevice()
	st, err := d.Launch("phases", LaunchConfig{Grid: 3, Block: 32}, func(b *Block) {
		b.Phase(func(th *Thread) {})
		b.Phase(func(th *Thread) {})
		b.PhaseNoSync(func(th *Thread) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Barriers != 3*2 {
		t.Errorf("barriers = %d, want 6", st.Barriers)
	}
	if st.Phases != 3*3 {
		t.Errorf("phases = %d, want 9", st.Phases)
	}
}

func TestPhaseOrderWithinBlock(t *testing.T) {
	// Writes in one phase must be visible in the next (barrier works).
	d := testDevice()
	n := 64
	out := make([]float64, n)
	g := NewGlobal(out)
	_, err := d.Launch("sync", LaunchConfig{Grid: 1, Block: n}, func(b *Block) {
		sh := NewShared[float64](b, n)
		b.Phase(func(th *Thread) {
			sh.Store(th.ID, float64(th.ID))
		})
		b.PhaseNoSync(func(th *Thread) {
			// Read a different thread's value: only correct after barrier.
			g.Store(th, th.ID, sh.Load((th.ID+1)%n))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out[i] != float64((i+1)%n) {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], float64((i+1)%n))
		}
	}
}

func TestSharedAllocationTracking(t *testing.T) {
	d := testDevice()
	st, err := d.Launch("smem", LaunchConfig{Grid: 2, Block: 32}, func(b *Block) {
		NewShared[float64](b, 100)
		NewShared[float32](b, 10)
		b.PhaseNoSync(func(th *Thread) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedPerBlock != 100*8+10*4 {
		t.Errorf("SharedPerBlock = %d, want %d", st.SharedPerBlock, 100*8+10*4)
	}
}

func TestSharedOverflowRejected(t *testing.T) {
	d := testDevice()
	_, err := d.Launch("big", LaunchConfig{Grid: 1, Block: 32}, func(b *Block) {
		NewShared[float64](b, 7000) // 56KB > 48KB
		b.PhaseNoSync(func(th *Thread) {})
	})
	if err == nil {
		t.Error("shared-memory overflow not reported")
	}
}

func TestEliminationCounting(t *testing.T) {
	d := testDevice()
	st, err := d.Launch("elim", LaunchConfig{Grid: 1, Block: 16}, func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			th.Eliminations(3)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Eliminations != 48 {
		t.Errorf("eliminations = %d, want 48", st.Eliminations)
	}
	if st.Flops != 48*FlopsPerElimination {
		t.Errorf("flops = %d, want %d", st.Flops, 48*FlopsPerElimination)
	}
}

func TestStatsAdd(t *testing.T) {
	a := &Stats{Kernel: "a", Launches: 1, Blocks: 4, ThreadsPerBlock: 64,
		LoadTransactions: 10, Eliminations: 5, Barriers: 2}
	b := &Stats{Kernel: "b", Launches: 2, Blocks: 8, ThreadsPerBlock: 32,
		LoadTransactions: 1, Eliminations: 7, Barriers: 1}
	a.Add(b)
	if a.Launches != 3 || a.Blocks != 8 || a.ThreadsPerBlock != 64 ||
		a.LoadTransactions != 11 || a.Eliminations != 12 || a.Barriers != 3 {
		t.Errorf("Add result wrong: %+v", a)
	}
	if !strings.Contains(a.Kernel, "a") || !strings.Contains(a.Kernel, "b") {
		t.Errorf("kernel name = %q", a.Kernel)
	}
}

// TestStatsAccumulateN checks that accumulating o with weight n equals
// n Accumulate calls, every field included, and that the launch-shape
// fields stay maxima rather than scaling.
func TestStatsAccumulateN(t *testing.T) {
	base := Stats{Kernel: "k", Launches: 1, Blocks: 2, ThreadsPerBlock: 32, SharedPerBlock: 100,
		LoadTransactions: 3, LoadedBytes: 24}
	o := Stats{Launches: 1, Blocks: 9, ThreadsPerBlock: 16, SharedPerBlock: 512,
		LoadTransactions: 5, StoreTransactions: 6, LoadedBytes: 7, StoredBytes: 8,
		SharedLoads: 9, SharedStores: 10, SharedBankConflicts: 11,
		Eliminations: 12, Flops: 13, Barriers: 14, Phases: 15}
	for _, n := range []int{1, 2, 7, 1000} {
		want, got := base, base
		for range n {
			want.Accumulate(&o)
		}
		got.AccumulateN(&o, n)
		if got != want {
			t.Errorf("AccumulateN(o, %d) = %+v, %d Accumulate calls give %+v", n, got, n, want)
		}
		if got.Blocks != 9 || got.ThreadsPerBlock != 32 || got.SharedPerBlock != 512 {
			t.Errorf("AccumulateN(o, %d) shape (%d, %d, %d), want the maxima (9, 32, 512)",
				n, got.Blocks, got.ThreadsPerBlock, got.SharedPerBlock)
		}
		if got.Flops != int64(n)*13 {
			t.Errorf("AccumulateN(o, %d).Flops = %d, want %d", n, got.Flops, n*13)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := &Stats{Kernel: "k"}
	if !strings.Contains(s.String(), "k:") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestEstimateTimePositiveAndMonotone(t *testing.T) {
	d := testDevice()
	small := &Stats{Launches: 1, Blocks: 4, ThreadsPerBlock: 128,
		LoadTransactions: 1000, StoreTransactions: 500, Flops: 100000}
	big := &Stats{Launches: 1, Blocks: 4, ThreadsPerBlock: 128,
		LoadTransactions: 100000, StoreTransactions: 50000, Flops: 10000000}
	ts, tb := d.EstimateTime(small, 8), d.EstimateTime(big, 8)
	if ts <= 0 || tb <= 0 {
		t.Fatalf("non-positive times %g %g", ts, tb)
	}
	if tb <= ts {
		t.Errorf("more work not slower: %g vs %g", tb, ts)
	}
}

func TestEstimateTimeSinglePrecisionFaster(t *testing.T) {
	d := testDevice()
	s := &Stats{Launches: 1, Blocks: 1000, ThreadsPerBlock: 256, Flops: 1e9}
	if d.EstimateTime(s, 4) >= d.EstimateTime(s, 8) {
		t.Error("single precision compute not faster than double")
	}
}

func TestEstimateTimeLatencyRegime(t *testing.T) {
	// Same total traffic spread over more blocks must not be slower:
	// more resident warps hide latency better.
	d := testDevice()
	few := &Stats{Launches: 1, Blocks: 1, ThreadsPerBlock: 64,
		LoadTransactions: 1 << 16}
	many := &Stats{Launches: 1, Blocks: 256, ThreadsPerBlock: 64,
		LoadTransactions: 1 << 16}
	tFew, tMany := d.EstimateTime(few, 8), d.EstimateTime(many, 8)
	if tMany > tFew {
		t.Errorf("parallelism made latency hiding worse: %g vs %g", tMany, tFew)
	}
	if tFew <= tMany {
		// With one resident block the kernel must be latency-bound and
		// strictly slower than the saturated case.
		if tFew == tMany {
			t.Errorf("latency regime not modeled: few=%g many=%g", tFew, tMany)
		}
	}
}

func TestEstimateTimeLaunchOverhead(t *testing.T) {
	d := testDevice()
	one := &Stats{Launches: 1, Blocks: 1, ThreadsPerBlock: 32}
	hundred := &Stats{Launches: 100, Blocks: 1, ThreadsPerBlock: 32}
	if d.EstimateTime(hundred, 8)-d.EstimateTime(one, 8) < 99*d.KernelLaunchOverhead*0.99 {
		t.Error("launch overhead not charged per launch")
	}
}

func TestEstimateTimeEmpty(t *testing.T) {
	d := testDevice()
	if got := d.EstimateTime(&Stats{Launches: 2}, 8); got != 2*d.KernelLaunchOverhead {
		t.Errorf("empty stats time = %g", got)
	}
}

func TestLaunchDeterministicStats(t *testing.T) {
	d := testDevice()
	run := func() *Stats {
		g := NewGlobal(make([]float64, 4096))
		st, err := d.Launch("det", LaunchConfig{Grid: 16, Block: 256}, func(b *Block) {
			b.Phase(func(th *Thread) {
				g.Load(th, b.ID*256+th.ID)
				th.Eliminations(2)
			})
			b.PhaseNoSync(func(th *Thread) {
				g.Store(th, b.ID*256+th.ID, 1)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.LoadTransactions != b.LoadTransactions || a.StoreTransactions != b.StoreTransactions ||
		a.Eliminations != b.Eliminations || a.Barriers != b.Barriers {
		t.Errorf("stats not deterministic: %+v vs %+v", a, b)
	}
}

func TestCoalescingProperty(t *testing.T) {
	// Property: for any unit-stride warp access of any width, the
	// transaction count is within 1 of the ideal bytes/128.
	d := testDevice()
	f := func(offRaw uint8) bool {
		off := int(offRaw % 64)
		g := NewGlobal(make([]float64, 1024))
		st, err := d.Launch("p", LaunchConfig{Grid: 1, Block: 32}, func(b *Block) {
			b.PhaseNoSync(func(th *Thread) {
				g.Load(th, off+th.ID)
			})
		})
		if err != nil {
			return false
		}
		ideal := int64(32 * 8 / 128)
		return st.LoadTransactions >= ideal && st.LoadTransactions <= ideal+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
