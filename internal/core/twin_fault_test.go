package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// firstAt returns the first block of [first, first+count) that inj
// faults for kernel at attempt, asking Injector.At block by block.
func firstAt(inj *gpusim.Injector, kernel string, first, count, attempt int) *gpusim.LaunchError {
	for id := first; id < first+count; id++ {
		if kind, ok := inj.At(kernel, id, attempt); ok {
			return &gpusim.LaunchError{Kernel: kernel, Block: id, Kind: kind, Attempt: attempt}
		}
	}
	return nil
}

// sameFault reports whether two fault reports agree: both nil, or
// equal *LaunchError values.
func sameFault(a, b *gpusim.LaunchError) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// TestTwinFaultCoordinates pins the coordinates the twins' fault checks
// stand on. For every audited geometry, the workers' shard ranges of
// each launch slot tile the recorded launch's grid [0, Blocks) exactly
// once, ascending with the worker index, and the slots follow the
// recorded launch order (the tiled-PCR grid, then the strided p-Thomas
// one). Over rate injectors of several seeds and attempts 0–2, the
// fault each shard reports is the first block the injector faults over
// those ranges, in launch order. distBacksub asks about exactly its
// grid [0, ceil(total/backsubThreads)).
func TestTwinFaultCoordinates(t *testing.T) {
	inj := func(seed uint64, rate float64) *gpusim.Injector {
		return &gpusim.Injector{Seed: seed, Rate: rate, Repeat: 2}
	}
	var faulted, clean int
	for _, sh := range auditShapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := sh.cfg
			cfg.Device = faultDevice(nil)
			p, err := NewPipeline[float64](cfg, sh.m, sh.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			b := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 3)
			dst := make([]float64, sh.m*sh.n)
			if err := p.SolveInto(dst, b); err != nil { // records
				t.Fatal(err)
			}
			if len(p.workers) < 2 {
				t.Fatalf("pipeline has %d workers, want >= 2", len(p.workers))
			}
			for slot := range p.launches[:p.nKern] {
				name := p.launches[slot].name
				if p.drv.kern[slot].Kernel != name {
					t.Fatalf("slot %d launches %q, recorded %q", slot, name, p.drv.kern[slot].Kernel)
				}
				next := 0
				for wi, w := range p.workers {
					first, count := p.shardRange(w, slot)
					if first != next || count < 0 {
						t.Fatalf("%s shard %d covers [%d, %d), want it to start at %d", name, wi, first, first+count, next)
					}
					next += count
				}
				if next != p.drv.kern[slot].Blocks {
					t.Fatalf("%s shards cover [0, %d), recorded grid has %d blocks", name, next, p.drv.kern[slot].Blocks)
				}
			}
			// Bind the solution as a solve does, so a faulted shard has
			// rows to poison.
			p.x = dst
			for seed := uint64(1); seed <= 6; seed++ {
				for _, rate := range []float64{0.05, 0.2, 0.6} {
					p.dev.Faults = inj(seed, rate)
					for attempt := 0; attempt <= 2; attempt++ {
						for wi, w := range p.workers {
							slot, twin := p.drv.fault(attempt, p.x, func(s int) (int, int) { return p.shardRange(w, s) })
							var want *gpusim.LaunchError
							wantSlot := 0
							for s := range p.launches[:p.nKern] {
								first, count := p.shardRange(w, s)
								if want = firstAt(p.dev.Faults, p.launches[s].name, first, count, attempt); want != nil {
									wantSlot = s
									break
								}
							}
							if !sameFault(twin, want) || (want != nil && slot != wantSlot) {
								t.Fatalf("seed %d rate %g attempt %d shard %d: twin reports %+v in slot %d, want %+v in slot %d",
									seed, rate, attempt, wi, twin, slot, want, wantSlot)
							}
							if want != nil {
								faulted++
							} else {
								clean++
							}
						}
					}
				}
			}
			p.dev.Faults = nil
		})
	}

	t.Run("distBacksub", func(t *testing.T) {
		const m, rows = 4, 1000
		total := m * rows
		grid := num.CeilDiv(total, backsubThreads)
		planes := make([][]float64, 6)
		for i := range planes {
			planes[i] = make([]float64, total)
			for j := range planes[i] {
				planes[i][j] = float64(i+1) + float64(j%7)/8
			}
		}
		a := &backsubArgs[float64]{
			u: gpusim.NewGlobal(planes[0]), v: gpusim.NewGlobal(planes[1]), w: gpusim.NewGlobal(planes[2]),
			xl: gpusim.NewGlobal(planes[3][:m]), xr: gpusim.NewGlobal(planes[4][:m]), out: gpusim.NewGlobal(planes[5]),
			total: total, rows: rows,
		}
		k := newBacksubKernel[float64](faultDevice(nil), m, rows)
		k.args = a
		twinFault := func(attempt int) *gpusim.LaunchError {
			_, le := k.drv.fault(attempt, a.out.Data, nil)
			return le
		}
		// The grid's last block is asked about, the one past it is not.
		for _, blk := range []int{0, grid - 1, grid} {
			k.drv.dev.Faults = &gpusim.Injector{Schedule: []gpusim.ScheduledFault{{Kernel: "distBacksub", Block: blk, Kind: gpusim.FaultAbort}}}
			got := twinFault(0)
			if (got != nil) != (blk < grid) || (got != nil && got.Block != blk) {
				t.Fatalf("fault scheduled at block %d of a %d-block grid: twin reports %+v", blk, grid, got)
			}
		}
		for seed := uint64(1); seed <= 6; seed++ {
			for _, rate := range []float64{0.02, 0.1, 0.4} {
				k.drv.dev.Faults = inj(seed, rate)
				for attempt := 0; attempt <= 2; attempt++ {
					twin := twinFault(attempt)
					want := firstAt(k.drv.dev.Faults, "distBacksub", 0, grid, attempt)
					if !sameFault(twin, want) {
						t.Fatalf("seed %d rate %g attempt %d: twin reports %+v, want %+v", seed, rate, attempt, twin, want)
					}
					if want != nil {
						faulted++
					} else {
						clean++
					}
				}
			}
		}
	})
	if faulted == 0 || clean == 0 {
		t.Fatalf("%d faulted and %d clean comparisons, want both kinds", faulted, clean)
	}
}

// TestTwinFaultIsLoud pins what a fault leaves behind when nothing
// repairs it: with no retry and no degradation, a scheduled abort,
// hang or corrupt fault on one block fails the solve with ErrFaulted,
// carrying that block's *LaunchError, and the block's solution rows
// are NaN while every other row is not. At k = 0 those are the block's
// systems' contiguous rows of the staged solution on the contiguous
// entry (dst stays untouched) and their interleaved columns on the
// interleaved entry. Faults strike the first solve, on top of the
// fault-free recording, and a warm one alike.
func TestTwinFaultIsLoud(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		m, n        int
		kernel      string
		block       int
		rows        func(m, n int) []int // the faulted block's rows of the bound solution
		interleaved bool                 // solve through the interleaved entry
	}{
		{"k0", Config{K: 0, Workers: 3}, 320, 64, "pThomas", 1,
			func(m, n int) []int { return span(128*n, 256*n) }, false},
		{"k0-interleaved", Config{K: 0, Workers: 3}, 320, 64, "pThomas", 1,
			func(m, n int) []int { return columns(m, n, 128, 256) }, true},
		{"k5-thomas", Config{K: 5, Workers: 3}, 7, 200, "pThomasStrided", 2,
			func(m, n int) []int { return span(2*n, 3*n) }, false},
		{"k3-pcr-slice", Config{K: 3, BlocksPerSystem: 3, Workers: 2}, 5, 301, "tiledPCR", 4,
			func(m, n int) []int { return span(n+101, n+202) }, false},
	}
	for _, tc := range cases {
		for _, kind := range []gpusim.FaultKind{gpusim.FaultAbort, gpusim.FaultHang, gpusim.FaultCorrupt} {
			for _, warm := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/warm=%v", tc.name, kind, warm), func(t *testing.T) {
					inj := &gpusim.Injector{Schedule: []gpusim.ScheduledFault{{Kernel: tc.kernel, Block: tc.block, Kind: kind}}}
					cfg := tc.cfg
					cfg.Retry = RetryPolicy{MaxRetries: -1, NoDegrade: true}
					cfg.Device = faultDevice(nil)
					p, err := NewPipeline[float64](cfg, tc.m, tc.n)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 11)
					v := b.ToInterleaved()
					dst := make([]float64, tc.m*tc.n)
					solve := func() error { return p.SolveInto(dst, b) }
					if tc.interleaved {
						solve = func() error { return p.SolveInterleavedInto(dst, v) }
					}
					if warm {
						if err := solve(); err != nil {
							t.Fatal(err)
						}
					}
					p.dev.Faults = inj
					err = solve()
					var le *gpusim.LaunchError
					if !errors.Is(err, ErrFaulted) || !errors.As(err, &le) {
						t.Fatalf("error = %v, want ErrFaulted carrying a *LaunchError", err)
					}
					want := gpusim.LaunchError{Kernel: tc.kernel, Block: tc.block, Kind: kind}
					if *le != want {
						t.Fatalf("LaunchError = %+v, want %+v", *le, want)
					}
					x := dst
					if p.k == 0 && !tc.interleaved {
						x = p.xi
					}
					poisoned := make([]bool, len(x))
					for _, i := range tc.rows(tc.m, tc.n) {
						poisoned[i] = true
					}
					for i, v := range x {
						if math.IsNaN(v) != poisoned[i] {
							t.Fatalf("row %d = %v: NaN %v, want %v", i, v, math.IsNaN(v), poisoned[i])
						}
					}
				})
			}
		}
	}
}

// span lists the indices [lo, hi).
func span(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// columns lists the interleaved indices of systems [lo, hi) of an
// m-system, n-row batch.
func columns(m, n, lo, hi int) []int {
	var s []int
	for j := 0; j < n; j++ {
		s = append(s, span(j*m+lo, j*m+hi)...)
	}
	return s
}

// TestFirstSolveExhaustionDegradesShard pins the first solve of a
// geometry under a schedule that outlasts the retry budget: the
// recording is fault-free, so only the faulted shard's systems degrade
// — the other shard's are bitwise the fault-free solution — and the
// recorded Stats equal a fault-free pipeline's.
func TestFirstSolveExhaustionDegradesShard(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cfg          Config
		m, n         int
		kernel       string
		block        int
		wantDegraded []int
	}{
		{"k3", Config{K: 3, Workers: 2}, 8, 256, "pThomasStrided", 1, []int{0, 1, 2, 3}},
		{"k0", Config{K: 0, Workers: 2}, 512, 64, "pThomas", 3, span(256, 512)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 13)
			clean, err := NewPipeline[float64](tc.cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()
			want := make([]float64, tc.m*tc.n)
			if err := clean.SolveInto(want, b); err != nil {
				t.Fatal(err)
			}

			cfg := tc.cfg
			cfg.Retry = RetryPolicy{MaxRetries: 1, BaseBackoff: 1}
			cfg.Device = faultDevice(&gpusim.Injector{Schedule: []gpusim.ScheduledFault{
				{Kernel: tc.kernel, Block: tc.block, Kind: gpusim.FaultAbort, Repeat: 1 << 30},
			}})
			p, err := NewPipeline[float64](cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if p.Workers() < 2 {
				t.Fatalf("pipeline has %d workers, want >= 2", p.Workers())
			}
			got := make([]float64, tc.m*tc.n)
			if err := p.SolveInto(got, b); err != nil {
				t.Fatal(err)
			}
			fr := p.Report().Faults
			if fmt.Sprint(fr.Degraded) != fmt.Sprint(tc.wantDegraded) {
				t.Fatalf("degraded systems %v, want the faulted shard's %v", fr.Degraded, tc.wantDegraded)
			}
			if *p.Report().Stats != *clean.Report().Stats {
				t.Fatalf("Stats %+v, fault-free pipeline's %+v", *p.Report().Stats, *clean.Report().Stats)
			}
			degraded := make([]bool, tc.m)
			for _, i := range fr.Degraded {
				degraded[i] = true
			}
			for i := 0; i < tc.m; i++ {
				lo, hi := i*tc.n, (i+1)*tc.n
				if !degraded[i] {
					if j := firstDiff(want[lo:hi], got[lo:hi]); j >= 0 {
						t.Fatalf("undegraded system %d row %d = %v, fault-free %v", i, j, got[lo+j], want[lo+j])
					}
				}
			}
			if res := matrix.MaxResidual(b, got); !(res <= matrix.ResidualTolerance[float64](tc.n)) {
				t.Fatalf("residual %.3e exceeds tolerance", res)
			}
		})
	}
}

// TestK0EntryFaultParity holds the two k = 0 entries to one fault
// behaviour. The contiguous entry's twin runs over the caller's rows
// and the interleaved one's over interleaved columns, but under the
// same rate injector (several seeds and rates, NoDegrade on and off)
// both must return the same *LaunchError and the same FaultReport,
// and their recovered solutions must agree bit for bit after
// re-layout, with the fault-free reference too. A solve that fails
// under NoDegrade leaves each entry's staged solution, poisoned rows
// included, equal after re-layout. The audit is off: its re-recording
// writes the kernel's interleaved solution into the contiguous staging,
// which a failed shard's unpoisoned systems keep.
func TestK0EntryFaultParity(t *testing.T) {
	auditTwin = false
	defer func() { auditTwin = true }()
	for _, sh := range auditShapes {
		if sh.cfg.K != 0 {
			continue
		}
		for _, noDegrade := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/NoDegrade=%v", sh.name, noDegrade), func(t *testing.T) {
				cfg := sh.cfg
				cfg.Retry = RetryPolicy{BaseBackoff: 1, NoDegrade: noDegrade}
				newPipe := func() *Pipeline[float64] {
					cfg.Device = faultDevice(nil)
					p, err := NewPipeline[float64](cfg, sh.m, sh.n)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { p.Close() })
					return p
				}
				pc, pi := newPipe(), newPipe()
				if pc.K() != 0 || pc.Workers() < 2 {
					t.Fatalf("pipeline has k = %d and %d workers, want k = 0 on several", pc.K(), pc.Workers())
				}
				b := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 29)
				v := b.ToInterleaved()
				want := SolveReference(b, 0)
				dst, xi, x := make([]float64, sh.m*sh.n), make([]float64, sh.m*sh.n), make([]float64, sh.m*sh.n)
				if err := pc.SolveInto(dst, b); err != nil {
					t.Fatal(err)
				}
				if err := pi.SolveInterleavedInto(xi, v); err != nil {
					t.Fatal(err)
				}
				var failed, degraded, recovered int
				for seed := uint64(1); seed <= 8; seed++ {
					for _, rate := range []float64{0.05, 0.3, 0.7} {
						// Repeat 1, 2 or 4 against the default budget of 3
						// retries: some faulted shards recover, some exhaust it.
						repeat := []int{1, 2, 4}[seed%3]
						inj := func() *gpusim.Injector { return &gpusim.Injector{Seed: seed, Rate: rate, Repeat: repeat} }
						pc.dev.Faults, pi.dev.Faults = inj(), inj()
						errC := pc.SolveInto(dst, b)
						errI := pi.SolveInterleavedInto(xi, v)
						var leC, leI *gpusim.LaunchError
						errors.As(errC, &leC)
						errors.As(errI, &leI)
						if (errC == nil) != (errI == nil) || !sameFault(leC, leI) {
							t.Fatalf("seed %d rate %g: contiguous error %v, interleaved error %v", seed, rate, errC, errI)
						}
						frC, frI := fmt.Sprintf("%+v", *pc.Report().Faults), fmt.Sprintf("%+v", *pi.Report().Faults)
						if frC != frI {
							t.Fatalf("seed %d rate %g: contiguous FaultReport %s, interleaved %s", seed, rate, frC, frI)
						}
						matrix.DeinterleaveVectorInto(x, xi, sh.m, sh.n)
						got := dst
						if errC != nil {
							if !errors.Is(errC, ErrFaulted) || leC == nil {
								t.Fatalf("seed %d rate %g: error %v, want ErrFaulted carrying a *LaunchError", seed, rate, errC)
							}
							failed++
							got = pc.xi // dst is untouched; the staging holds the poison
						} else {
							recovered++
							// Degraded systems come from the pivoting GTSV
							// re-solve; every other one is the reference's.
							fr := pc.Report().Faults
							if len(fr.Degraded) > 0 {
								degraded++
							}
							for i := 0; i < sh.m; i++ {
								lo, hi := i*sh.n, (i+1)*sh.n
								if j := firstDiff(want[lo:hi], dst[lo:hi]); j >= 0 && !slices.Contains(fr.Degraded, i) {
									t.Fatalf("seed %d rate %g: recovered system %d row %d = %v, reference %v", seed, rate, i, j, dst[lo+j], want[lo+j])
								}
							}
						}
						if i := firstDiff(x, got); i >= 0 {
							t.Fatalf("seed %d rate %g (error %v): contiguous x[%d] = %v, interleaved %v", seed, rate, errC, i, got[i], x[i])
						}
					}
				}
				t.Logf("%d recovered (%d degraded) and %d failed solves", recovered, degraded, failed)
				if recovered == 0 || noDegrade && failed == 0 || !noDegrade && degraded == 0 {
					t.Fatalf("%d recovered (%d degraded) and %d failed solves: the injectors miss an outcome", recovered, degraded, failed)
				}
			})
		}
	}
}
