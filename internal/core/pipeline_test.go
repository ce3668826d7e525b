package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// pipelineShapes covers both steady-state paths: k >= 1 (hybrid) and
// k = 0 (pure interleaved p-Thomas).
var pipelineShapes = []struct {
	name string
	cfg  Config
	m, n int
}{
	{"hybrid-kauto", Config{K: KAuto}, 16, 128},
	{"hybrid-k3-split", Config{K: 3, BlocksPerSystem: 2}, 4, 256},
	{"k0", Config{K: 0}, 32, 64},
}

// TestPipelineReuseMatchesSolve reuses one pipeline across many
// batches and requires bitwise identity with the one-shot Solve on
// every one of them — recorded first solve and replayed rest alike.
func TestPipelineReuseMatchesSolve(t *testing.T) {
	for _, tc := range pipelineShapes {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPipeline[float64](tc.cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			dst := make([]float64, tc.m*tc.n)
			for iter := 0; iter < 10; iter++ {
				b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, uint64(1000+iter))
				want, rep, err := Solve(tc.cfg, b)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.SolveInto(dst, b); err != nil {
					t.Fatal(err)
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("iter %d: dst[%d] = %v, Solve = %v (not bitwise identical)", iter, i, dst[i], want[i])
					}
				}
				got := p.Report()
				if *got.Stats != *rep.Stats {
					t.Fatalf("iter %d: replayed stats diverge from one-shot:\n got %+v\nwant %+v", iter, *got.Stats, *rep.Stats)
				}
				if got.K != rep.K || got.BlocksPerSystem != rep.BlocksPerSystem {
					t.Fatalf("iter %d: report shape diverges: got k=%d g=%d, want k=%d g=%d",
						iter, got.K, got.BlocksPerSystem, rep.K, rep.BlocksPerSystem)
				}
			}
		})
	}
}

// TestPipelineWorkersMatch runs the same batches through pipelines
// with different worker-pool sizes; sharding must not change a bit of
// the result.
func TestPipelineWorkersMatch(t *testing.T) {
	for _, tc := range pipelineShapes {
		t.Run(tc.name, func(t *testing.T) {
			cfg1, cfg4 := tc.cfg, tc.cfg
			cfg1.Workers = 1
			cfg4.Workers = 4
			p1, err := NewPipeline[float64](cfg1, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p1.Close()
			p4, err := NewPipeline[float64](cfg4, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p4.Close()
			x1 := make([]float64, tc.m*tc.n)
			x4 := make([]float64, tc.m*tc.n)
			for iter := 0; iter < 3; iter++ {
				b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, uint64(7+iter))
				if err := p1.SolveInto(x1, b); err != nil {
					t.Fatal(err)
				}
				if err := p4.SolveInto(x4, b); err != nil {
					t.Fatal(err)
				}
				for i := range x1 {
					if x1[i] != x4[i] {
						t.Fatalf("iter %d: workers=1 and workers=4 disagree at %d: %v vs %v", iter, i, x1[i], x4[i])
					}
				}
			}
		})
	}
}

// TestPipelineZeroAlloc is the tier-1 regression gate for the
// tentpole: a warmed pipeline must solve without a single heap
// allocation, on the single-lane and the multi-lane pool alike, through
// every entry — SolveInto, SolveIntoCtx under a cancellable context,
// and the interleaved-native SolveInterleavedInto.
func TestPipelineZeroAlloc(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 3} {
		for _, tc := range pipelineShapes {
			cfg := tc.cfg
			cfg.Workers = workers
			p, err := NewPipeline[float64](cfg, tc.m, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 42)
			v := b.ToInterleaved()
			dst := make([]float64, tc.m*tc.n)
			for _, entry := range []struct {
				name  string
				solve func() error
			}{
				{"SolveInto", func() error { return p.SolveInto(dst, b) }},
				{"SolveIntoCtx(WithCancel)", func() error { return p.SolveIntoCtx(ctx, dst, b) }},
				{"SolveInterleavedInto", func() error { return p.SolveInterleavedInto(dst, v) }},
			} {
				if err := entry.solve(); err != nil { // warm-up (the first one records)
					t.Fatal(err)
				}
				// The audit re-records, which allocates slot scratch.
				auditTwin = false
				allocs := testing.AllocsPerRun(10, func() {
					if err := entry.solve(); err != nil {
						t.Fatal(err)
					}
				})
				auditTwin = true
				if allocs != 0 {
					t.Errorf("%s workers=%d: %s allocates %.0f times per solve, want 0", tc.name, workers, entry.name, allocs)
				}
			}
			p.Close()
		}
	}
}

// TestContiguousK0ZeroAlloc pins the warm contiguous k = 0 solve, whose
// twin runs Thomas over the caller's rows, at zero allocations: at
// 1024×512, a Table III k = 0 batch over the worker pool, and at
// 3×32768, the shape of a 4-device distributed solve's slab.
func TestContiguousK0ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, sh := range []struct{ m, n int }{{1024, 512}, {3, 32768}} {
		p, err := NewPipeline[float64](Config{K: 0}, sh.m, sh.n)
		if err != nil {
			t.Fatal(err)
		}
		b := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 42)
		dst := make([]float64, sh.m*sh.n)
		if err := p.SolveInto(dst, b); err != nil { // warm-up (records or takes the memo's Stats)
			t.Fatal(err)
		}
		// The audit re-records, which allocates slot scratch.
		auditTwin = false
		allocs := testing.AllocsPerRun(5, func() {
			if err := p.SolveInto(dst, b); err != nil {
				t.Fatal(err)
			}
		})
		auditTwin = true
		p.Close()
		if allocs != 0 {
			t.Errorf("%dx%d: warm contiguous k = 0 solve allocates %.0f times, want 0", sh.m, sh.n, allocs)
		}
	}
}

// TestWarmPipelineHoldsNoKernelPlanes checks that a pipeline builds
// the M·N planes only the simulated kernels read for a recording alone:
// after its first solve, the pipeline that recorded and one whose Stats
// came from the memo hold no reduced plane, d' plane or interleaved
// input planes and bind no kernel array, and at k >= 1 hold no M·N c'
// either, only each worker's N rows. It runs k = 0 on both entries and
// k = 3, with 1 and 3 workers, and holds every solve to SolveReference
// bit for bit. The audit, which re-records on every run and keeps the
// planes, is off, so at k >= 1 this is the test that runs the twins
// over the workers' own scratch.
func TestWarmPipelineHoldsNoKernelPlanes(t *testing.T) {
	auditTwin = false
	defer func() { auditTwin = true }()
	for _, tc := range []struct {
		name        string
		m, n, k     int
		interleaved bool
	}{
		{"k0-contiguous", 3 * blockSizeK0, 48, 0, false},
		{"k0-interleaved", 3 * blockSizeK0, 48, 0, true},
		{"k3-contiguous", 7, 500, 3, false},
	} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				m, n := tc.m, tc.n
				recordings := countRecordings(t, m, n)
				b := workload.Batch[float64](workload.DiagDominant, m, n, 7)
				v := b.ToInterleaved()
				want := SolveReference(b, tc.k)
				got, xi := make([]float64, m*n), make([]float64, m*n)
				for _, name := range []string{"recording", "memo-hit"} {
					p, err := NewPipeline[float64](Config{K: tc.k, Workers: workers}, m, n)
					if err != nil {
						t.Fatal(err)
					}
					if p.K() != tc.k || p.Workers() != workers {
						t.Fatalf("pipeline resolved k = %d with %d workers, want k = %d with %d", p.K(), p.Workers(), tc.k, workers)
					}
					for solve := range 3 {
						if tc.interleaved {
							err = p.SolveInterleavedInto(xi, v)
							matrix.DeinterleaveVectorInto(got, xi, m, n)
						} else {
							err = p.SolveInto(got, b)
						}
						if err != nil {
							t.Fatal(err)
						}
						if i := firstDiff(want, got); i >= 0 {
							t.Fatalf("%s pipeline, solve %d: x[%d] = %v, SolveReference %v", name, solve, i, got[i], want[i])
						}
						if recs := recordings.Load(); recs != 1 {
							t.Fatalf("after the %s pipeline's solve %d: %d recordings, want 1", name, solve, recs)
						}
						if p.planes[0] != nil || p.vbuf != nil || p.bufs.A.Data != nil || p.bufs.Dp.Data != nil {
							t.Fatalf("%s pipeline holds kernel planes after solve %d", name, solve)
						}
						if p.k > 0 && p.cp != nil {
							t.Fatalf("%s pipeline holds an M·N c' plane at k = %d", name, p.k)
						}
					}
					p.Close()
				}
			})
		}
	}
}

// TestReplayRecordOnlyWhereARunFits pins that only a k >= 1 worker
// whose shard holds two systems or more allocates the replay record,
// so a one-system shard, such as a 1×524 288 solve's, gains nothing.
func TestReplayRecordOnlyWhereARunFits(t *testing.T) {
	p, err := NewPipeline[float64](Config{K: 3, Workers: 2}, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i, w := range p.workers {
		if got, want := w.tw.plan != nil, w.nSys >= 2; got != want || (w.tw.piv != nil) != want {
			t.Errorf("worker %d of %d systems: plan %v, pivots %v, want both %v", i, w.nSys, got, w.tw.piv != nil, want)
		}
	}
}

// TestPipelineMisuse checks the typed errors: wrong shapes, a busy
// pipeline, and a closed pipeline all reject the call without
// touching the arena.
func TestPipelineMisuse(t *testing.T) {
	p, err := NewPipeline[float64](Config{K: KAuto}, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 8*64)
	good := workload.Batch[float64](workload.DiagDominant, 8, 64, 1)

	if err := p.SolveInto(dst, workload.Batch[float64](workload.DiagDominant, 8, 32, 1)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong batch shape: got %v, want ErrShapeMismatch", err)
	}
	if err := p.SolveInto(dst[:17], good); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong dst length: got %v, want ErrShapeMismatch", err)
	}
	short := workload.Batch[float64](workload.DiagDominant, 8, 64, 1)
	short.Lower = short.Lower[:100]
	if err := p.SolveInto(dst, short); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("short batch slice: got %v, want ErrShapeMismatch", err)
	}

	p.inUse.Store(true)
	if err := p.SolveInto(dst, good); !errors.Is(err, ErrPipelineBusy) {
		t.Errorf("busy pipeline: got %v, want ErrPipelineBusy", err)
	}
	p.inUse.Store(false)
	if err := p.SolveInto(dst, good); err != nil {
		t.Errorf("pipeline unusable after rejected busy call: %v", err)
	}

	p.Close()
	p.Close() // idempotent
	if err := p.SolveInto(dst, good); !errors.Is(err, ErrPipelineClosed) {
		t.Errorf("closed pipeline: got %v, want ErrPipelineClosed", err)
	}
}
