package core

import (
	"context"
	"errors"
	"testing"

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
// 3×32768, the distributed solver's slab pipeline.
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

// TestContiguousK0HoldsNoPlanes checks that the contiguous k = 0
// pipeline builds its interleaved planes only for a recording: the
// recording pipeline drops them after its first solve, and a pipeline
// whose Stats come from the memo never builds them. The audit, which
// re-records on every run and may keep the planes, is off.
func TestContiguousK0HoldsNoPlanes(t *testing.T) {
	const m, n = 3, 4096
	auditTwin = false
	defer func() { auditTwin = true }()
	recordings := countRecordings(t, m, n)
	b := workload.Batch[float64](workload.DiagDominant, m, n, 7)
	dst := make([]float64, m*n)
	for _, name := range []string{"recording", "memo-hit"} {
		p, err := NewPipeline[float64](Config{K: 0}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.vbuf != nil {
			t.Fatalf("%s pipeline holds interleaved planes before its first solve", name)
		}
		if err := p.SolveInto(dst, b); err != nil {
			t.Fatal(err)
		}
		if got := recordings.Load(); got != 1 {
			t.Fatalf("after the %s pipeline's first solve: %d recordings, want 1", name, got)
		}
		if p.vbuf != nil || p.bufs.A.Data != nil {
			t.Errorf("%s pipeline holds interleaved planes after its first solve", name)
		}
		p.Close()
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
