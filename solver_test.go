package gputrid

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"gputrid/internal/workload"
)

// solverShapes covers both steady-state pipeline paths.
var solverShapes = []struct {
	name string
	opts []Option
	m, n int
}{
	{"hybrid-kauto", nil, 16, 128},
	{"k0", []Option{WithK(0)}, 32, 64},
}

// TestSolverReuseMatchesOneShot reuses one Solver across 100 distinct
// batches and requires bitwise identity with a one-shot SolveBatch on
// every one — the Solver's first solve and the replayed rest alike.
func TestSolverReuseMatchesOneShot(t *testing.T) {
	for _, tc := range solverShapes {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver[float64](tc.m, tc.n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			dst := make([]float64, tc.m*tc.n)
			for iter := 0; iter < 100; iter++ {
				b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, uint64(iter))
				if err := s.SolveBatchInto(dst, b); err != nil {
					t.Fatal(err)
				}
				res, err := SolveBatch(b, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for i := range dst {
					if dst[i] != res.X[i] {
						t.Fatalf("iter %d: dst[%d] = %v, one-shot = %v (not bitwise identical)",
							iter, i, dst[i], res.X[i])
					}
				}
				if *s.Stats() != *res.Stats {
					t.Fatalf("iter %d: cached stats diverge from one-shot:\n got %+v\nwant %+v",
						iter, *s.Stats(), *res.Stats)
				}
				if s.K() != res.K || s.ModeledTime() != res.ModeledTime {
					t.Fatalf("iter %d: k/modeled diverge: got k=%d %v, want k=%d %v",
						iter, s.K(), s.ModeledTime(), res.K, res.ModeledTime)
				}
			}
		})
	}
}

// TestSolverConcurrentDistinct runs several independent Solvers from
// separate goroutines; run under -race this checks the reusable path
// shares no hidden mutable state between instances.
func TestSolverConcurrentDistinct(t *testing.T) {
	const goroutines = 4
	m, n := 8, 128
	b := workload.Batch[float64](workload.DiagDominant, m, n, 99)
	want, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := NewSolver[float64](m, n)
			if err != nil {
				errs[g] = err
				return
			}
			defer s.Close()
			dst := make([]float64, m*n)
			for iter := 0; iter < 5; iter++ {
				if err := s.SolveBatchInto(dst, b); err != nil {
					errs[g] = err
					return
				}
				for i := range dst {
					if dst[i] != want.X[i] {
						errs[g] = errors.New("concurrent solver diverged from one-shot")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestSolverMisuse checks the typed errors: shape mismatches and use
// after Close reject the call without corrupting the Solver, and
// overlapping calls on one Solver either succeed or fail with
// ErrSolverBusy — never silently interleave.
func TestSolverMisuse(t *testing.T) {
	m, n := 8, 64
	s, err := NewSolver[float64](m, n)
	if err != nil {
		t.Fatal(err)
	}
	good := workload.Batch[float64](workload.DiagDominant, m, n, 1)
	dst := make([]float64, m*n)

	if err := s.SolveBatchInto(dst, workload.Batch[float64](workload.DiagDominant, m, 2*n, 1)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong batch shape: got %v, want ErrShapeMismatch", err)
	}
	if err := s.SolveBatchInto(dst[:m*n-1], good); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong dst length: got %v, want ErrShapeMismatch", err)
	}
	if err := s.SolveBatchInto(dst, good); err != nil {
		t.Errorf("solver unusable after rejected calls: %v", err)
	}

	// Hammer one Solver from several goroutines: every call must either
	// complete with the correct solution or return ErrSolverBusy.
	want := make([]float64, m*n)
	copy(want, dst)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad []error
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]float64, m*n)
			for iter := 0; iter < 20; iter++ {
				err := s.SolveBatchInto(mine, good)
				switch {
				case err == nil:
					for i := range mine {
						if mine[i] != want[i] {
							mu.Lock()
							bad = append(bad, errors.New("overlapping call produced a corrupted solution"))
							mu.Unlock()
							return
						}
					}
				case errors.Is(err, ErrSolverBusy):
					// acceptable: the call was rejected untouched
				default:
					mu.Lock()
					bad = append(bad, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range bad {
		t.Error(err)
	}

	s.Close()
	s.Close() // idempotent
	if err := s.SolveBatchInto(dst, good); !errors.Is(err, ErrSolverClosed) {
		t.Errorf("closed solver: got %v, want ErrSolverClosed", err)
	}
}

// TestSolveBatchIntoZeroAlloc is the acceptance gate of the reusable
// solver: at the benchmark shape (M=64, N=1024, float64, heuristic k)
// a warmed Solver must run SolveBatchInto without any heap allocation.
// The k=0 path and a multi-worker pool are held to the same bar.
func TestSolveBatchIntoZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		m, n int
	}{
		{"acceptance-64x1024", nil, 64, 1024},
		{"k0", []Option{WithK(0)}, 32, 64},
		{"workers2", []Option{WithWorkers(2)}, 64, 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver[float64](tc.m, tc.n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 7)
			dst := make([]float64, tc.m*tc.n)
			if err := s.SolveBatchInto(dst, b); err != nil { // recording solve
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := s.SolveBatchInto(dst, b); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("SolveBatchInto allocates %.0f times per solve, want 0", allocs)
			}
		})
	}
}

// TestSolverGuardedReuse reuses the guarded path: results must match
// the one-shot SolveGuarded, and a clean batch must solve on the fast
// stage for every system across repeated calls.
func TestSolverGuardedReuse(t *testing.T) {
	m, n := 8, 128
	s, err := NewSolver[float64](m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for iter := 0; iter < 3; iter++ {
		b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(40+iter))
		want, err := SolveGuarded(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SolveGuarded(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("iter %d: guarded X[%d] = %v, one-shot = %v", iter, i, got.X[i], want.X[i])
			}
		}
		if len(got.Failed) != 0 {
			t.Fatalf("iter %d: clean batch reported failures: %v", iter, got.Failed)
		}
		for i, rep := range got.Reports {
			if rep.Stage != StageFast {
				t.Fatalf("iter %d: system %d escalated to %v on a clean batch", iter, i, rep.Stage)
			}
		}
	}
}

// TestSolverGuardedSharesPipeline pins that the guarded ladder runs on
// the Solver's own pipeline: after SolveGuarded the Solver holds no
// more goroutines than one pipeline's worker pool.
func TestSolverGuardedSharesPipeline(t *testing.T) {
	const m, n = 16, 256
	s, err := NewSolver[float64](m, n, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := workload.Batch[float64](workload.DiagDominant, m, n, 5)
	if err := s.SolveBatchInto(make([]float64, m*n), b); err != nil {
		t.Fatal(err)
	}
	withPipeline := runtime.NumGoroutine()
	if _, err := s.SolveGuarded(b); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > withPipeline {
		t.Fatalf("SolveGuarded raised the goroutine count from %d to %d: a second pipeline", withPipeline, got)
	}
}
