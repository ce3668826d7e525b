package gputrid

// One testing.B benchmark per table and figure of the paper's
// evaluation section. Each figure benchmark runs a representative point
// of its sweep (sizes reduced from the paper's largest so `go test
// -bench=.` completes quickly) with sub-benchmarks for our solver and
// the baselines it is plotted against. The full-size sweeps that
// regenerate the complete figures live in cmd/tridbench; EXPERIMENTS.md
// records those results.

import (
	"fmt"
	"testing"

	"gputrid/internal/bench"
	"gputrid/internal/core"
	"gputrid/internal/costmodel"
	"gputrid/internal/cpu"
	"gputrid/internal/davidson"
	"gputrid/internal/egloff"
	"gputrid/internal/gpusim"
	"gputrid/internal/tiledpcr"
	"gputrid/internal/workload"
	"gputrid/internal/zhang"
)

func benchEnv() *bench.Env {
	e := bench.DefaultEnv()
	e.Scale = 1
	return e
}

// benchPoint runs the three Fig. 12/13 contenders at one (M, N).
func benchPoint(b *testing.B, m, n int) {
	batch := workload.Batch[float64](workload.DiagDominant, m, n, 7)
	b.Run("ours-sim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Solve(core.Config{K: core.KAuto}, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mkl-seq-proxy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.SolveBatchSeq(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mkl-mt-proxy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.SolveBatchParallel(batch, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHostReducer times the buffered sliding window as warm
// solves run it: HostReducer, the tiled-PCR kernel's host twin,
// reducing one system by k steps. At 65536 rows the halos beyond the
// system are a sliver of the work; at adi-step's 192 rows and the
// serving mix's 64-row ADI systems, both at k = 6, they are a quarter
// and nearly half of the combines a full window would make, and the
// reducer stores their constants instead. The replay cases recompute
// only the reduced d from a recorded plan, as a system that shares the
// previous one's operator does; full/replay at the same shape is the
// same-run ratio. It allocates nothing once the reducer is built.
func BenchmarkHostReducer(b *testing.B) {
	for _, sh := range []struct{ n, k int }{
		{1 << 16, 4}, {1 << 16, 6}, {1 << 16, 8}, {192, 6}, {64, 6}, {1024, 4},
	} {
		s := workload.System[float64](workload.DiagDominant, sh.n, 17)
		out := NewSystem[float64](sh.n)
		name := fmt.Sprintf("n=%d,k=%d", sh.n, sh.k)
		b.Run(name, func(b *testing.B) {
			h := tiledpcr.NewHostReducer[float64](sh.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reduce(s.Lower, s.Diag, s.Upper, s.RHS, out.Lower, out.Diag, out.Upper, out.RHS, nil)
			}
		})
		if sh.n != 192 && sh.n != 1024 {
			continue
		}
		b.Run(name+",replay", func(b *testing.B) {
			h := tiledpcr.NewHostReducer[float64](sh.k)
			pl := h.NewPlan(sh.n)
			h.Reduce(s.Lower, s.Diag, s.Upper, s.RHS, out.Lower, out.Diag, out.Upper, out.RHS, pl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Replay(pl, s.RHS, out.RHS)
			}
		})
	}
}

// BenchmarkTable2CostModel measures the Table II closed forms plus the
// optimal-k search they drive.
func BenchmarkTable2CostModel(b *testing.B) {
	p := benchEnv().GPU.HardwareParallelism()
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 1<<20; m <<= 4 {
			_ = costmodel.OptimalK(1<<16, m, p)
		}
	}
}

// BenchmarkTable3Heuristic measures the runtime transition logic: an
// auto-k solve in each of Table III's M ranges.
func BenchmarkTable3Heuristic(b *testing.B) {
	for _, m := range []int{8, 24, 256, 768, 2048} {
		batch := workload.Batch[float64](workload.DiagDominant, m, 256, 5)
		b.Run(byM(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Solve(core.Config{K: core.KAuto}, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12a..c: execution time vs M at fixed N (representative
// mid-sweep point).
func BenchmarkFig12a(b *testing.B) { benchPoint(b, 1024, 512) }
func BenchmarkFig12b(b *testing.B) { benchPoint(b, 512, 2048) }
func BenchmarkFig12c(b *testing.B) { benchPoint(b, 128, 16384) }

// BenchmarkFig13a..d: execution time vs N at fixed M.
func BenchmarkFig13a(b *testing.B) { benchPoint(b, 2048, 1024) }
func BenchmarkFig13b(b *testing.B) { benchPoint(b, 256, 8192) }
func BenchmarkFig13c(b *testing.B) { benchPoint(b, 16, 65536) }
func BenchmarkFig13d(b *testing.B) { benchPoint(b, 1, 512*1024) }

// benchDavidson runs the Fig. 14 pair at one shape.
func benchDavidson(b *testing.B, m, n int) {
	batch := workload.Batch[float64](workload.DiagDominant, m, n, 9)
	b.Run("ours-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Solve(core.Config{K: core.KAuto}, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("davidson-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := davidson.Solve(davidson.Config{}, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig14a: ours vs Davidson, double precision (1K×1K shape).
func BenchmarkFig14a(b *testing.B) { benchDavidson(b, 1024, 1024) }

// BenchmarkFig14b: ours vs Davidson, single precision (1K×1K shape).
func BenchmarkFig14b(b *testing.B) {
	batch := workload.Batch[float32](workload.DiagDominant, 1024, 1024, 9)
	b.Run("ours-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Solve(core.Config{K: core.KAuto}, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("davidson-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := davidson.Solve(davidson.Config{}, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI measures the end-to-end public entry point.
func BenchmarkPublicAPI(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, 64, 1024, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func byM(m int) string {
	switch {
	case m < 16:
		return "M<16/k=8"
	case m < 32:
		return "M<32/k=7"
	case m < 512:
		return "M<512/k=6"
	case m < 1024:
		return "M<1024/k=5"
	default:
		return "M>=1024/k=0"
	}
}

// BenchmarkFactorizedReplay compares a full hybrid solve against the
// factor-once/replay path for repeated right-hand sides (the ADI
// time-stepping pattern). warm-solve is a reused one-worker pipeline,
// the twins' full arithmetic on the replay's one thread, so
// replay/warm-solve is the same-run ratio of the two.
func BenchmarkFactorizedReplay(b *testing.B) {
	const m, n = 16, 4096
	batch := workload.Batch[float64](workload.DiagDominant, m, n, 13)
	b.Run("full-solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Solve(core.Config{K: 6}, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-solve", func(b *testing.B) {
		p, err := core.NewPipeline[float64](core.Config{K: 6, Workers: 1}, m, n)
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		x := make([]float64, m*n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.SolveInto(x, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		f, err := core.FactorHybrid(batch, 6)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, m*n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Solve(batch.RHS, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelatedWork runs the related-work solver family at a small
// shared-memory-friendly shape (extra-small experiment's shape).
func BenchmarkRelatedWork(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, 64, 512, 15)
	dev := gpusim.GTX480()
	b.Run("zhang-cr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := zhang.KernelCR(dev, batch, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zhang-pcrthomas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := zhang.KernelPCRThomas(dev, batch, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("egloff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := egloff.Solve(dev, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCPUReference measures the real (wall-clock) CPU solvers on
// this machine — the only benchmarks here whose absolute numbers are
// hardware measurements rather than model evaluations.
func BenchmarkCPUReference(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, 256, 1024, 19)
	b.Run("thomas", func(b *testing.B) {
		b.SetBytes(int64(256 * 1024 * 5 * 8))
		for i := 0; i < b.N; i++ {
			if _, err := cpu.SolveBatchSeq(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gtsv-pivoting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cpu.SolveBatchGTSV(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factored", func(b *testing.B) {
		f, err := core.FactorHybrid(batch, 0)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, 256*1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Solve(batch.RHS, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}
